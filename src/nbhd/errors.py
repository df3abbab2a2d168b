"""Exception hierarchy shared by the whole package.

Everything raised deliberately by this library derives from NbhdError, so
callers (and the command line driver) can distinguish reported conditions
from genuine bugs.
"""

from __future__ import annotations


class NbhdError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(NbhdError):
    """Two operands live over different coefficient rings."""


class VarSetMismatch(NbhdError):
    """Two operands are indexed by different variable sets."""


class ArityMismatch(NbhdError):
    """A sequence has the wrong length for the operation (images, rows, ...)."""


class InvalidArgument(NbhdError, ValueError):
    """A size, count or option passed to a function is out of its range."""


class InvalidExponent(NbhdError, ValueError):
    """A monomial exponent is negative or not an integer."""


class InvalidVariableName(NbhdError, ValueError):
    """A variable name is malformed or repeated within one variable set."""


class VariableOutOfRange(NbhdError, IndexError):
    """A variable index lies outside its variable set."""


class UninterpretableValue(NbhdError, TypeError):
    """A value of a type that cannot be read as what the call needs: a
    polynomial, an element, an integer size, count or seed, or an iterable of
    relations."""


class UnknownCheck(NbhdError, KeyError):
    """A verification report was asked for a check it did not run."""


class ParseError(NbhdError):
    """Malformed textual input.  Carries a 0-based character position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """An identifier in a polynomial does not belong to the variable set."""


class NonFieldCoefficients(NbhdError):
    """A Groebner-basis computation was requested over a non-field ring."""


class DegreeGuardExceeded(NbhdError):
    """An intermediate polynomial outgrew the configured total-degree cap."""


class IllDefinedMap(NbhdError):
    """Candidate generator images do not kill some domain relation."""


class ParentMismatch(NbhdError):
    """An element was used with an algebra it does not belong to."""


class CompositionMismatch(NbhdError):
    """compose(g, f) requires the codomain of f to equal the domain of g."""


class DomainMismatch(NbhdError):
    """Maps in a joint operation must share domain and codomain."""


class ShapeMismatch(NbhdError):
    """Rows, columns or coefficient vectors have incompatible sizes."""


class NotNeighbours(NbhdError):
    """A construction required mutually neighbouring maps and got a witness against that."""


class CoefficientsNotAffine(NbhdError):
    """A coefficient tuple was required to sum to 1 and does not."""


class NotInKernel(NbhdError):
    """The element is not killed by the multiplication map."""


class NotInDtilde(NbhdError):
    """A matrix fails the cross-product or row-product equations."""


class ReexpansionFailed(NbhdError):
    """A constructive decomposition did not multiply back out to its input.

    Raised by the self-checks of decompose_difference and
    rewrite_kernel_element; seeing it means the construction is wrong.
    """


class UnknownFormat(NbhdError):
    """An input file does not follow the documented line format."""


def require_integer(name: str, value) -> None:
    """Raise UninterpretableValue unless value is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UninterpretableValue(f"{name} must be an integer, got {value!r}")


def require_names(name: str, value) -> tuple:
    """The items of value as a tuple, for an iterable of names; a string
    would be read character by character, so it raises UninterpretableValue,
    as does anything that is not iterable.  The items themselves are the
    caller's to check."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise UninterpretableValue(f"{name} must be an iterable of names, got {value!r}")
