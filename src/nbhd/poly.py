"""Sparse multivariate polynomials with exact coefficients.

Monomials are exponent tuples indexed by an ordered VarSet; a polynomial is a
dict from exponent tuple to a nonzero raw coefficient value.  The module also
defines the two supported monomial orders and the textual polynomial format
(parse_poly / str round-trip exactly).  parse_poly reads the text in one pass:
one regex splits it into tokens, lazily, and one loop consumes them a term at
a time with one token of look-ahead.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .arith import RingSpec, parse_int
from .errors import (
    ArityMismatch,
    InvalidExponent,
    InvalidVariableName,
    ParseError,
    RingMismatch,
    UnknownVariable,
    VariableOutOfRange,
    VarSetMismatch,
    require_integer,
    require_names,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class VarSet:
    """An ordered tuple of distinct variable names.

    Names match [A-Za-z][A-Za-z0-9_]* so they survive the polynomial grammar.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", require_names("variable names", self.names))
        for name in self.names:
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise InvalidVariableName(f"invalid variable name {name!r}")
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise InvalidVariableName(f"duplicate variable names: {', '.join(dupes)}")

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def suffixed(self, suffix: str) -> "VarSet":
        return VarSet(tuple(f"{n}{suffix}" for n in self.names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


class MonomialOrder(Enum):
    """Admissible monomial orders (both refine total degree ordering of 1)."""

    LEX = "lex"
    DEGREVLEX = "degrevlex"

    def key(self, exps: tuple[int, ...]):
        """Sort key; bigger key means bigger monomial."""
        if self is MonomialOrder.LEX:
            return exps
        return (sum(exps), tuple(map(operator.neg, reversed(exps))))

    @staticmethod
    def parse(text: str) -> "MonomialOrder":
        try:
            return MonomialOrder(text.strip().lower())
        except ValueError:
            raise ParseError(f"unknown monomial order {text!r}") from None


DEFAULT_ORDER = MonomialOrder.DEGREVLEX


# ---------------------------------------------------------------------------
# raw exponent-tuple helpers (shared with the ideal machinery)


def _check_exponents(exps: tuple) -> None:
    for e in exps:
        if not isinstance(e, int) or e < 0:
            raise InvalidExponent(f"exponents must be non-negative integers, got {exps}")


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def mono_degree(a: tuple[int, ...]) -> int:
    return sum(a)


def format_monomial(varset: VarSet, exps: tuple[int, ...]) -> str:
    factors = []
    for name, e in zip(varset.names, exps):
        if e == 1:
            factors.append(name)
        elif e > 0:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


class Polynomial:
    """Immutable sparse polynomial over a VarSet and a RingSpec."""

    __slots__ = ("varset", "ring", "_terms", "_hash")

    def __init__(self, varset: VarSet, ring: RingSpec, terms=None):
        self.varset = varset
        self.ring = ring
        clean: dict[tuple[int, ...], object] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, value in items:
                exps = tuple(exps)
                if len(exps) != len(varset):
                    raise ArityMismatch(
                        f"{len(exps)} exponents for {len(varset)} variables"
                    )
                _check_exponents(exps)
                value = ring.add(clean.get(exps, ring.zero()), ring.normalize(value))
                if ring.is_zero(value):
                    clean.pop(exps, None)
                else:
                    clean[exps] = value
        self._terms = clean
        self._hash: int | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, varset, ring, terms: dict) -> "Polynomial":
        # trusted: terms already canonical (normalized, no zeros)
        p = object.__new__(cls)
        p.varset = varset
        p.ring = ring
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, varset: VarSet, ring: RingSpec) -> "Polynomial":
        return cls._raw(varset, ring, {})

    @classmethod
    def constant(cls, varset: VarSet, ring: RingSpec, value) -> "Polynomial":
        v = ring.normalize(value)
        if ring.is_zero(v):
            return cls.zero(varset, ring)
        return cls._raw(varset, ring, {(0,) * len(varset): v})

    @classmethod
    def one(cls, varset: VarSet, ring: RingSpec) -> "Polynomial":
        return cls.constant(varset, ring, 1)

    @classmethod
    def variable(cls, varset: VarSet, ring: RingSpec, which: int | str) -> "Polynomial":
        if isinstance(which, str):
            i = varset.index(which)
        else:
            require_integer("variable index", which)
            i = which
        if not 0 <= i < len(varset):
            raise VariableOutOfRange(f"variable index {i} out of range")
        exps = (0,) * i + (1,) + (0,) * (len(varset) - i - 1)
        return cls._raw(varset, ring, {exps: ring.one()})

    @classmethod
    def variables(cls, varset: VarSet, ring: RingSpec) -> list["Polynomial"]:
        # the indices are in range by construction: no check per variable
        n, one = len(varset), ring.one()
        return [
            cls._raw(varset, ring, {(0,) * i + (1,) + (0,) * (n - i - 1): one}) for i in range(n)
        ]

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        return max(map(mono_degree, self._terms), default=0)

    def sorted_terms(
        self, order: MonomialOrder = DEFAULT_ORDER
    ) -> list[tuple[tuple[int, ...], object]]:
        """Internal terms as (exps, raw value), biggest monomial first."""
        return sorted(self._terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading(self, order: MonomialOrder = DEFAULT_ORDER):
        """(exps, value) of the leading term, or None for the zero polynomial."""
        if not self._terms:
            return None
        exps = max(self._terms, key=order.key)
        return exps, self._terms[exps]

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.varset != other.varset:
            raise VarSetMismatch(f"{self.varset} vs {other.varset}")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            # the same ring and varset objects need no equality test
            if other.ring is not self.ring or other.varset is not self.varset:
                self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.varset, self.ring, other)
        return None

    def _combine(self, other: "Polynomial", subtract: bool = False) -> "Polynomial":
        """Termwise self + other, or self - other when subtract is set.

        x + 0, x - 0 and 0 + x return the nonzero operand itself, and 0 - x
        is -x: polynomials are immutable, so a result may share an operand.
        """
        if not other._terms:
            return self
        if not self._terms:
            return -other if subtract else other
        ring = self.ring
        op = ring.sub if subtract else ring.add
        zero, is_zero = ring.zero(), ring.is_zero
        terms = dict(self._terms)
        get = terms.get
        for exps, value in other._terms.items():
            s = op(get(exps, zero), value)
            if is_zero(s):
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return Polynomial._raw(self.varset, ring, terms)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, subtract=True)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, subtract=True)

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        return Polynomial._raw(
            self.varset, ring, {e: ring.neg(v) for e, v in self._terms.items()}
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        out: dict[tuple[int, ...], object] = {}
        for ea, va in self._terms.items():
            for eb, vb in o._terms.items():
                exps = mono_mul(ea, eb)
                s = ring.add(out.get(exps, ring.zero()), ring.mul(va, vb))
                if ring.is_zero(s):
                    out.pop(exps, None)
                else:
                    out[exps] = s
        return Polynomial._raw(self.varset, ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise InvalidExponent("exponent must be a non-negative integer")
        return _power(self, n) if n else Polynomial.one(self.varset, self.ring)

    def scale(self, value) -> "Polynomial":
        v = self.ring.normalize(value)
        ring = self.ring
        out = {}
        for exps, oldv in self._terms.items():
            s = ring.mul(oldv, v)
            if not ring.is_zero(s):
                out[exps] = s
        return Polynomial._raw(self.varset, ring, out)

    def substitute(
        self,
        images: Sequence["Polynomial"],
        varset: VarSet | None = None,
        product=operator.mul,
    ) -> "Polynomial":
        """Evaluate at images[i] in place of variable i.

        All images must share one varset and this polynomial's ring; the
        result lives over that varset (or over `varset` when there are no
        variables to substitute).  Powers and terms are formed by `product`;
        an algebra passes its reducing one, and images in normal form.  A
        term with a variable whose image is zero is skipped, so no power of
        a zero image and no product with one is formed.  A term also stops
        at the first power or partial product that comes out zero (say e^2
        in Q[e]/(e^2)), so no product with a zero operand is formed at all.
        """
        if len(images) != len(self.varset):
            raise ArityMismatch(
                f"{len(images)} images for {len(self.varset)} variables"
            )
        if images:
            target = images[0].varset
            for img in images:
                if img.ring is not self.ring and img.ring != self.ring:
                    raise RingMismatch(f"{img.ring} vs {self.ring}")
                if img.varset is not target and img.varset != target:
                    raise VarSetMismatch("images must share one variable set")
            if varset is not None and varset is not target and varset != target:
                raise VarSetMismatch("explicit varset disagrees with the images")
        else:
            target = varset if varset is not None else self.varset
        ring = self.ring
        result = Polynomial.zero(target, ring)
        powers: dict[tuple[int, int], Polynomial] = {}
        zeros = [i for i, img in enumerate(images) if not img._terms]

        def power(i: int, e: int) -> Polynomial:
            got = powers.get((i, e))
            if got is None:
                got = powers[(i, e)] = _power(images[i], e, product)
            return got

        for exps, value in self._terms.items():
            if zeros and any(exps[i] for i in zeros):
                continue  # a variable whose image is zero makes the term zero
            term = None
            for i, e in enumerate(exps):
                if e:
                    factor = power(i, e)
                    if not factor:
                        break  # a power that is zero makes the term zero
                    term = factor.scale(value) if term is None else product(term, factor)
                    if not term:
                        break  # so does a partial product that is zero
            else:
                if term is None:  # the constant term, reduced like the others
                    one = Polynomial.one(target, ring)
                    term = product(one.scale(value), one)
                result = result + term
        return result

    # -- equality, printing ------------------------------------------------

    def _key(self):
        return (self.varset, self.ring, frozenset(self._terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                o = self._coerce(other)
                return o is not None and self._terms == o._terms
            return NotImplemented
        return (
            self.varset == other.varset
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.ring}{self.varset}: {self})"


def _power(base, n: int, product=operator.mul):
    """base ** n for n >= 1, by square-and-multiply with `product`.

    A running product or a square that is zero ends the loop: the power is
    zero then, and no product with a zero operand is formed.
    """
    result = None
    while n:
        if n & 1:
            result = base if result is None else product(result, base)
            if not result:
                return result
        n >>= 1
        if n:
            base = product(base, base)
            if not base:
                return base
    return result


def format_poly(p: Polynomial) -> str:
    """Canonical text form: terms in descending DegRevLex, exact round-trip."""
    if p.is_zero():
        return "0"
    ring = p.ring
    pieces: list[str] = []
    for exps, value in p.sorted_terms(MonomialOrder.DEGREVLEX):
        negative = ring.kind != "Zmod" and value < 0
        magnitude = ring.format_value(ring.neg(value) if negative else value)
        if mono_degree(exps) == 0:
            body = magnitude
        elif magnitude == "1":
            body = format_monomial(p.varset, exps)
        else:
            body = f"{magnitude}*{format_monomial(p.varset, exps)}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^])|(?P<bad>\S))"
)


def _tokens(text: str) -> Iterator[tuple[str | None, str, int]]:
    """(kind, text, position) per token, then (None, "", len(text)).  Lazy,
    so a character outside the grammar raises only when it is reached."""
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        yield kind, m.group(kind), m.start(kind)
    yield None, "", len(text)


def _nat(tokens, kind: str | None, value: str, pos: int):
    """The number at the current token, and the token after it."""
    if kind != "nat":
        raise ParseError(
            f"expected a number, found {value!r}" if kind else "expected a number", pos
        )
    return parse_int(value, pos), next(tokens)


def parse_poly(text: str, varset: VarSet, ring: RingSpec) -> Polynomial:
    """Parse the linear polynomial syntax in one pass.

    Grammar (whitespace insignificant)::

        poly    := ['-'] term { ('+'|'-') term }
        term    := coeff ['*' factors] | factors
        factors := varpow { '*' varpow }
        varpow  := ident ['^' nat]
        coeff   := nat ['/' nat]

    One loop reads a term per pass, with one token of look-ahead, and adds
    it to the result.  Malformed text raises ParseError (UnknownVariable for
    a name outside the varset) at the position of the offending token.
    """
    tokens = _tokens(text)
    kind, value, pos = next(tokens)
    if kind is None:
        raise ParseError("empty polynomial", pos)
    acc: dict[tuple[int, ...], object] = {}
    negate = kind == "op" and value == "-"
    if negate:
        kind, value, pos = next(tokens)
    while True:
        exps, coeff = [0] * len(varset), ring.one()
        if kind == "nat":
            coeff_pos, den = pos, None
            num, (kind, value, pos) = _nat(tokens, kind, value, pos)
            if kind == "op" and value == "/":
                den, (kind, value, pos) = _nat(tokens, *next(tokens))
                if den == 0:
                    raise ParseError("zero denominator", coeff_pos)
            try:
                coeff = ring.normalize(num if den is None else Fraction(num, den))
            except ValueError as exc:
                raise ParseError(str(exc), coeff_pos) from None
            more = kind == "op" and value == "*"
            if more:
                kind, value, pos = next(tokens)
        elif kind == "ident":
            more = True
        else:
            raise ParseError(
                f"expected a term, found {value!r}" if kind else "expected a term", pos
            )
        while more:  # at a factor, varpow := ident ['^' nat]
            if kind != "ident":
                raise ParseError("expected a variable after '*'", pos)
            name, name_pos = value, pos
            kind, value, pos = next(tokens)
            if name not in varset:
                raise UnknownVariable(f"unknown variable {name!r}", name_pos)
            e = 1
            if kind == "op" and value == "^":
                e, (kind, value, pos) = _nat(tokens, *next(tokens))
            exps[varset.index(name)] += e
            more = kind == "op" and value == "*"
            if more:
                kind, value, pos = next(tokens)
        key = tuple(exps)
        acc[key] = ring.add(acc.get(key, ring.zero()), ring.neg(coeff) if negate else coeff)
        if ring.is_zero(acc[key]):
            del acc[key]
        if kind is None:
            return Polynomial._raw(varset, ring, acc)
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-', found {value!r}", pos)
        negate = value == "-"
        kind, value, pos = next(tokens)


def parse_poly_list(
    text: str, varset: VarSet, ring: RingSpec, sep: str = ","
) -> list[Polynomial]:
    """Parse a separated list of polynomials ("e1, e2" or "x ; y")."""
    parts = text.split(sep)
    return [parse_poly(part, varset, ring) for part in parts]
