"""Exact coefficient arithmetic over the rationals, the integers and Z/m.

A ring is described by a hashable RingSpec.  Elements are stored as plain
Python values (over Q an int when integral and a Fraction with denominator
above 1 otherwise, an int over Z, the canonical residue in [0, m) over Z/m)
and all arithmetic goes through the RingSpec so the polynomial layer can stay
representation-agnostic.  Keeping integral rationals as ints lets the small
integer coefficients of typical relations use machine-integer arithmetic; a
rational sum or product that comes out integral is turned back into an int.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgument, ParseError, UninterpretableValue

# Moduli must fit in a machine word.
MAX_MODULUS = 2**63 - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def parse_int(digits: str, position: int | None = None) -> int:
    """int(digits) for a matched digit string.  A string longer than Python's
    limit for it (4300 digits by default) raises ParseError, not ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """One of Q, Z, or Z/m, together with exact arithmetic on raw values.

    kind is "Q", "Z" or "Zmod"; modulus is set exactly for "Zmod".  Any
    other kind or modulus raises InvalidArgument.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "Z", "Zmod"):
            raise InvalidArgument(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            m = self.modulus
            if not isinstance(m, int) or m < 2:
                raise InvalidArgument("modulus must be an integer >= 2")
            if m > MAX_MODULUS:
                raise InvalidArgument(f"modulus {m} exceeds the machine-word bound {MAX_MODULUS}")
        elif self.modulus is not None:
            raise InvalidArgument(f"ring {self.kind} takes no modulus")
        # built once per ring; not dataclass fields, so == and hash ignore them
        object.__setattr__(self, "_zero", self.normalize(0))
        object.__setattr__(self, "_one", self.normalize(1))

    # -- construction ------------------------------------------------------

    @staticmethod
    def rationals() -> "RingSpec":
        return RingSpec("Q")

    @staticmethod
    def integers() -> "RingSpec":
        return RingSpec("Z")

    @staticmethod
    def modular(m: int) -> "RingSpec":
        return RingSpec("Zmod", m)

    @staticmethod
    def parse(text: str) -> "RingSpec":
        """Parse a ring description: "Q", "Z" or "Z/<m>"."""
        t = text.strip()
        if t == "Q":
            return RingSpec.rationals()
        if t == "Z":
            return RingSpec.integers()
        m = re.fullmatch(r"Z/(\d+)", t)
        if m:
            try:
                return RingSpec.modular(int(m.group(1)))
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"unknown ring {text!r}; expected Q, Z or Z/<m>")

    def __str__(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    # -- structural properties --------------------------------------------

    @property
    def is_field(self) -> bool:
        if self.kind == "Q":
            return True
        if self.kind == "Z":
            return False
        return _is_prime(self.modulus)  # type: ignore[arg-type]

    @property
    def two_invertible(self) -> bool:
        """Whether 2 has a multiplicative inverse in this ring."""
        if self.kind == "Q":
            return True
        if self.kind == "Z":
            return False
        return self.modulus % 2 == 1  # type: ignore[operator]

    @property
    def characteristic(self) -> int:
        return self.modulus if self.kind == "Zmod" else 0  # type: ignore[return-value]

    # -- raw value arithmetic ----------------------------------------------
    #
    # Raw values: int or Fraction with denominator > 1 (Q), int (Z), int
    # residue in [0, m) (Zmod).

    def normalize(self, value):
        """Coerce an int / Fraction into this ring's canonical raw form.

        Any other value raises UninterpretableValue (a TypeError), and a
        Fraction the ring cannot hold InvalidArgument (a ValueError), both
        NbhdErrors.  A plain int is tested for first: isinstance(x,
        Fraction) on anything but a Fraction runs the ABC machinery of the
        numbers tower.
        """
        if value.__class__ is not int:
            if isinstance(value, Fraction):
                return self.from_fraction(value)
            if not isinstance(value, int):
                what = "as a rational" if self.kind == "Q" else f"over {self}"
                raise UninterpretableValue(f"cannot interpret {value!r} {what}")
            value = int(value)  # bool -> int
        return value if self.modulus is None else value % self.modulus

    def from_fraction(self, q: Fraction):
        """Map a rational into the ring; raises InvalidArgument (a
        ValueError) when impossible."""
        if q.denominator == 1:
            return self.normalize(q.numerator)
        if self.kind == "Q":
            return q
        if self.kind == "Z":
            raise InvalidArgument(f"{q} is not an integer")
        d = q.denominator % self.modulus  # type: ignore[operator]
        inv = self.invert(d) if d else None  # a multiple of m has no inverse either
        if inv is None:
            raise InvalidArgument(f"denominator {q.denominator} is not invertible in {self}")
        return q.numerator * inv % self.modulus  # type: ignore[operator]

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    # Class-level methods testing the modulus, not bound per instance: tools
    # that count coefficient operations patch these class attributes.  Over
    # Q a Fraction result with denominator 1 is turned back into an int;
    # an int result, and every value over Z and Z/m, is never a Fraction.

    def add(self, a, b):
        if self.modulus is None:
            s = a + b
            return s.numerator if s.__class__ is Fraction and s.denominator == 1 else s
        return (a + b) % self.modulus

    def sub(self, a, b):
        if self.modulus is None:
            s = a - b
            return s.numerator if s.__class__ is Fraction and s.denominator == 1 else s
        return (a - b) % self.modulus

    def neg(self, a):
        return -a if self.modulus is None else -a % self.modulus

    def mul(self, a, b):
        if self.modulus is None:
            s = a * b
            return s.numerator if s.__class__ is Fraction and s.denominator == 1 else s
        return a * b % self.modulus

    def invert(self, a):
        """Multiplicative inverse, or None when the nonzero value has none.

        Inverting zero raises ZeroDivisionError; that is an error, whereas a
        None result is an ordinary answer (e.g. 2 over Z, 3 over Z/6).  Over
        Q the inverse of n/d is d/n, an int when n is 1 or -1.
        """
        if self.is_zero(a):
            raise ZeroDivisionError(f"0 is not invertible in {self}")
        if self.kind == "Q":
            n, d = a.numerator, a.denominator
            return n * d if n in (1, -1) else Fraction(d, n)
        if self.kind == "Z":
            return a if a in (1, -1) else None
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return not self.is_zero(a) and self.invert(a) is not None

    def format_value(self, a) -> str:
        """Canonical text: integers as-is, rationals as n/d, residues in [0, m)."""
        if self.kind == "Q" and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a) if self.kind != "Q" else a.numerator)


#: Shared ring instances for the two parameter-free rings.
QQ = RingSpec.rationals()
ZZ = RingSpec.integers()
