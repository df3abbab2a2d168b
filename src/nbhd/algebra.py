"""Finitely presented commutative algebras and their maps.

An FpAlgebra is a coefficient ring, an ordered variable set and a finite set
of relation polynomials.  The relations pick the normal-form engine:

* when every relation is a single term with a unit coefficient (a monomial
  ideal), normal forms delete divisible terms and work over any ring,
* otherwise normal forms reduce against the reduced Groebner basis of the
  relation ideal, which needs a field.

For a monomial ideal the reduced Groebner basis is its minimal monomial
generators, so the two engines agree wherever both apply.

Elements always store their normal form, so equality of elements is equality
of representatives.  Products, and the sums of products the neighbour scans
and row sums form, go through one kernel that accumulates normal-form terms
in one dict; the universal objects below take their relations from the
scans' enumerations over a free algebra's generators.  Over monomial
relations it forms only the exponent sums no relation divides, so the terms
a normal form would delete are never built.
Which sums those are is looked up in a product table shared by every
algebra whose relations have the same exponents, whatever its ring, order or
variable names (a free algebra's is the table of no relations), and normal
forms read the same table; the tables are bounded and cleared when full.
Checks happen at the boundary: element(), the constructors and operations
mixing parents validate, while sums and products of two elements of the same
parent object go straight to the arithmetic; the scans' enumerations trust
their rows, which neighbour.vectors_neighbour, the one entry taking raw
rows, coerces first.  Maps are given by generator images, evaluate
inside the codomain and are validated at construction: every relation of
the domain must map to zero (the certificate for well-definedness);
violations raise IllDefinedMap.

The second half of the module builds tensor products (coproducts) and the
quotients by (squared) diagonal ideals which classify neighbouring pairs,
together with the classifying maps given by their universal property.  The
simplices' maps are built from generator images, with no tensor power,
projection or composite.  Over a free base both simplices, like
universal_dtilde, have the Hilbert series of D~(p, n) with free variables
adjoined, and _universal_quotient passes it to buchberger, which then
certifies the row-echelon relations as the reduced basis without forming an
S-polynomial.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .arith import RingSpec
from .errors import (
    ArityMismatch,
    CompositionMismatch,
    DomainMismatch,
    IllDefinedMap,
    InvalidArgument,
    InvalidExponent,
    ParentMismatch,
    RingMismatch,
    UninterpretableValue,
    VarSetMismatch,
    require_integer,
    require_names,
)
from .ideal import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    Ideal,
    _check_order_and_cap,
    _Divisors,
    buchberger,
)
from .poly import DEFAULT_ORDER, MonomialOrder, Polynomial, VarSet, _power, parse_poly


def _embed_poly(p: Polynomial, target: VarSet, offset: int, ring: RingSpec) -> Polynomial:
    """Reinterpret p over a larger varset, shifting its variables by offset."""
    width = len(target)
    pad_left = offset
    pad_right = width - offset - len(p.varset)
    terms = {
        (0,) * pad_left + exps + (0,) * pad_right: value
        for exps, value in p._terms.items()
    }
    return Polynomial._raw(target, ring, terms)


# Product tables, shared by every monomial-engine algebra, free or not, whose
# relations have the same exponents: whether a relation divides an exponent sum
# depends on those exponents alone, not on the ring, the order or the names.
# Both bounds clear rather than evict, so there is no policy to tune; a table
# dropped from the map lives on only in the algebras that already hold it.
_MAX_TABLES = 64
_MAX_TABLE_ENTRIES = 1 << 14
_TABLES: dict[tuple, "_ProductTable"] = {}
_NO_ROW: dict = {}  # read, never written: every lookup misses and fill adds the row


class _ProductTable:
    """rows[ea][eb] is the exponent sum ea + eb, or None when a relation
    divides it; an entry is filled, by the monomial engine's one divisibility
    test, the first time it is asked for.  The unit's row is normal_form's."""

    __slots__ = ("divisors", "rows", "entries")

    def __init__(self, divisors: _Divisors):
        self.divisors = divisors
        self.rows: dict[tuple, dict] = {}
        self.entries = 0

    def fill(self, ea: tuple, eb: tuple) -> tuple | None:
        exps = tuple(map(operator.add, ea, eb))
        if self.divisors.dividing(exps):
            exps = None
        if self.entries >= _MAX_TABLE_ENTRIES:
            self.rows.clear()
            self.entries = 0
        self.rows.setdefault(ea, {})[eb] = exps
        self.entries += 1
        return exps


def _product_table(nvars: int, relations: Sequence[Polynomial]) -> _ProductTable:
    key = (nvars, frozenset(e for r in relations for e in r._terms))
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) >= _MAX_TABLES:
            _TABLES.clear()
        # a single term leads in every order, so any order divides alike
        table = _TABLES[key] = _ProductTable(_Divisors(relations, DEFAULT_ORDER, nvars))
    return table


class FpAlgebra:
    """A finitely presented commutative algebra with a normal-form engine.

    The engine follows from the relations: monomial deletion when they
    generate a monomial ideal (Ideal.is_monomial), over any ring; a reduced
    Groebner basis otherwise, which raises NonFieldCoefficients over a ring
    that is not a field.  The ring must be a RingSpec and the variable names
    an iterable of strings (UninterpretableValue otherwise).

    Two algebras are equal when their rings, variable names, sets of
    relations and orders are.  That signature, and its hash, are computed on
    the first hash or the first comparison with another object, not when the
    algebra is presented: building one hashes none of its relations.
    """

    __slots__ = (
        "ring",
        "varset",
        "relations",
        "order",
        "degree_cap",
        "_table",
        "_gb",
        "_signature",
        "_hash",
        "_one",
        "_gens",
    )

    def __init__(
        self,
        ring: RingSpec,
        varset: VarSet | Sequence[str],
        relations: Iterable = (),
        order: MonomialOrder = DEFAULT_ORDER,
        degree_cap: int = DEFAULT_DEGREE_CAP,
    ):
        self._present(ring, varset, relations, order, degree_cap, None)

    def _present(self, ring, varset, relations, order, degree_cap, hilbert) -> None:
        # validate, pick the engine and, for the Groebner engine, build the
        # basis, passing buchberger the quotient's Hilbert series if known
        _check_order_and_cap(order, degree_cap)
        if not isinstance(ring, RingSpec):
            raise UninterpretableValue(f"ring must be a RingSpec, got {ring!r}")
        if not isinstance(varset, VarSet):
            varset = VarSet(varset)
        try:
            relations = iter(relations)
        except TypeError:
            raise UninterpretableValue(f"relations {relations!r} are not iterable") from None
        rels = []
        for r in relations:
            if isinstance(r, str):
                r = parse_poly(r, varset, ring)
            if not isinstance(r, Polynomial):
                raise UninterpretableValue(f"relation {r!r} is not a polynomial")
            rels.append(r)
        ideal = Ideal(varset, ring, tuple(rels))
        self.ring = ring
        self.varset = varset
        self.relations = ideal.generators
        self.order = order
        self.degree_cap = degree_cap
        self._table: _ProductTable | None = None
        self._gb: GroebnerBasis | None = None
        if ideal.is_monomial():
            self._table = _product_table(len(varset), self.relations)
        else:
            self._gb = buchberger(ideal, order, degree_cap, hilbert=hilbert)
        self._signature: tuple | None = None  # set by _identity when first compared
        self._hash: int | None = None
        self._one: Polynomial | None = None
        self._gens: tuple[Polynomial, ...] | None = None

    @property
    def strategy(self) -> str:
        """The engine the relations picked: "monomial" or "groebner"."""
        return "monomial" if self._gb is None else "groebner"

    # -- identity ----------------------------------------------------------

    def _identity(self) -> int:
        """The hash of the signature (ring, names, relation set, order),
        both computed on the first call: an algebra that is never hashed or
        compared with another object never hashes its relations."""
        if self._hash is None:
            self._signature = (self.ring, self.varset.names, frozenset(self.relations), self.order)
            self._hash = hash(self._signature)
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FpAlgebra):
            return NotImplemented
        return self._identity() == other._identity() and self._signature == other._signature

    def __hash__(self) -> int:
        return self._identity()

    def __repr__(self) -> str:
        rels = "; ".join(str(r) for r in self.relations)
        quotient = f" / ({rels})" if rels else ""
        return f"{self.ring}[{', '.join(self.varset.names)}]{quotient}"

    # -- normal forms and elements ------------------------------------------

    def normal_form(self, p: Polynomial) -> Polynomial:
        """p reduced by the Groebner basis, or over monomial relations, its
        terms whose monomial the product table's unit row keeps: a monomial
        any algebra of the same relation exponents has met costs one lookup.
        The basis, on this algebra's varset and ring, checks p itself."""
        if self._gb is not None:
            return self._gb.normal_form(p)
        if p.varset is not self.varset and p.varset != self.varset:
            raise VarSetMismatch(f"{p.varset} vs {self.varset}")
        if p.ring is not self.ring and p.ring != self.ring:
            raise RingMismatch(f"{p.ring} vs {self.ring}")
        unit = (0,) * len(self.varset)
        row, fill = self._table.rows.get(unit, _NO_ROW), self._table.fill
        kept = {
            e: v for e, v in p._terms.items()
            if (row[e] if e in row else fill(unit, e)) is not None
        }
        return Polynomial._raw(self.varset, self.ring, kept)

    def _deletes(self, exps: tuple) -> bool:
        """Whether the monomial normal form deletes the monomial exps, that is,
        whether a relation divides it.

        The answer is the product table's entry for the unit times exps, the
        row normal_form reads, so a repeated monomial costs one lookup.
        """
        table = self._table
        if table is None:
            raise InvalidArgument("the Groebner engine does not reduce by deletion")
        unit = (0,) * len(exps)
        try:
            return table.rows[unit][exps] is None
        except KeyError:
            return table.fill(unit, exps) is None

    def _product(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """The normal form of a * b, for polynomials over this algebra: the
        one-pair case of _sum_of_products.  A zero operand gives zero at once."""
        if not a._terms or not b._terms:
            return Polynomial._raw(self.varset, self.ring, {})
        return Polynomial._raw(
            self.varset, self.ring, self._sum_of_products(((a._terms, b._terms),))
        )

    def _sum_of_products(self, pairs) -> dict:
        """The normal-form terms of the sum of a * b over pairs (a, b) of the
        term dicts of polynomials over this algebra, accumulated in one dict:
        a sum that comes out zero is dropped, and over monomial relations no
        polynomial is built.

        Over monomial relations (or none) only the exponent sums that no
        relation divides are formed; the terms normal_form would delete
        never are.  Each pair of exponents is looked up in the product table
        this algebra shares with every algebra of the same relation
        exponents, and the divisibility test runs only for a pair it lacks.
        The terms come out in the order of the products' element sum: a
        product is formed in a dict of its own, then added in as Polynomial
        addition does, only when the sum so far is nonzero and both factors
        have several terms; otherwise its exponent sums are distinct, or it
        is the first, and it is formed in the result dict directly.
        The Groebner engine reduces the free sum once: by linearity that is
        the sum of the reduced products.
        """
        ring = self.ring
        if self._gb is not None:
            varset = self.varset
            free = Polynomial._raw(varset, ring, {})
            for ta, tb in pairs:
                free = free + Polynomial._raw(varset, ring, ta) * Polynomial._raw(varset, ring, tb)
            return self._gb.normal_form(free)._terms if free._terms else {}
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        table = self._table
        rows = table.rows
        out: dict[tuple[int, ...], object] = {}
        for ta, tb in pairs:
            part = {} if out and len(ta) > 1 < len(tb) else out
            for ea, va in ta.items():
                row = rows.get(ea, _NO_ROW)
                for eb, vb in tb.items():
                    try:
                        exps = row[eb]
                    except KeyError:
                        exps = table.fill(ea, eb)
                    if exps is None:
                        continue
                    s = mul(va, vb)
                    if exps in part:
                        s = add(part[exps], s)
                    if is_zero(s):
                        part.pop(exps, None)
                    else:
                        part[exps] = s
            if part is not out:
                for exps, s in part.items():
                    if exps in out:
                        s = add(out[exps], s)
                        if is_zero(s):
                            del out[exps]
                            continue
                    out[exps] = s
        return out

    def _element(self, terms: dict) -> "AlgebraElement":
        """The element whose normal form has the given terms, unchecked."""
        return AlgebraElement(self, Polynomial._raw(self.varset, self.ring, terms))

    def _elements(self, values) -> tuple:
        """values as a tuple of this algebra's elements, for the constructors
        that take many: an element whose parent is this very algebra, the one
        identity test the arithmetic makes, is taken as it is, and anything
        else goes through element(), with its values and errors."""
        element = self.element
        return tuple([
            x if x.__class__ is AlgebraElement and x.parent is self else element(x)
            for x in values
        ])

    def element(self, value) -> "AlgebraElement":
        if isinstance(value, AlgebraElement):
            if value.parent is not self and value.parent != self:
                raise ParentMismatch(f"element of {value.parent!r} used in {self!r}")
            return value
        # Polynomial before the numbers: isinstance(x, Fraction) on anything
        # but a Fraction runs the ABC machinery of the numbers tower
        if isinstance(value, Polynomial):
            return AlgebraElement(self, self.normal_form(value))
        if isinstance(value, (int, Fraction)):
            return AlgebraElement(self, self._number(self.ring.normalize(value)))
        if not isinstance(value, str):
            raise UninterpretableValue(f"cannot interpret {value!r} as an element")
        return AlgebraElement(self, self.normal_form(parse_poly(value, self.varset, self.ring)))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, Polynomial.zero(self.varset, self.ring))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self._unit())

    # The unit's and the generators' normal forms are computed once, on
    # first use.  The slots hold polynomials, not elements: an element
    # refers back to its algebra, so an algebra holding its own elements
    # would form a reference cycle and stay alive until the next garbage
    # collection instead of going when its last reference does.

    def _unit(self) -> Polynomial:
        if self._one is None:
            self._one = self.normal_form(Polynomial.one(self.varset, self.ring))
        return self._one

    def _number(self, value) -> Polynomial:
        """The normal form of a number, given as the ring's raw value (as
        RingSpec.normalize returns it): the unit's normal form times it.
        Under either engine that form is the constant 1, or 0 in a zero
        ring (a relation that reduces 1 puts 1 in the ideal), so the product
        is the constant value itself, or 0, and no coefficient is
        multiplied."""
        terms = {} if self.ring.is_zero(value) else dict.fromkeys(self._unit()._terms, value)
        return Polynomial._raw(self.varset, self.ring, terms)

    def generator(self, which: int | str) -> "AlgebraElement":
        """Generator `which`, by index or name.  A name is read by
        VarSet.index, which raises UnknownVariable for one it lacks; an index
        in range reads the normal forms of all the variables, which the
        first such call computes into the _gens slot.  A bool or any other
        index goes through Polynomial.variable and element(), with their
        errors."""
        if which.__class__ is str:
            which = self.varset.index(which)
        if which.__class__ is int and which >= 0:
            forms = self._generator_forms()
            if which < len(forms):
                return AlgebraElement(self, forms[which])
        return self.element(Polynomial.variable(self.varset, self.ring, which))

    def generators(self) -> list["AlgebraElement"]:
        return [AlgebraElement(self, g) for g in self._generator_forms()]

    def _generator_forms(self) -> tuple[Polynomial, ...]:
        forms = self._gens
        if forms is None:
            variables = Polynomial.variables(self.varset, self.ring)
            forms = self._gens = tuple(map(self.normal_form, variables))
        return forms

    @property
    def is_free(self) -> bool:
        return not self.relations


def free_algebra(ring: RingSpec, names: Sequence[str]) -> FpAlgebra:
    """The polynomial algebra on the given variables (no relations)."""
    return FpAlgebra(ring, VarSet(names))


class AlgebraElement:
    """An element of an FpAlgebra, stored as its normal form.

    Elements are immutable, so arithmetic may return an operand itself:
    x + 0, 0 + x and x - 0 give x, and x * 0 and 0 * x give the zero
    operand, with no coefficient operation and no new polynomial.
    """

    __slots__ = ("parent", "rep")

    def __init__(self, parent: FpAlgebra, rep: Polynomial):
        self.parent = parent
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            if other.parent is self.parent or other.parent == self.parent:
                return other
            raise ParentMismatch(
                f"cannot combine elements of {self.parent!r} and {other.parent!r}"
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.parent.element(other)
        return None

    # An element of the same parent object needs no coercion and its rep no
    # ring or varset test; other operands go through _coerce.

    def __add__(self, other):
        if other.__class__ is not AlgebraElement or other.parent is not self.parent:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.rep._terms:
            return self
        if not self.rep._terms and other.parent is self.parent:
            return other
        # a sum of normal forms is a normal form: no term of either operand
        # lies in the leading-term ideal, so there is nothing to reduce
        return AlgebraElement(self.parent, self.rep._combine(other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not AlgebraElement or other.parent is not self.parent:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.rep._terms:
            return self
        return AlgebraElement(self.parent, self.rep._combine(other.rep, subtract=True))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgebraElement(self.parent, -self.rep)

    def __mul__(self, other):
        if other.__class__ is not AlgebraElement or other.parent is not self.parent:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.rep._terms:
            return self
        if not other.rep._terms and other.parent is self.parent:
            return other
        return AlgebraElement(self.parent, self.parent._product(self.rep, other.rep))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidExponent("exponent must be a non-negative integer")
        return _power(self, n) if n else self.parent.one()

    def is_zero(self) -> bool:
        return not self.rep._terms

    def __bool__(self) -> bool:
        return bool(self.rep._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraElement):
            return self.parent == other.parent and self.rep == other.rep
        if isinstance(other, (int, Fraction, Polynomial)):
            o = self._coerce(other)
            return self.rep == o.rep
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parent, self.rep))

    def __str__(self) -> str:
        return str(self.rep)

    def __repr__(self) -> str:
        return f"<{self.rep} in {self.parent!r}>"


class AlgebraMap:
    """An algebra map given by generator images, validated on construction.

    The certificate: substituting the images into every relation of the
    domain must give zero in the codomain.  By linearity and
    multiplicativity this pins down a unique well-defined algebra map.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: FpAlgebra, codomain: FpAlgebra, images: Sequence):
        if len(images) != len(domain.varset):
            raise ArityMismatch(
                f"{len(images)} images for {len(domain.varset)} generators"
            )
        if domain.ring is not codomain.ring and domain.ring != codomain.ring:
            raise RingMismatch(f"{codomain.ring} vs {domain.ring}")
        self.domain = domain
        self.codomain = codomain
        self.images = codomain._elements(images)
        for relation in domain.relations:
            value = self._evaluate(relation)
            if not value.is_zero():
                raise IllDefinedMap(f"relation {relation} maps to {value}, not zero")

    def _evaluate(self, p: Polynomial) -> Polynomial:
        # inside the codomain, reducing every power and term as it is formed
        reps = [im.rep for im in self.images]
        return p.substitute(reps, self.codomain.varset, self.codomain._product)

    def apply(self, x) -> AlgebraElement:
        return AlgebraElement(self.codomain, self._evaluate(self.domain.element(x).rep))

    __call__ = apply

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self) -> str:
        arrows = ", ".join(
            f"{name} -> {im}" for name, im in zip(self.domain.varset.names, self.images)
        )
        return f"AlgebraMap({arrows or 'constants only'})"


def identity_map(algebra: FpAlgebra) -> AlgebraMap:
    return AlgebraMap(algebra, algebra, algebra.generators())


def compose(after: AlgebraMap, before: AlgebraMap) -> AlgebraMap:
    """compose(g, f) is g after f; the codomain of f must be the domain of g."""
    if before.codomain != after.domain:
        raise CompositionMismatch(
            f"codomain {before.codomain!r} differs from domain {after.domain!r}"
        )
    return AlgebraMap(
        before.domain, after.codomain, [after.apply(im) for im in before.images]
    )


# ---------------------------------------------------------------------------
# tensor products


def tensor_power(
    algebra: FpAlgebra, count: int
) -> tuple[FpAlgebra, tuple[AlgebraMap, ...]]:
    """The coproduct of `count` copies, with variables renamed by copy index.

    Generator g of copy r becomes "g_r".  Returns the tensor algebra and the
    inclusion of each copy.
    """
    require_integer("count", count)
    if count < 1:
        raise InvalidArgument("need at least one tensor factor")
    return _tensor_many([algebra] * count)


def tensor(
    a: FpAlgebra, b: FpAlgebra
) -> tuple[FpAlgebra, AlgebraMap, AlgebraMap]:
    """The coproduct of two algebras; variables get suffixes _0 and _1."""
    t, inclusions = _tensor_many([a, b])
    return t, inclusions[0], inclusions[1]


def _tensor_many(parts: Sequence[FpAlgebra]) -> tuple[FpAlgebra, tuple[AlgebraMap, ...]]:
    t = _tensor_algebra(parts)
    gens = t.generators()
    inclusions = []
    offset = 0
    for part in parts:
        width = len(part.varset)
        inclusions.append(AlgebraMap(part, t, gens[offset : offset + width]))
        offset += width
    return t, tuple(inclusions)


def _tensor_ideal(parts: Sequence[FpAlgebra]) -> Ideal:
    """The relations of the coproduct: each part's relations on its own copy
    of the variables, renamed by copy index as in _tensor_many."""
    ring = parts[0].ring
    for p in parts:
        if p.ring != ring:
            raise RingMismatch(f"{p.ring} vs {ring}")
    # distinct: the last underscore of a name fixes its copy index r
    names: list[str] = []
    for r, part in enumerate(parts):
        names.extend(part.varset.suffixed(f"_{r}").names)
    varset = VarSet(tuple(names))
    relations: list[Polynomial] = []
    offset = 0
    for part in parts:
        for rel in part.relations:
            relations.append(_embed_poly(rel, varset, offset, ring))
        offset += len(part.varset)
    return Ideal(varset, ring, tuple(relations))


def _tensor_algebra(parts: Sequence[FpAlgebra]) -> FpAlgebra:
    """The coproduct of the parts, without its inclusions, in the order of
    the last part with a Groebner basis (else of the first part) and with
    the largest degree cap."""
    ideal = _tensor_ideal(parts)
    order = parts[0].order
    for p in parts:
        if p._gb is not None:
            order = p.order
    cap = max(p.degree_cap for p in parts)
    return FpAlgebra(ideal.ring, ideal.varset, ideal.generators, order, cap)


def multiplication_map(algebra: FpAlgebra) -> AlgebraMap:
    """The codiagonal from the two-fold tensor power back to the algebra.

    Both renamed copies of a generator map to the original generator, so the
    map sends a tensor a (x) b to the product a*b.
    """
    return _codiagonal(algebra, _tensor_algebra([algebra, algebra]))


def _codiagonal(algebra: FpAlgebra, square: FpAlgebra) -> AlgebraMap:
    """multiplication_map(algebra) out of its already built two-fold tensor
    power `square`."""
    gens = algebra.generators()
    return AlgebraMap(square, algebra, gens + gens)


def diagonal_ideal(algebra: FpAlgebra, power: int = 1) -> Ideal:
    """The kernel ideal of the multiplication map, or its square.

    power=1 gives the generators g_1 - g_0 (one per generator of the
    algebra); power=2 gives all pairwise products of those differences, which
    is multi_diagonal_ideal(algebra, 1).  For a presented algebra the
    embedded relation polynomials of both copies are included, which presents
    the same ideal of the tensor algebra pulled back along the presentation.
    """
    if power not in (1, 2):
        raise InvalidArgument("power must be 1 or 2")
    if power == 2:
        return multi_diagonal_ideal(algebra, 1)
    t = _tensor_ideal([algebra, algebra])
    n = len(algebra.varset)
    variables = Polynomial.variables(t.varset, t.ring)
    diffs = [variables[n + i] - variables[i] for i in range(n)]
    return Ideal(t.varset, t.ring, (*diffs, *t.generators))


def multi_diagonal_ideal(algebra: FpAlgebra, p: int) -> Ideal:
    """Sum over all copy pairs r < s of the squared diagonal ideal between
    copies r and s, inside the (p+1)-fold tensor power: the difference
    products of the copies' variables, then the tensor power's relations."""
    if p < 1:
        raise InvalidArgument("p must be at least 1")
    t = _tensor_ideal([algebra] * (p + 1))
    n = len(algebra.varset)
    variables = _free_generators(FpAlgebra(t.ring, t.varset))
    copies = [variables[r * n : (r + 1) * n] for r in range(p + 1)]
    return Ideal(t.varset, t.ring, (*(q.rep for _, q in _difference_products(copies)), *t.generators))


def _free_generators(free: FpAlgebra) -> list[AlgebraElement]:
    """The generators of a free algebra, built as they are: a free normal
    form is the identity.  The relation builders enumerate their equations
    over them, so every product of an equation is formed by the kernel."""
    return [AlgebraElement(free, v) for v in Polynomial.variables(free.varset, free.ring)]


def _difference_products(rows: Sequence[Sequence]):
    """Yield ((r, s, i, j), (x_si - x_ri) * (x_sj - x_rj)) for rows r < s
    and columns i <= j, in that nesting order, 0-based.

    The products of two differences are the equations of the neighbour
    relation and, over a free algebra's generators, the relations of the
    universal simplices.  The rows are trusted: equally long, of elements
    of the first entry's algebra or of equal ones.  Each pair of rows has
    its differences formed once, and the kernel forms their products.
    A product with a zero difference is zero, so it is neither formed nor
    yielded, and no product that vanishes is yielded either; when
    _vanish_by_support finds that every product vanishes, none is formed.
    """
    if not any(rows) or _vanish_by_support(rows, differences=True):
        return
    algebra = rows[0][0].parent
    kernel, build = algebra._sum_of_products, algebra._element
    for r, low in enumerate(rows):
        for s in range(r + 1, len(rows)):
            diffs = [(b - a).rep._terms for a, b in zip(low, rows[s])]
            for i, d in enumerate(diffs):
                if d:
                    for j in range(i, len(diffs)):
                        if diffs[j]:
                            terms = kernel(((d, diffs[j]),))
                            if terms:
                                yield (r, s, i, j), build(terms)


def _vanish_by_support(rows: Sequence[Sequence], differences: bool = False) -> bool:
    """Whether every equation of a scan over rows of elements vanishes by
    the supports of its factors alone, so the scan has nothing to yield.

    The rows are a scan's, trusted as it trusts them.  Every factor of an equation is supported in one set U of monomials: the
    entries' supports, or with differences set those of every row_s - row_0
    (row_s - row_r is their difference, so it is supported there too),
    read as the monomials of the symmetric difference of the two term
    dicts' items, with nothing subtracted.  When the
    product table deletes u * v for every u, v in U, each product of two
    factors is zero whatever their coefficients, and so is each sum of
    them.  Nothing is multiplied and no element is built; a table entry is
    read, or filled, per pair until one survives.  The answer is False at
    once, and the scan runs in full, when the rows are empty or the
    algebra takes the Groebner engine.
    """
    if not rows or not rows[0]:
        return False
    anchor = rows[0]
    table = anchor[0].parent._table
    if table is None:
        return False
    support: set[tuple] = set()
    first = operator.itemgetter(0)
    for row in rows:
        for x, y in zip(row, anchor):
            if not differences:
                support.update(x.rep._terms)
            elif x is not y:
                support.update(map(first, y.rep._terms.items() ^ x.rep._terms.items()))
    monomials = list(support)
    table_rows = table.rows
    for k, u in enumerate(monomials):
        row = table_rows.get(u, _NO_ROW)
        for v in monomials[k:]:
            try:
                exps = row[v]
            except KeyError:
                exps = table.fill(u, v)
            if exps is not None:
                return False
    return True


@dataclass(frozen=True)
class UniversalSimplex:
    """A quotient of a tensor power classifying tuples of mutual neighbours.

    `maps` are given by their generator images: map r sends each generator g
    of the base to copy r of g, which is g_r in the "tensor" presentation
    and g + d_g_r in the "difference" one (g itself for r = 0).  Any two of
    them are neighbours, and the construction is universal with that
    property (see classifying_map).  No tensor power or projection onto the
    quotient is built.  `representation` records how the quotient is
    presented: "difference" uses displacement variables d_* on top of the
    base variables, "tensor" quotients the renamed tensor algebra directly.
    """

    base: FpAlgebra
    algebra: FpAlgebra
    maps: tuple[AlgebraMap, ...]
    representation: str

    @property
    def p(self) -> int:
        return len(self.maps) - 1


def _difference_names(base: FpAlgebra, p: int) -> list[str]:
    names = list(base.varset.names)
    if p == 1:
        names.extend(f"d_{g}" for g in base.varset.names)
    else:
        for r in range(1, p + 1):
            names.extend(f"d_{g}_{r}" for g in base.varset.names)
    return names


def _universal_quotient(ring, varset, relations, order, degree_cap, p, n, free) -> FpAlgebra:
    """FpAlgebra(ring, varset, relations, order, degree_cap), for relations
    presenting D~(p, n) with `free` variables adjoined, up to a graded
    linear change of variables; buchberger gets that quotient's Hilbert
    series (README, "Hilbert series certify the universal bases")."""
    if ring.two_invertible:
        numerator = tuple(comb(p, k) * comb(n, k) for k in range(min(p, n) + 1))
    else:  # characteristic 2; over Z the relations are monomial or refused
        numerator = tuple(comb(p, k) * comb(n + k - 1, k) for k in range(p + 1))
    algebra = FpAlgebra.__new__(FpAlgebra)
    algebra._present(ring, varset, relations, order, degree_cap, (numerator, free))
    return algebra


def _difference_representation(
    base: FpAlgebra, p: int, order: MonomialOrder, cap: int
) -> UniversalSimplex:
    ring = base.ring
    n = len(base.varset)
    try:
        varset = VarSet(tuple(_difference_names(base, p)))
    except ValueError as exc:
        raise VarSetMismatch(f"displacement naming collision: {exc}") from None
    free = FpAlgebra(ring, varset)
    variables = _free_generators(free)

    # the zero row is the base point; its pairs with a block give the
    # products of that block's displacements, and map r sends g to g + d_g_r
    anchored = [[free.zero()] * n, *(variables[r * n : (r + 1) * n] for r in range(1, p + 1))]
    relations = [product.rep for _, product in _difference_products(anchored)]
    quotient = _universal_quotient(ring, varset, relations, order, cap, p, n, n)
    maps = tuple(
        AlgebraMap(base, quotient, [x.rep + d.rep for x, d in zip(variables, row)])
        for row in anchored
    )
    return UniversalSimplex(base, quotient, maps, "difference")


def _tensor_representation(
    base: FpAlgebra, p: int, order: MonomialOrder, cap: int
) -> UniversalSimplex:
    squared = multi_diagonal_ideal(base, p)
    ring, varset, n = base.ring, squared.varset, len(base.varset)
    if base.is_free:  # D~(p, n) and the n variables x_0, after x_s = x_0 + d_s
        quotient = _universal_quotient(ring, varset, squared.generators, order, cap, p, n, n)
    else:
        quotient = FpAlgebra(ring, varset, squared.generators, order, cap)
    variables = Polynomial.variables(varset, ring)
    maps = tuple(
        AlgebraMap(base, quotient, variables[r * n : (r + 1) * n]) for r in range(p + 1)
    )
    return UniversalSimplex(base, quotient, maps, "tensor")


def universal_simplex(
    base: FpAlgebra,
    p: int = 1,
    representation: str = "auto",
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> UniversalSimplex:
    """The universal (p+1)-tuple of mutually neighbouring maps out of `base`.

    The quotient of the (p+1)-fold tensor power by the sum of all pairwise
    squared diagonal ideals.  For a free base algebra the "difference"
    representation rewrites copy r of generator g as g + d_g_r.  At p=1 its
    relations are the products of two displacements, unit monomials, so the
    quotient uses monomial deletion and works over any ring; the other
    presentations need a Groebner basis and raise NonFieldCoefficients over
    a ring that is not a field.  Over a free base with n generators both
    have the Hilbert series of universal_dtilde(p, n) over (1 - t)^n, by
    which buchberger certifies their row-echelon relations and forms no
    S-polynomial (README, "Hilbert series certify the universal bases").
    """
    require_integer("p", p)
    if p < 1:
        raise InvalidArgument("p must be at least 1")
    if representation == "auto":
        representation = "difference" if base.is_free else "tensor"
    if representation == "difference":
        if not base.is_free:
            raise InvalidArgument("the difference representation needs a free base algebra")
        return _difference_representation(base, p, order, degree_cap)
    if representation == "tensor":
        return _tensor_representation(base, p, order, degree_cap)
    raise InvalidArgument(f"unknown representation {representation!r}")


def neighbourhood_of_diagonal(
    base: FpAlgebra,
    representation: str = "auto",
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> UniversalSimplex:
    """The universal neighbouring pair: the two-fold tensor power modulo the
    squared diagonal ideal (the p = 1 simplex)."""
    return universal_simplex(base, 1, representation, order, degree_cap)


def classifying_map(simplex: UniversalSimplex, maps: Sequence[AlgebraMap]) -> AlgebraMap:
    """The unique map out of the simplex algebra hitting the given tuple.

    Requires len(maps) == p + 1, all sharing the simplex base as domain and a
    common codomain.  Construction succeeds exactly when the maps are
    mutually neighbouring: the relations of the simplex algebra turn into
    the products of differences, so IllDefinedMap is raised otherwise.
    """
    if len(maps) != simplex.p + 1:
        raise ArityMismatch(f"{len(maps)} maps for a p={simplex.p} simplex")
    codomain = maps[0].codomain
    for f in maps:
        if f.domain != simplex.base:
            raise DomainMismatch(f"map domain {f.domain!r} is not the simplex base")
        if f.codomain != codomain:
            raise DomainMismatch("maps must share a codomain")
    if simplex.representation == "difference":
        images = list(maps[0].images)
        for r in range(1, simplex.p + 1):
            images.extend(
                maps[r].images[i] - maps[0].images[i]
                for i in range(len(simplex.base.varset))
            )
    else:
        images = [im for f in maps for im in f.images]
    factored = AlgebraMap(simplex.algebra, codomain, images)
    return factored


def adjoin_variables(
    algebra: FpAlgebra, names: Sequence[str]
) -> tuple[FpAlgebra, AlgebraMap]:
    """Freely adjoin new variables (tensor with a polynomial algebra).

    Returns the extended algebra and the inclusion.  Name clashes with
    existing variables are rejected.
    """
    try:
        varset = VarSet(algebra.varset.names + require_names("variable names", names))
    except ValueError as exc:
        raise VarSetMismatch(f"cannot adjoin variables: {exc}") from None
    relations = [
        _embed_poly(r, varset, 0, algebra.ring) for r in algebra.relations
    ]
    extended = FpAlgebra(
        algebra.ring,
        varset,
        relations,
        algebra.order,
        algebra.degree_cap,
    )
    inclusion = AlgebraMap(algebra, extended, extended.generators()[: len(algebra.varset)])
    return extended, inclusion


def pairing_map(f: AlgebraMap, g: AlgebraMap) -> AlgebraMap:
    """The map out of the two-fold tensor power acting as f on copy 0 and as
    g on copy 1 (the coproduct pairing)."""
    if f.domain != g.domain:
        raise DomainMismatch("the two maps must share a domain")
    if f.codomain != g.codomain:
        raise DomainMismatch("the two maps must share a codomain")
    t = _tensor_algebra([f.domain, f.domain])
    return AlgebraMap(t, f.codomain, f.images + g.images)
