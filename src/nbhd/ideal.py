"""Ideal membership and normal forms.

Monomial ideals need no division: a normal form deletes the terms a
generator divides, over any coefficient ring, and the divisibility test is
_Divisors.dividing, which the algebra module's product tables call (and
cache) for every monomial quotient; over no relations, as for a free
algebra, it answers 0 at once.  General ideals go through Buchberger's
algorithm, which requires field coefficients unless every generator is a
unit monomial, whose S-polynomials are zero.  The computed basis is the
reduced Groebner basis (monic, auto-reduced), which is unique for a given
ideal and monomial order, so results are deterministic regardless of
generator order.

Division (reduce_full) has one path.  The leading term of every divisor is
read once, when its divisor list is built: buchberger extends its own as
the basis grows and hands it to the GroebnerBasis it returns, the only
way a GroebnerBasis is built.  The polynomial being divided is one mutable
term dict with a heap of its monomials.  Its biggest term is reduced by the
earliest divisor whose leading monomial divides it, found with per-variable
bitsets.  Only that divisor's other terms are subtracted, in place, because
its leading term cancels by construction.  A lead coefficient is inverted
only once, and only for a divisor that is not monic.  The list also keeps
the smallest total degree of its leads: a polynomial of lower total degree
has no term a lead divides, so it is its own remainder, returned at once
with its terms in decreasing order, the order the division emits them; so
is every polynomial when the list is empty.  A basis passed as a sequence
of polynomials must share p's varset and ring; a divisor list buchberger
built for its own varset and ring is not checked again.

Bases have one entry point, buchberger, and its input one path:
_gauss_jordan brings the generators to reduced row-echelon form by
Gauss-Jordan elimination on their coefficients, with no division, and emits
the rows in decreasing order of their leads, straight into the divisor list
the pair loop extends: each row's leading data comes from the lead
elimination chose, so no row is read again.  Each monomial is ranked once,
as an int, so elimination compares ints and no tuples.  The pair loop
starts from that form and skips pairs by Buchberger's product and chain
criteria and pairs of two single-term elements, whose S-polynomial is zero.
The form is flat when all its terms have one total degree.  A flat form to
which the pair loop adds nothing is the reduced basis as it stands; any
other basis is interreduced.  A caller may pass the quotient's Hilbert
series: when the form is flat and its leads have it, no pair is queued
(Traverso's criterion; README, "Hilbert series certify the universal
bases").  Only quadratic leads are checked, by counting the standard
monomials on bitmasks of variables (_standard_counts); any other lead runs
the pair loop.

A total-degree guard aborts runaway computations: DegreeGuardExceeded is
raised, with the offending degree in the message, when an S-polynomial that
buchberger forms, or a term that a division step creates, exceeds the cap.
A certified basis forms no S-polynomial, and elimination creates no
monomial.  A cap is an int, 0 or more, and an order a MonomialOrder; any
other raises InvalidArgument.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .arith import RingSpec
from .errors import (
    DegreeGuardExceeded,
    InvalidArgument,
    NonFieldCoefficients,
    RingMismatch,
    UninterpretableValue,
    VarSetMismatch,
)
from .poly import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
    VarSet,
    mono_degree,
    mono_div,
    mono_lcm,
    mono_mul,
)

DEFAULT_DEGREE_CAP = 24


def _check_order_and_cap(order, degree_cap) -> None:
    """Raise InvalidArgument unless the order is a MonomialOrder and the
    degree cap an int, 0 or more."""
    if not isinstance(order, MonomialOrder):
        raise InvalidArgument(f"monomial order must be a MonomialOrder, got {order!r}")
    if isinstance(degree_cap, bool) or not isinstance(degree_cap, int) or degree_cap < 0:
        raise InvalidArgument(f"degree cap must be a non-negative integer, got {degree_cap!r}")


def _check_alike(g, p) -> None:
    """Raise unless g is a Polynomial over p's varset and ring, p a
    polynomial or an ideal, with the texts Ideal and GroebnerBasis use."""
    if not isinstance(g, Polynomial):
        raise UninterpretableValue(f"expected a polynomial, got {g!r}")
    if g.varset is not p.varset and g.varset != p.varset:
        raise VarSetMismatch(f"{g.varset} vs {p.varset}")
    if g.ring is not p.ring and g.ring != p.ring:
        raise RingMismatch(f"{g.ring} vs {p.ring}")


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal, stored as its nonzero generators."""

    varset: VarSet
    ring: RingSpec
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        kept = []
        for g in self.generators:
            if g.varset is not self.varset and g.varset != self.varset:
                raise VarSetMismatch(f"{g.varset} vs {self.varset}")
            if g.ring is not self.ring and g.ring != self.ring:
                raise RingMismatch(f"{g.ring} vs {self.ring}")
            if not g.is_zero():
                kept.append(g)
        object.__setattr__(self, "generators", tuple(kept))

    def is_monomial(self) -> bool:
        """True when every generator is a single term with a unit coefficient.

        This alone picks the normal-form engine of an FpAlgebra: monomial
        deletion when it holds, a Groebner basis otherwise.
        """
        return all(map(_is_unit_monomial, self.generators))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _is_unit_monomial(g: Polynomial) -> bool:
    return len(g) == 1 and g.ring.is_unit(next(iter(g._terms.values())))


def _lex_rank(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.neg, exps))


def _degrevlex_rank(exps: tuple[int, ...]):
    return (-sum(exps), exps[::-1])


# Heap ranks: the smaller rank is the bigger monomial, so a min-heap pops
# the leading term first.
_RANKS = {MonomialOrder.LEX: _lex_rank, MonomialOrder.DEGREVLEX: _degrevlex_rank}


def _decreasing(monomials: Iterable[tuple[int, ...]], order: MonomialOrder) -> list:
    """The monomials, biggest first; under lex that is the tuples' own
    order reversed, so no rank is formed."""
    if order is MonomialOrder.LEX:
        return sorted(monomials, reverse=True)
    return sorted(monomials, key=_degrevlex_rank)


class _Divisors:
    """Divisor polynomials with their leading data, read once per element.

    rows[i] holds, for polys[i]: the leading exponents, the inverse of the
    leading coefficient (None when it is 1), the support bitmask of the
    leading monomial, the other terms with negated values, and the largest
    total degree among those terms.  excluded[v][x] is the bitset of the
    divisors whose leading exponent in variable v exceeds x, so the divisors
    whose leading monomial divides m are the bits left after removing the
    union of excluded[v][m[v]] over v.  lead_degree is the smallest total
    degree of a lead, infinite while there is none: no lead divides a
    monomial of lower degree.  Every row is added by _push, the one writer
    of the exclusion bitsets and of lead_degree, from a lead its caller
    already knows: append reads a polynomial's other terms for it, and
    _gauss_jordan hands over the rows it has just formed.
    """

    __slots__ = ("order", "polys", "rows", "excluded", "lead_degree")

    def __init__(self, polys: Iterable[Polynomial], order: MonomialOrder, nvars: int):
        self.order = order
        self.polys: list[Polynomial] = []
        self.rows: list[tuple] = []
        self.excluded: list[list[int]] = [[] for _ in range(nvars)]
        self.lead_degree = math.inf
        for g in polys:
            if not g.is_zero():  # zero has no leading term and divides nothing
                self.append(g)

    def append(self, g: Polynomial, exps: tuple[int, ...] | None = None) -> None:
        """Append g, whose leading exponents are exps when already known."""
        ring = g.ring
        if exps is None:
            exps = g.leading(self.order)[0]
        value = g._terms[exps]
        inverse = None if value == ring.one() else ring.invert(value)
        tail = [(e, ring.neg(v)) for e, v in g._terms.items() if e != exps]
        self._push(g, exps, inverse, tail)

    def append_monic(self, p: Polynomial) -> None:
        """Append p made monic, reading its leading term once."""
        exps, value = p.leading(self.order)
        ring = p.ring
        self.append(p if value == ring.one() else p.scale(ring.invert(value)), exps)

    def _push(self, g: Polynomial, lead: tuple[int, ...], inverse, tail: list) -> None:
        """Add g, led by lead, with the inverse of its leading coefficient
        and its other terms negated: the row is completed with its tail's
        degree and its lead's support mask, g's bit is set in the exclusion
        bitsets of the lead's variables, read from its nonzero exponents
        only, and the lead's degree lowers lead_degree when smaller."""
        bit = 1 << len(self.rows)
        mask = 0
        for v in compress(range(len(lead)), lead):
            mask |= 1 << v
            excluded, x = self.excluded[v], lead[v]
            if x > len(excluded):
                excluded.extend([0] * (x - len(excluded)))
            for y in range(x):
                excluded[y] |= bit
        self.lead_degree = min(self.lead_degree, sum(lead))
        tail_degree = max(map(sum, map(operator.itemgetter(0), tail)), default=0)
        self.rows.append((lead, inverse, mask, tail, tail_degree))
        self.polys.append(g)

    def dividing(self, exps: tuple[int, ...]) -> int:
        """Bitset of the divisors whose leading monomial divides exps; 0 at
        once when there are none, as for a free algebra's product table."""
        if not self.rows:
            return 0
        out = 0
        for row, x in zip(self.excluded, exps):
            if x < len(row):
                out |= row[x]
        return ((1 << len(self.rows)) - 1) & ~out


def reduce_full(
    p: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Polynomial:
    """Full remainder of p on division by basis (field coefficients).

    Every term of the result is outside the leading-term ideal of the basis.
    The biggest remaining term is reduced first, always by the earliest
    divisor in the sequence whose leading monomial divides it, so the
    reduction path is deterministic.  The remainder in progress is one term
    dict, changed in place.  DegreeGuardExceeded is raised when a step
    creates a term of total degree above max(degree_cap, degree of p).
    A p of total degree below every lead's, or a basis with no nonzero
    element, divides nothing: p is returned at once, its terms in
    decreasing order as the division emits them.

    basis is an iterable of polynomials over p's varset and ring, and p a
    polynomial (UninterpretableValue, VarSetMismatch or RingMismatch
    otherwise), or a divisor list buchberger built for the same order (a
    GroebnerBasis holds its own), whose leading terms are not read again
    and which is not checked: it was built for its algebra's own varset
    and ring.
    """
    _check_order_and_cap(order, degree_cap)
    if isinstance(basis, _Divisors):
        if basis.order is not order:
            raise InvalidArgument(f"divisors prepared for {basis.order}, not {order}")
        divisors = basis
    else:
        try:
            basis = list(basis)
        except TypeError:
            raise UninterpretableValue(
                f"a basis must be an iterable of polynomials, got {basis!r}"
            ) from None
        for g in (p, *basis):  # p first, as in s_polynomial
            _check_alike(g, p)
        divisors = _Divisors(basis, order, len(p.varset))
    degree = p.total_degree()
    if degree < divisors.lead_degree:
        terms = p._terms
        return Polynomial._raw(p.varset, p.ring, {e: terms[e] for e in _decreasing(terms, order)})
    cap = max(degree_cap, degree)
    ring = p.ring
    mul, add = ring.mul, ring.add
    rank = _RANKS[order]
    rows, dividing = divisors.rows, divisors.dividing
    work = dict(p._terms)
    heap = [(rank(e), e) for e in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], object] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        value = work.pop(m, None)
        if value is None:
            continue  # cancelled, or the second heap entry of a done term
        hits = dividing(m)
        if not hits:
            remainder[m] = value
            continue
        lead, inverse, _, tail, tail_degree = rows[(hits & -hits).bit_length() - 1]
        shift = mono_div(m, lead)
        factor = value if inverse is None else mul(value, inverse)
        # the divisor's leading term cancels m by construction: only its
        # tail is subtracted
        for e, v in tail:
            n = mono_mul(e, shift)
            d = mul(factor, v)
            old = work.get(n)
            if old is None:
                if d:
                    work[n] = d
                    heapq.heappush(heap, (rank(n), n))
            else:
                s = add(old, d)
                if s:
                    work[n] = s
                else:
                    del work[n]
        # every term already present is within the cap, so only a new one
        # can exceed it
        if tail_degree + mono_degree(shift) > cap:
            top = max(map(mono_degree, work), default=0)
            if top > cap:
                raise DegreeGuardExceeded(f"intermediate degree {top} exceeds cap {cap}")
    return Polynomial._raw(p.varset, ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEFAULT_ORDER) -> Polynomial:
    """The classical S-polynomial, cancelling the two leading terms.

    The two scaled leading terms cancel by construction and are never
    formed; a monic input is not rescaled.  f and g are nonzero polynomials
    over one varset and ring: anything else raises UninterpretableValue,
    VarSetMismatch or RingMismatch.
    """
    for h in (f, g):  # f first: its type is checked before g is compared with it
        _check_alike(h, f)
    if not f._terms or not g._terms:
        raise UninterpretableValue("the S-polynomial of a zero polynomial is undefined")
    f_exps, f_value = f.leading(order)
    g_exps, g_value = g.leading(order)
    lcm = mono_lcm(f_exps, g_exps)
    ring = f.ring
    one, zero = ring.one(), ring.zero()
    terms: dict[tuple[int, ...], object] = {}
    for p, lead, value, combine in ((f, f_exps, f_value, ring.add), (g, g_exps, g_value, ring.sub)):
        shift = mono_div(lcm, lead)
        scale = None if value == one else ring.invert(value)
        for exps, v in p._terms.items():
            if exps == lead:
                continue
            n = mono_mul(exps, shift)
            s = combine(terms.get(n, zero), v if scale is None else ring.mul(v, scale))
            if ring.is_zero(s):
                terms.pop(n, None)
            else:
                terms[n] = s
    return Polynomial._raw(f.varset, ring, terms)


def _interreduce(basis: _Divisors, cap: int) -> _Divisors:
    """Minimalize then tail-reduce a monic Groebner basis into the reduced one.

    In a minimal basis no other leading monomial divides an element's lead.
    As the minimal basis is a Groebner basis, dividing each element's tail
    (every term but its lead) by it once gives normal forms; every term met
    is below that element's lead, so the lead stays.  The result is in
    decreasing order of its leads, each its lead followed by the tail's
    remainder in decreasing order.
    """
    order = basis.order
    minimal = _Divisors((), order, len(basis.excluded))
    for i in sorted(range(len(basis.polys)), key=lambda i: order.key(basis.rows[i][0])):
        lead, inverse, _, tail, _ = basis.rows[i]
        if not minimal.dividing(lead):
            minimal._push(basis.polys[i], lead, inverse, tail)
    out = _Divisors((), order, len(basis.excluded))
    for g, row in zip(reversed(minimal.polys), reversed(minimal.rows)):
        lead = row[0]
        tail = Polynomial._raw(g.varset, g.ring, {e: v for e, v in g._terms.items() if e != lead})
        r = reduce_full(tail, minimal, order, max(cap, g.total_degree()))
        out.append(Polynomial._raw(g.varset, g.ring, {lead: g._terms[lead], **r._terms}), lead)
    return out


def _gauss_jordan(gens: Sequence[Polynomial], order: MonomialOrder, nvars: int) -> _Divisors:
    """The reduced row-echelon form of the generators, as a divisor list.

    The columns are the monomials, biggest first under the order, each
    ranked once, by its position among them, so every comparison after that
    is of ints.  One row is kept per pivot, monic, and holding no other
    row's pivot.  A generator subtracts, for each of its own terms that is a
    pivot, that term's coefficient times the pivot row: one pass over its
    terms, which changes no other pivot's coefficient, and none when it
    shares no monomial with an earlier generator, for every row's terms are
    among those.  A nonzero result is made monic at its lead, and that lead
    is eliminated from the rows already kept.  No monomial is created, so no
    degree can rise, and the rows span the generators' ideal.  The rows come
    in decreasing order of their leads, each pushed onto the divisor list
    with the lead elimination chose and its other terms negated, in the one
    pass that emits it.  When no two generators share a monomial, each row
    is its generator made monic, in that generator's term order; otherwise
    each is its lead followed by its other terms in decreasing order.
    """
    out = _Divisors((), order, nvars)
    if not gens:
        return out
    varset, ring = gens[0].varset, gens[0].ring
    mul, sub, neg, zero, one = ring.mul, ring.sub, ring.neg, ring.zero(), ring.one()
    columns: dict[tuple[int, ...], object] = {}
    for g in gens:
        columns.update(g._terms)
    ranked = _decreasing(columns, order)
    rank = dict(zip(ranked, range(len(ranked)))).__getitem__
    rows: dict[tuple[int, ...], dict] = {}  # pivot -> its row's terms
    seen: set[tuple[int, ...]] = set()  # the earlier generators' terms: every row's are among them
    shared = False
    for g in gens:
        work = dict(g._terms)
        if not seen.isdisjoint(work):
            shared = True
            for e, v in g._terms.items():
                row = rows.get(e)
                if row is None:
                    continue
                for n, c in row.items():
                    s = sub(work.get(n, zero), mul(v, c))
                    if s:
                        work[n] = s
                    else:
                        del work[n]
        if work:
            lead = min(work, key=rank)
            value = work[lead]
            if value != one:
                inverse = ring.invert(value)
                work = {e: mul(v, inverse) for e, v in work.items()}
            for row in rows.values() if lead in seen else ():
                c = row.get(lead)
                if c is None:
                    continue
                for n, v in work.items():
                    s = sub(row.get(n, zero), mul(c, v))
                    if s:
                        row[n] = s
                    else:
                        del row[n]
            rows[lead] = work
        seen.update(g._terms)
    for lead in sorted(rows, key=rank):
        row = rows[lead]
        if shared:
            row = {e: row[e] for e in sorted(row, key=rank)}
        tail = [(e, neg(v)) for e, v in row.items() if e != lead]
        out._push(Polynomial._raw(varset, ring, row), lead, None, tail)
    return out


def _standard_counts(masks: Sequence[int], bound: int) -> Iterator[int]:
    """The number of standard monomials in the variables of the mask
    `bound` in each degree 0, 1, 2, ..., without end, for quadratic leads
    in them, given by their support masks.

    Each standard monomial is met once, as one of the degree below times a
    variable no smaller than its last.  The partners of a variable v are
    the u for which x_u*x_v is a lead (u = v when x_v^2 is one: a quadratic
    lead's mask names its one or two variables), and for a standard m,
    m*x_v is standard exactly when v is no partner of a variable of m.  So
    a standard monomial is carried as two ints, the bitmask of its
    variables' partners and its last variable, and the next degree is read
    off the zero bits of the masks: no exponent tuple is formed and no
    divisibility is tested.
    """
    partners = [0] * bound.bit_length()  # bit v of a mask is variable v
    for mask in masks:
        u, v = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        partners[u] |= 1 << v
        partners[v] |= 1 << u
    layer = [(0, 0)]  # the monomial 1
    while True:
        yield len(layer)
        below, layer = layer, []
        for blocked, last in below:
            open_ = (bound >> last << last) & ~blocked
            while open_:
                low = open_ & -open_
                v = low.bit_length() - 1
                layer.append((blocked | partners[v], v))
                open_ ^= low


def _leads_have_series(divisors: _Divisors, hilbert: tuple[Sequence[int], int]) -> bool:
    """Whether k[x]/<leads> has the series sum(numerator[k] t^k) / (1 - t)^free.

    It has when exactly `free` variables occur in no lead and the standard
    monomials in the others number numerator[k] in each degree k, counted
    by _standard_counts up to the first degree that differs.  Only
    quadratic leads are counted: a lead of another degree declines (False),
    and the pair loop runs.
    """
    numerator, free = hilbert
    masks = [row[2] for row in divisors.rows]
    bound = 0  # the variables in leads
    for mask in masks:
        bound |= mask
    if len(divisors.excluded) - bound.bit_count() != free or any(
        sum(row[0]) != 2 for row in divisors.rows
    ):
        return False
    counts = _standard_counts(masks, bound)
    return all(next(counts) == expected for expected in numerator) and not next(counts)


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    *,
    hilbert: tuple[Sequence[int], int] | None = None,
) -> "GroebnerBasis":
    """Compute the reduced Groebner basis of the ideal.

    The pair loop starts from the generators in reduced row-echelon form,
    found by Gauss-Jordan elimination on their coefficients
    (_gauss_jordan), with no division: the generators sharing a leading
    monomial are eliminated against each other before any pair is formed,
    and a zero row never forms one.  The form is flat when all its terms
    have one total degree, as for the universal simplices over a free
    base; every monomial of the generators survives in some row, so that is
    the same as generators of one total degree.

    hilbert = (numerator, free) vouches that k[x]/ideal has the Hilbert
    series sum(numerator[k] t^k) / (1 - t)^free.  If the form is flat and
    its leads are quadratic and have that series, they generate the initial
    ideal, so no pair is queued (Traverso, "Hilbert functions and the
    Buchberger algorithm", J. Symbolic Comput. 22, 1996).  A series the
    leads do not match, leads of another degree, or a form that is not flat
    run the pair loop and never change the result.

    Pairs are selected in increasing (lcm degree, creation index) order.
    Two kinds of pair are never queued: one whose leading monomials are
    coprime (Buchberger's product criterion), and one of two single-term
    elements, whose S-polynomial is zero by construction (the single-term
    criterion).  A selected pair (i, j) is skipped when some other
    element k has a leading monomial dividing lcm(i, j) and neither (i, k)
    nor (j, k) is still queued (Buchberger's chain criterion).  Every other
    pair has its S-polynomial formed and fully reduced by the basis so far;
    a nonzero remainder is made monic and joins the basis.  The degree
    guard applies to every S-polynomial formed and to every division.  If
    the form is flat and nothing joined, it is already the reduced basis,
    in its final order: a lead divides a term of its own degree only by
    being it.  Otherwise _interreduce reduces the basis.  It is returned in
    decreasing order of the leads, with the divisor list whose leading data
    was read as it was built, and by uniqueness of the reduced basis it
    does not depend on these choices.

    Over a ring that is not a field, only an ideal of unit monomials is
    accepted (NonFieldCoefficients otherwise, naming the generators that are
    not unit monomials): making its generators monic inverts units alone,
    and the S-polynomial of two monic monomials is zero.
    """
    _check_order_and_cap(order, degree_cap)
    if not ideal.ring.is_field and not ideal.is_monomial():
        offending = " ; ".join(str(g) for g in ideal.generators if not _is_unit_monomial(g))
        raise NonFieldCoefficients(
            f"relations {offending} are not unit monomials, so they need "
            f"a Groebner basis and field coefficients, got {ideal.ring}"
        )
    basis = _gauss_jordan(ideal.generators, order, len(ideal.varset))
    rows, polys = basis.rows, basis.polys
    pairs: list[tuple[int, int, int]] = []
    queued: set[tuple[int, int]] = set()

    def queue(k: int) -> None:
        lead, _, mask, tail, _ = rows[k]
        for i in range(k):
            if rows[i][2] & mask and (tail or rows[i][3]):
                heapq.heappush(pairs, (mono_degree(mono_lcm(rows[i][0], lead)), i, k))
                queued.add((i, k))

    def chained(i: int, j: int) -> bool:
        hits = basis.dividing(mono_lcm(rows[i][0], rows[j][0])) & ~(1 << i | 1 << j)
        while hits:
            low = hits & -hits
            k = low.bit_length() - 1
            hits ^= low
            if (min(i, k), max(i, k)) not in queued and (min(j, k), max(j, k)) not in queued:
                return True
        return False

    echelon = len(rows)
    flat = len({sum(e) for g in polys for e in g._terms}) < 2
    if hilbert is None or not flat or not _leads_have_series(basis, hilbert):
        for k in range(echelon):
            queue(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        queued.discard((i, j))
        if chained(i, j):
            continue
        s = s_polynomial(polys[i], polys[j], order)
        if s.total_degree() > degree_cap:
            raise DegreeGuardExceeded(
                f"intermediate degree {s.total_degree()} exceeds cap {degree_cap}"
            )
        r = reduce_full(s, basis, order, degree_cap)
        if not r.is_zero():
            basis.append_monic(r)
            queue(len(rows) - 1)
    reduced = basis if flat and len(rows) == echelon else _interreduce(basis, degree_cap)
    return GroebnerBasis(ideal.varset, ideal.ring, reduced, degree_cap)


class GroebnerBasis:
    """A reduced Groebner basis; normal forms against it are canonical.

    Only buchberger builds one, from the divisor list it computed: order
    and basis are read from that list, whose leading data is not read
    again.
    """

    __slots__ = ("varset", "ring", "order", "basis", "degree_cap", "_divisors")

    def __init__(self, varset: VarSet, ring: RingSpec, divisors: _Divisors, degree_cap: int):
        self.varset = varset
        self.ring = ring
        self.order = divisors.order
        self.basis = tuple(divisors.polys)
        self.degree_cap = degree_cap
        self._divisors = divisors

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.varset is not self.varset and p.varset != self.varset:
            raise VarSetMismatch(f"{p.varset} vs {self.varset}")
        if p.ring is not self.ring and p.ring != self.ring:
            raise RingMismatch(f"{p.ring} vs {self.ring}")
        return reduce_full(p, self._divisors, self.order, self.degree_cap)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def __iter__(self):
        return iter(self.basis)

    def __len__(self) -> int:
        return len(self.basis)


def contains(
    ideal: Ideal,
    p: Polynomial,
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> bool:
    """Ideal membership test, through the reduced Groebner basis.

    An ideal of unit monomials is decided over any ring (its basis is its
    minimal generators); everything else needs field coefficients.
    """
    _check_alike(p, ideal)
    return buchberger(ideal, order, degree_cap).contains(p)
