"""Property tests for the reduced row-echelon form of generators.

_gauss_jordan finds that form by Gauss-Jordan elimination on the
coefficients.  For generators of one total degree the oracle finds it by
division, with reduce_full: each generator is divided by the monic
remainders kept so far, and then each kept remainder's tail (every term
but its lead) by all of them.  Generators that share no monomial are only
made monic.  Both must give the same rows, in decreasing order of their
leads, each with its terms in the same dict order.  For generators of
several degrees the oracle is a dense reduced row-echelon form of their
coefficient matrix, whose columns are the monomials, biggest first.

_gauss_jordan pushes each row onto its divisor list as it emits it: that
list must be the one _Divisors.append builds from the same polynomials,
with every row, exclusion bitset and the smallest lead degree also rebuilt
here from the leads, and its divisibility test must agree with a
brute-force scan of the leads.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.ideal import _Divisors, _gauss_jordan, reduce_full  # noqa: E402
from nbhd.poly import MonomialOrder, Polynomial, VarSet  # noqa: E402

XYZ = VarSet(("X", "Y", "Z"))
RINGS = (QQ, RingSpec.modular(2), RingSpec.modular(3), RingSpec.modular(5))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _monic(p, order):
    return p.scale(p.ring.invert(p.leading(order)[1]))


def divided_echelon(gens, order):
    """The reduced row-echelon form of gens, found by division, in
    decreasing order of the leads."""
    monomials = [e for g in gens for e in g._terms]
    if len(set(monomials)) == len(monomials):
        return _by_lead([_monic(g, order) for g in gens], order)
    kept = []
    for g in gens:
        r = reduce_full(g, kept, order)
        if not r.is_zero():
            kept.append(_monic(r, order))
    rows = []
    for g in kept:
        lead, value = g.leading(order)
        tail = Polynomial(XYZ, g.ring, {e: v for e, v in g._terms.items() if e != lead})
        rows.append(Polynomial(XYZ, g.ring, {lead: value, **reduce_full(tail, kept, order)._terms}))
    return _by_lead(rows, order)


def _by_lead(rows, order):
    return sorted(rows, key=lambda g: order.key(g.leading(order)[0]), reverse=True)


def _draw_generators(draw, ring, columns):
    """Nonzero generators on the monomials `columns`, sharing a few, with
    copies, multiples and sums of each other mixed in; or generators on
    disjoint supports.  Terms come in a drawn order."""
    if ring.kind == "Q":
        nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    else:
        nonzero = st.integers(1, ring.modulus - 1)

    def generator(support):
        return Polynomial(XYZ, ring, [(e, draw(nonzero)) for e in support])

    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, len(columns)), max_size=3)))
        bounds = [0, *cuts, len(columns)]
        return [generator(columns[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]
    support = st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True)
    gens = [generator(draw(support)) for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 4))):
        i, j = (draw(st.integers(0, len(gens) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(("copy", "multiple", "sum")))
        if kind == "copy":
            new = gens[i]
        elif kind == "multiple":
            new = gens[i].scale(draw(nonzero))
        else:
            new = gens[i].scale(draw(nonzero)) + gens[j].scale(draw(nonzero))
        if not new.is_zero():
            gens.insert(draw(st.integers(0, len(gens))), new)
    return gens


@st.composite
def one_degree_generators(draw):
    """Generators whose terms share one total degree (_draw_generators)."""
    ring = draw(st.sampled_from(RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    degree = draw(st.integers(0, 3))
    monomials = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    columns = draw(st.permutations(monomials))[: draw(st.integers(1, 6))]
    return _draw_generators(draw, ring, columns), order


@PROPERTY
@given(one_degree_generators())
def test_elimination_gives_the_rows_division_gives(problem):
    gens, order = problem
    expected = divided_echelon(gens, order)
    echelon = _gauss_jordan(gens, order, len(XYZ))
    assert [list(g._terms.items()) for g in echelon.polys] == [
        list(g._terms.items()) for g in expected
    ]
    assert [row[0] for row in echelon.rows] == [g.leading(order)[0] for g in expected]


def dense_echelon(gens, order):
    """The reduced row-echelon form of the coefficient matrix of gens, whose
    columns are their monomials, biggest first under the order: one term
    dict per nonzero row, top row first, its terms in column order."""
    modulus = None if gens[0].ring.kind == "Q" else gens[0].ring.modulus

    def norm(x):
        return x if modulus is None else x % modulus

    def inverse(x):
        return 1 / x if modulus is None else pow(x, -1, modulus)

    columns = sorted({e for g in gens for e in g._terms}, key=order.key, reverse=True)
    lift = Fraction if modulus is None else int  # over Q, 1 / x needs a Fraction
    matrix = [[lift(g._terms.get(e, 0)) for e in columns] for g in gens]
    top = 0
    for c in range(len(columns)):
        pivot = next((r for r in range(top, len(matrix)) if matrix[r][c]), None)
        if pivot is None:
            continue
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        scale = inverse(matrix[top][c])
        matrix[top] = [norm(x * scale) for x in matrix[top]]
        for r, row in enumerate(matrix):
            if r != top and row[c]:
                factor = row[c]
                matrix[r] = [norm(x - factor * y) for x, y in zip(row, matrix[top])]
        top += 1
    return [{e: x for e, x in zip(columns, row) if x} for row in matrix[:top]]


@st.composite
def several_degree_generators(draw):
    """Generators whose terms have at least two total degrees, 0 to 3
    (_draw_generators)."""
    ring = draw(st.sampled_from(RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    monomials = [e for e in product(range(4), repeat=3) if sum(e) <= 3]
    columns = draw(st.permutations(monomials))[: draw(st.integers(2, 7))]
    gens = _draw_generators(draw, ring, columns)
    hypothesis.assume(len({sum(e) for g in gens for e in g._terms}) > 1)
    return gens, order


@PROPERTY
@given(several_degree_generators())
def test_elimination_of_several_degrees_gives_the_dense_form(problem):
    gens, order = problem
    expected = dense_echelon(gens, order)
    echelon = _gauss_jordan(gens, order, len(XYZ))
    # the rows, top row first, and their leads: each row's first column
    assert [g._terms for g in echelon.polys] == expected
    assert [row[0] for row in echelon.rows] == [next(iter(row)) for row in expected]
    assert [row[0] for row in echelon.rows] == [g.leading(order)[0] for g in echelon.polys]
    monomials = [e for g in gens for e in g._terms]
    if len(set(monomials)) < len(monomials):  # a shared monomial: terms in decreasing order
        assert [list(g._terms) for g in echelon.polys] == [list(row) for row in expected]


def expected_row(g, order):
    """The divisor row of g, read here from g alone: its leading exponents,
    the inverse of its leading coefficient (None for 1), the support mask of
    its lead, its other terms negated in dict order and their top degree."""
    lead, value = g.leading(order)
    ring = g.ring
    tail = [(e, ring.neg(v)) for e, v in g._terms.items() if e != lead]
    inverse = None if value == ring.one() else ring.invert(value)
    mask = sum(1 << v for v, x in enumerate(lead) if x)
    return lead, inverse, mask, tail, max((sum(e) for e, _ in tail), default=0)


def expected_excluded(leads, nvars):
    """excluded[v][x]: the bitset of the leads whose exponent in variable v
    exceeds x, for x below the largest such exponent."""
    return [
        [
            sum(1 << i for i, lead in enumerate(leads) if lead[v] > x)
            for x in range(max((lead[v] for lead in leads), default=0))
        ]
        for v in range(nvars)
    ]


def divides(lead, exps):
    return all(a <= b for a, b in zip(lead, exps))


@PROPERTY
@given(st.one_of(one_degree_generators(), several_degree_generators()), st.data())
def test_the_one_pass_list_is_the_list_append_builds(problem, data):
    gens, order = problem
    echelon = _gauss_jordan(gens, order, len(XYZ))
    appended = _Divisors((), order, len(XYZ))
    for g in echelon.polys:
        appended.append(g)
    assert [list(g._terms.items()) for g in echelon.polys] == [
        list(g._terms.items()) for g in appended.polys
    ]
    assert echelon.rows == appended.rows == [expected_row(g, order) for g in echelon.polys]
    leads = [row[0] for row in echelon.rows]
    assert echelon.excluded == appended.excluded == expected_excluded(leads, len(XYZ))
    least = min((sum(lead) for lead in leads), default=math.inf)
    assert echelon.lead_degree == appended.lead_degree == least
    # exponents up to 5 lie above every lead, whose exponents are at most 3
    for exps in data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=8)):
        expected = sum(1 << i for i, lead in enumerate(leads) if divides(lead, exps))
        assert echelon.dividing(exps) == appended.dividing(exps) == expected


@PROPERTY
@given(st.tuples(*[st.integers(0, 5)] * 3), st.sampled_from(list(MonomialOrder)))
def test_an_empty_divisor_list_divides_nothing(exps, order):
    assert _Divisors((), order, len(XYZ)).dividing(exps) == 0
    assert _gauss_jordan([], order, len(XYZ)).dividing(exps) == 0
