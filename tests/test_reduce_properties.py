"""Property tests for reduce_full against a textbook division.

The oracle divides the way the library always has: take the leading term of
what is left, reduce it by the earliest basis element whose leading monomial
divides it, otherwise move it to the remainder.  It works on whole
polynomials, records the quotients and the total degree of what is left
before every step, and shares no code with reduce_full.  Its remainder
gets each term as the division reaches it, biggest first, so its dict
order is the order reduce_full must emit too.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.errors import DegreeGuardExceeded  # noqa: E402
from nbhd.ideal import _Divisors, reduce_full  # noqa: E402
from nbhd.poly import MonomialOrder, Polynomial, VarSet  # noqa: E402

VARSETS = (VarSet(("X", "Y")), VarSet(("X", "Y", "Z")))
RINGS = (QQ, RingSpec.modular(5))
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def textbook_division(p, basis, order):
    """(quotients, remainder, degrees) of the earliest-divisor division;
    degrees[k] is the total degree of what is left before step k."""
    ring, varset = p.ring, p.varset
    quotients = [Polynomial.zero(varset, ring) for _ in basis]
    remainder = Polynomial.zero(varset, ring)
    work, degrees = p, []
    while not work.is_zero():
        degrees.append(work.total_degree())
        exps, value = work.leading(order)
        for i, g in enumerate(basis):
            g_exps, g_value = g.leading(order)
            if _divides(g_exps, exps):
                shift = tuple(x - y for x, y in zip(exps, g_exps))
                term = Polynomial(varset, ring, {shift: ring.mul(value, ring.invert(g_value))})
                quotients[i] = quotients[i] + term
                work = work - term * g
                break
        else:
            lead = Polynomial(varset, ring, {exps: value})
            remainder = remainder + lead
            work = work - lead
    return quotients, remainder, degrees


def _polynomials(varset, ring, max_terms, top):
    if ring.kind == "Q":
        coefficient = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    else:
        coefficient = st.integers(0, ring.modulus - 1)
    exponents = st.tuples(*[st.integers(0, top)] * len(varset))
    terms = st.lists(st.tuples(exponents, coefficient), max_size=max_terms)
    return terms.map(lambda ts: Polynomial(varset, ring, ts))


@st.composite
def divisions(draw):
    varset = draw(st.sampled_from(VARSETS))
    ring = draw(st.sampled_from(RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    divisor = _polynomials(varset, ring, 3, 2).filter(lambda g: not g.is_zero())
    basis = draw(st.lists(divisor, min_size=1, max_size=3))
    p = draw(_polynomials(varset, ring, 6, 3))
    return p, basis, order


@PROPERTY
@given(divisions())
def test_remainder_terms_avoid_every_basis_lead(problem):
    p, basis, order = problem
    leads = [g.leading(order)[0] for g in basis]
    r = reduce_full(p, basis, order)
    assert not any(_divides(lead, exps) for exps in r._terms for lead in leads)


@PROPERTY
@given(divisions())
def test_reduce_full_is_idempotent(problem):
    p, basis, order = problem
    r = reduce_full(p, basis, order)
    assert reduce_full(r, basis, order) == r


@PROPERTY
@given(divisions())
def test_remainder_matches_textbook_division_and_differs_by_an_ideal_element(problem):
    p, basis, order = problem
    quotients, expected, _ = textbook_division(p, basis, order)
    r = reduce_full(p, basis, order)
    assert r == expected
    combination = Polynomial.zero(p.varset, p.ring)
    for q, g in zip(quotients, basis):
        combination = combination + q * g
    assert p - r == combination


@st.composite
def growing_divisions(draw):
    """Lex divisions by divisors like X - Y^3, whose other terms have a
    smaller X exponent but may have a larger total degree than the leading
    term, so the degree of what is left can grow while dividing."""
    varset = draw(st.sampled_from(VARSETS))
    ring = draw(st.sampled_from(RINGS))
    if ring.kind == "Q":
        nonzero = st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(3)])
    else:
        nonzero = st.integers(1, ring.modulus - 1)
    rest = len(varset) - 1
    basis = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(1, 2))
        lead = (a,) + tuple(draw(st.lists(st.integers(0, 1), min_size=rest, max_size=rest)))
        terms = [(lead, draw(nonzero))]
        for _ in range(draw(st.integers(1, 2))):
            low = (draw(st.integers(0, a - 1)),)
            others = draw(st.lists(st.integers(0, 3), min_size=rest, max_size=rest))
            terms.append((low + tuple(others), draw(nonzero)))
        basis.append(Polynomial(varset, ring, terms))
    p = draw(_polynomials(varset, ring, 4, 3))
    return p, basis, MonomialOrder.LEX


@PROPERTY
@given(st.one_of(divisions(), growing_divisions()), st.integers(0, 2))
def test_degree_guard_trips_exactly_when_the_textbook_division_exceeds_it(problem, above):
    p, basis, order = problem
    _, expected, degrees = textbook_division(p, basis, order)
    cap = p.total_degree() + above
    over = [d for d in degrees if d > cap]
    if over:
        with pytest.raises(DegreeGuardExceeded, match=f"intermediate degree {over[0]} "):
            reduce_full(p, basis, order, cap)
    else:
        assert reduce_full(p, basis, order, cap) == expected


@st.composite
def lead_degree_divisions(draw):
    """p and up to three divisors whose leads have total degree deg p or
    more: a lead is a monomial of degree deg p, often a top-degree term of
    p, raised by 0 to 2 in drawn variables, and the divisor's other terms
    are below it in the order.  A lead of degree deg p may divide a term of
    p; no lead of higher degree can."""
    varset = draw(st.sampled_from(VARSETS))
    ring = draw(st.sampled_from(RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    p = draw(_polynomials(varset, ring, 6, 3))
    degree = p.total_degree()
    tops = [e for e in p._terms if sum(e) == degree]
    variable = st.integers(0, len(varset) - 1)
    terms = _polynomials(varset, ring, 3, 3)
    basis = []
    for _ in range(draw(st.integers(0, 3))):
        if tops and draw(st.booleans()):
            lead = list(draw(st.sampled_from(tops)))
        else:
            lead = [0] * len(varset)
            for _ in range(degree):
                lead[draw(variable)] += 1
        for _ in range(draw(st.integers(0, 2))):
            lead[draw(variable)] += 1
        lead = tuple(lead)
        below = {e: v for e, v in draw(terms)._terms.items() if order.key(e) < order.key(lead)}
        value = draw(st.sampled_from([1, 2, 3]))  # nonzero in Q and Z/5
        basis.append(Polynomial(varset, ring, {lead: value, **below}))
    return p, basis, order


@PROPERTY
@given(lead_degree_divisions(), st.booleans())
def test_a_polynomial_below_every_lead_degree_is_its_own_remainder_biggest_term_first(
    problem, prepared
):
    p, basis, order = problem
    divisors = _Divisors(basis, order, len(p.varset)) if prepared else basis
    _, expected, _ = textbook_division(p, basis, order)
    r = reduce_full(p, divisors, order)
    assert list(r._terms.items()) == list(expected._terms.items())
    if all(sum(g.leading(order)[0]) > p.total_degree() for g in basis):
        decreasing = sorted(p._terms.items(), key=lambda t: order.key(t[0]), reverse=True)
        assert list(r._terms.items()) == decreasing
