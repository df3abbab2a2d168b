"""Property and counting tests for the zero and single-term fast paths.

An element sum or difference with a zero operand is the other operand (or
its negative), a product with a zero operand is zero, and a product of one
term by one term takes one product-table lookup and one coefficient
product.  Each must give the normal form of what the free ring gives, over
Weil algebras and unit-monomial quotients of Q, Z, Z/2, Z/3 and Z/4, where
2 * 2 = 0; and a zero operand must cost no coefficient operation.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.algebra import FpAlgebra, free_algebra  # noqa: E402
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.poly import Polynomial, VarSet  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4"))
Z4 = RingSpec.parse("Z/4")


def _coefficients(ring, units=False):
    if ring.kind == "Q":
        numerator = st.integers(-5, 5).filter(bool) if units else st.integers(-5, 5)
        return st.builds(Fraction, numerator, st.integers(1, 4))
    if ring.kind == "Z":
        return st.sampled_from((-1, 1)) if units else st.integers(-3, 3)
    if units:
        return st.sampled_from([u for u in range(1, ring.modulus) if ring.is_unit(u)])
    return st.integers(0, ring.modulus - 1)


@st.composite
def algebras(draw):
    """A random_weil_algebra, or a quotient by unit monomials, on e1..en."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(WEIL_PATTERNS))
        return random_weil_algebra(draw(st.integers(0, 999)), ring, n, pattern)
    varset = VarSet(tuple(f"e{i + 1}" for i in range(n)))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    relations = draw(st.lists(st.tuples(exps, _coefficients(ring, units=True)), max_size=3))
    return FpAlgebra(ring, varset, [Polynomial(varset, ring, [t]) for t in relations])


def _elements(algebra, max_terms):
    n = len(algebra.varset)
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), _coefficients(algebra.ring))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: algebra.element(Polynomial(algebra.varset, algebra.ring, terms))
    )


@st.composite
def cases(draw):
    """An algebra, an element x and two elements of at most one term."""
    algebra = draw(algebras())
    x, a, b = (draw(_elements(algebra, size)) for size in (4, 1, 1))
    return algebra, x, a, b


def _free_sum(algebra, p, q, subtract=False):
    """The normal form of p + q or p - q, summed by the Polynomial constructor."""
    ring = algebra.ring
    second = [(e, ring.neg(v) if subtract else v) for e, v in q._terms.items()]
    return algebra.normal_form(Polynomial(algebra.varset, ring, [*p._terms.items(), *second]))


def _free_product(algebra, p, q):
    return algebra.normal_form(p * q)


@PROPERTY
@given(cases())
def test_zero_and_single_term_operands_give_the_free_normal_form(case):
    algebra, x, a, b = case
    zero = algebra.zero()
    expected = [
        (x + zero, _free_sum(algebra, x.rep, zero.rep)),
        (zero + x, _free_sum(algebra, zero.rep, x.rep)),
        (x - zero, _free_sum(algebra, x.rep, zero.rep, subtract=True)),
        (zero - x, _free_sum(algebra, zero.rep, x.rep, subtract=True)),
        (x * zero, _free_product(algebra, x.rep, zero.rep)),
        (zero * x, _free_product(algebra, zero.rep, x.rep)),
        (x + 0, x.rep),
        (0 + x, x.rep),
        (0 - x, _free_sum(algebra, zero.rep, x.rep, subtract=True)),
        (x * 0, zero.rep),
        (a * b, _free_product(algebra, a.rep, b.rep)),
        (b * a, _free_product(algebra, b.rep, a.rep)),
        (a * x, _free_product(algebra, a.rep, x.rep)),
    ]
    for got, want in expected:
        assert got.parent is algebra
        assert got.rep == want
        assert algebra.normal_form(got.rep) == got.rep


def test_single_term_products_that_vanish():
    weil = FpAlgebra(Z4, ("e1", "e2"), ["e1^2", "e2^2"])
    # the exponent sum survives, but 2 * 2 = 0 over Z/4
    a, b = weil.element("2*e1"), weil.element("2*e2")
    assert (a * b).is_zero() and weil.normal_form(a.rep * b.rep).is_zero()
    assert str(weil.element("3*e1") * weil.element("3*e2")) == "e1*e2"
    # a relation divides the exponent sum: x*y times x is x^2*y
    A = FpAlgebra(QQ, ("x", "y"), ["x^2*y"])
    xy, x = A.element("2*x*y"), A.element("3*x")
    assert (xy * x).is_zero() and (x * xy).is_zero()
    assert A.normal_form(xy.rep * x.rep).is_zero()
    assert str(x * x) == "9*x^2"


def _count_operations(monkeypatch):
    counts = {"add": 0, "sub": 0, "mul": 0}
    for op in counts:

        def counted(self, x, y, _op=op, _original=getattr(RingSpec, op)):
            counts[_op] += 1
            return _original(self, x, y)

        monkeypatch.setattr(RingSpec, op, counted)

    def seen(compute):
        before = dict(counts)
        compute()
        return {op: counts[op] - before[op] for op in counts}

    return seen


@pytest.mark.parametrize("name", ["Q", "Z", "Z/4"])
def test_zero_operands_and_single_terms_cost_the_fewest_operations(monkeypatch, name):
    ring = RingSpec.parse(name)
    weil = FpAlgebra(ring, ("e1", "e2"), ["e1^2", "e2^2"])
    free = free_algebra(ring, ("x", "y"))
    x, zero = weil.element("1 + 3*e1 + e1*e2"), weil.zero()
    p, empty = free.element("x^2 + 3*y").rep, Polynomial.zero(free.varset, ring)
    e1, e2, three_e2 = weil.element("e1"), weil.element("e2"), weil.element("3*e2")
    x1, y1 = free.element("3*x"), free.element("y")
    seen = _count_operations(monkeypatch)
    nothing = {"add": 0, "sub": 0, "mul": 0}
    for compute in (
        lambda: x + zero,
        lambda: zero + x,
        lambda: x - zero,
        lambda: zero - x,
        lambda: x * zero,
        lambda: zero * x,
        lambda: weil._product(x.rep, zero.rep),
        lambda: p + empty,
        lambda: empty + p,
        lambda: p - empty,
        lambda: empty - p,
        lambda: p * empty,
    ):
        assert seen(compute) == nothing
    one_product = {"add": 0, "sub": 0, "mul": 1}
    assert seen(lambda: e1 * three_e2) == one_product
    assert seen(lambda: x1 * y1) == one_product  # a free algebra, no table
    assert seen(lambda: e2 * three_e2) == nothing  # e2^2 is a relation
