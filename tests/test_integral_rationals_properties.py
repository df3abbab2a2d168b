"""Property tests for integral rationals as ints and for Buchberger's input.

Over Q a raw coefficient is an int when it is integral and a Fraction with
denominator above 1 otherwise; every operation of the ring must keep that
form and agree with plain Fraction arithmetic, also when a sum or product of
non-integers comes out integral.  buchberger row-reduces its generators
before forming pairs; the reduced basis is unique, so reordering or
rescaling the generators must not change it.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.ideal import Ideal, buchberger  # noqa: E402
from nbhd.poly import MonomialOrder, Polynomial, VarSet  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
Z5 = RingSpec.modular(5)
XY = VarSet(("X", "Y"))

rationals = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(max_denominator=60),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**12),
)


@st.composite
def rational_pairs(draw):
    """(x, y), independent or built so that x + y, x - y or x * y is an int."""
    x = draw(rationals)
    k = draw(st.integers(-9, 9))
    how = draw(st.sampled_from(("free", "sum", "difference", "product")))
    if how == "sum":
        return x, k - Fraction(x)
    if how == "difference":
        return x, Fraction(x) - k
    if how == "product" and x:
        return x, k / Fraction(x)
    return x, draw(rationals)


def _canonical(value) -> bool:
    if value.__class__ is int:
        return True
    return value.__class__ is Fraction and value.denominator > 1


@PROPERTY
@given(rational_pairs())
def test_rational_kernel_matches_fraction_arithmetic(pair):
    x, y = pair
    a, b = QQ.normalize(x), QQ.normalize(y)
    fx, fy = Fraction(x), Fraction(y)
    results = [
        (a, fx),
        (b, fy),
        (QQ.add(a, b), fx + fy),
        (QQ.sub(a, b), fx - fy),
        (QQ.mul(a, b), fx * fy),
        (QQ.neg(a), -fx),
    ]
    if fx:
        results.append((QQ.invert(a), 1 / fx))
    for got, want in results:
        assert got == want
        assert _canonical(got), f"{got!r} is not canonical"


def _coefficients(ring):
    if ring is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.integers(0, ring.modulus - 1)


@st.composite
def generator_sets(draw):
    """A small ideal of mixed-degree, mostly non-homogeneous generators,
    with a permutation of them and a nonzero scalar for each."""
    ring = draw(st.sampled_from((QQ, Z5)))
    order = draw(st.sampled_from(list(MonomialOrder)))
    term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), _coefficients(ring))
    polys = st.lists(term, min_size=1, max_size=3).map(lambda ts: Polynomial(XY, ring, ts))
    gens = draw(st.lists(polys.filter(bool), min_size=1, max_size=4))
    order_of = draw(st.permutations(range(len(gens))))
    nonzero = _coefficients(ring).filter(bool)
    scalars = draw(st.lists(nonzero, min_size=len(gens), max_size=len(gens)))
    return ring, order, gens, order_of, scalars


@PROPERTY
@given(generator_sets())
def test_basis_ignores_generator_order_and_scale(case):
    ring, order, gens, order_of, scalars = case
    reference = buchberger(Ideal(XY, ring, tuple(gens)), order).basis
    moved = tuple(gens[i].scale(c) for i, c in zip(order_of, scalars))
    assert buchberger(Ideal(XY, ring, moved), order).basis == reference
