"""A number's element is the number times the unit's normal form.

FpAlgebra.element(c) for an int or a Fraction scales the cached unit instead
of reducing the constant polynomial c.  Normal forms are linear, so the two
must agree term for term, value types included, under both engines, over
free algebras, over Z/4 and in the zero ring; and a number the ring cannot
hold must raise the same exception either way.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.algebra import FpAlgebra, free_algebra  # noqa: E402
from nbhd.arith import RingSpec  # noqa: E402
from nbhd.errors import NbhdError  # noqa: E402
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4", "Z/6"))
FIELDS = tuple(RingSpec.parse(name) for name in ("Q", "Z/2", "Z/3", "Z/5"))
# non-monomial relations on x, y: each picks the Groebner engine over a
# field, and the last two generate the whole ring there, a zero ring
GROEBNER_RELATIONS = (
    ("x^2 - y",),
    ("x*y - 1",),
    ("x^2 - y", "x*y - 1"),
    ("x^2 + x*y", "y^2 - x"),
    ("x - 1", "x - 2"),
    ("x*y - 1", "y"),
)


@st.composite
def algebras(draw):
    """A free algebra, a monomial quotient (a corpus Weil pattern or the
    zero ring k[e1..en]/(1)) or a Groebner-presented quotient over a field."""
    kind = draw(st.sampled_from(("free", "weil", "zero", "groebner")))
    if kind == "groebner":
        ring = draw(st.sampled_from(FIELDS))
        return FpAlgebra(ring, ["x", "y"], draw(st.sampled_from(GROEBNER_RELATIONS)))
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0 if kind == "free" else 1, 3))
    names = [f"e{i + 1}" for i in range(n)]
    if kind == "free":
        return free_algebra(ring, names)
    if kind == "zero":
        return FpAlgebra(ring, names, ["1"])
    pattern = draw(st.sampled_from(WEIL_PATTERNS))
    return random_weil_algebra(draw(st.integers(0, 99)), ring, n, pattern)


NUMBERS = st.integers(-12, 12) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _outcome(build):
    """The typed terms of the representative build() returns, or the type
    of the error it raises for a number the ring cannot hold."""
    try:
        rep = build()
    except (TypeError, ValueError) as exc:
        return type(exc)
    return [(exps, type(value), value) for exps, value in rep._terms.items()]


@PROPERTY
@given(algebra=algebras(), value=NUMBERS, cached=st.booleans())
def test_a_number_is_the_normal_form_of_its_constant(algebra, value, cached):
    if cached:
        algebra.one()
    ours = _outcome(lambda: algebra.element(value).rep)
    reference = _outcome(
        lambda: algebra.normal_form(Polynomial.constant(algebra.varset, algebra.ring, value))
    )
    assert ours == reference


def test_both_engines_and_the_zero_ring_are_reached():
    ring = RingSpec.parse("Q")
    assert FpAlgebra(ring, ["x", "y"], GROEBNER_RELATIONS[0]).strategy == "groebner"
    for relations in GROEBNER_RELATIONS[-2:]:
        zero = FpAlgebra(ring, ["x", "y"], relations)
        assert zero.strategy == "groebner" and zero.one().is_zero()
        assert zero.element(Fraction(3, 2)).is_zero()
    zero = FpAlgebra(RingSpec.parse("Z/4"), ["e1"], ["1"])
    assert zero.strategy == "monomial" and zero.element(3).is_zero()


@pytest.mark.parametrize(
    "ring, value",
    [("Z", Fraction(1, 2)), ("Z/4", Fraction(1, 2)), ("Z/6", Fraction(5, 3))],
)
@pytest.mark.parametrize("relations", [(), ("e1^2",), ("1",)])
def test_a_number_outside_the_ring_raises_as_its_constant_does(ring, value, relations):
    # a typed NbhdError (InvalidArgument, still a ValueError), not a bare one
    algebra = FpAlgebra(RingSpec.parse(ring), ["e1"], relations)
    with pytest.raises(NbhdError) as constant:
        Polynomial.constant(algebra.varset, algebra.ring, value)
    with pytest.raises(NbhdError) as element:
        algebra.element(value)
    assert type(element.value) is type(constant.value)
    assert str(element.value) == str(constant.value)
    assert isinstance(element.value, ValueError)
