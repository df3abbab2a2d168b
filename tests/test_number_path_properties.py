"""Weights and generators read without element().

CoefficientVector.affine reads a tail of exact ints and Fractions in ring
arithmetic and builds each weight through FpAlgebra._number, the helper
FpAlgebra.element uses for a number, so its entries must be the element
path's, term for term and in the same dict order, and a value the ring
cannot hold must raise what element() raises.  FpAlgebra.generator reads
the normal forms of the variables from the _gens slot, which its first call
fills: it must give what element(Polynomial.variable(...)) gives, raise the
same typed errors for the indices that path refuses, and a second call
forms no normal form.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.algebra import FpAlgebra, free_algebra  # noqa: E402
from nbhd.arith import RingSpec  # noqa: E402
from nbhd.errors import NbhdError  # noqa: E402
from nbhd.neighbour import CoefficientVector  # noqa: E402
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/4", "Z/6"))


@st.composite
def algebras(draw):
    """A free algebra, a corpus Weil pattern or the zero ring (relation 1)
    on e1..en, over Q, Z, Z/4 or Z/6."""
    ring = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(("free", "weil", "zero")))
    n = draw(st.integers(0 if kind == "free" else 1, 3))
    names = [f"e{i + 1}" for i in range(n)]
    if kind == "free":
        return free_algebra(ring, names)
    if kind == "zero":
        return FpAlgebra(ring, names, ["1"])
    return random_weil_algebra(draw(st.integers(0, 9)), ring, n, draw(st.sampled_from(WEIL_PATTERNS)))


# ints, and Fractions whose denominator is invertible in some rings and not
# in others (2 and 3 over Z/4 and Z/6, every denominator above 1 over Z)
NUMBERS = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _typed(vector):
    return [[(e, type(v), v) for e, v in x.rep._terms.items()] for x in vector.entries]


def _outcome(build):
    try:
        return _typed(build())
    except NbhdError as exc:
        return type(exc), str(exc)


def _counted(monkeypatch, name):
    calls = []
    original = getattr(FpAlgebra, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(FpAlgebra, name, counted)
    return calls


@PROPERTY
@given(algebra=algebras(), tail=st.lists(NUMBERS, max_size=3))
def test_a_number_tail_gives_the_element_path_weights(algebra, tail):
    # the reference tail holds the normal forms of the constant polynomials,
    # which the element path sums with element arithmetic
    numbers = _outcome(lambda: CoefficientVector.affine(algebra, tail))
    elements = _outcome(
        lambda: CoefficientVector.affine(
            algebra, [algebra.element(Polynomial.constant(algebra.varset, algebra.ring, x)) for x in tail]
        )
    )
    assert numbers == elements


def test_the_zero_ring_and_fractions_without_an_inverse_are_reached():
    zero = FpAlgebra(RingSpec.parse("Z/6"), ["e1"], ["1"])
    assert _typed(CoefficientVector.affine(zero, [5, Fraction(1, 5)])) == [[], [], []]
    z4 = free_algebra(RingSpec.parse("Z/4"), ["e1"])
    unit = (0,)
    assert _typed(CoefficientVector.affine(z4, [Fraction(1, 3), 1])) == [
        [(unit, int, 1)], [(unit, int, 3)], [(unit, int, 1)]
    ]
    for ring, value in (("Z", Fraction(1, 2)), ("Z/4", Fraction(1, 2)), ("Z/6", Fraction(1, 3))):
        algebra = free_algebra(RingSpec.parse(ring), ["e1"])
        with pytest.raises(NbhdError, match="not"):
            CoefficientVector.affine(algebra, [1, value])


def test_a_number_tail_makes_no_element_call(monkeypatch):
    algebra = random_weil_algebra(3, RingSpec.parse("Q"), 2, "squares-only")
    elements = _counted(monkeypatch, "element")
    reads = _counted(monkeypatch, "_elements")
    vector = CoefficientVector.affine(algebra, [2, Fraction(-1, 3)])
    assert vector.is_affine() and elements == [] and reads == []


@pytest.mark.parametrize("other", [True, "e1", "poly", "element"])
def test_any_other_value_takes_the_element_path(monkeypatch, other):
    algebra = random_weil_algebra(3, RingSpec.parse("Q"), 2, "squares-only")
    other = {
        "poly": Polynomial.variable(algebra.varset, algebra.ring, 1),
        "element": algebra.generator(0),
    }.get(other, other)
    reads = _counted(monkeypatch, "_elements")
    vector = CoefficientVector.affine(algebra, [Fraction(1, 2), other])
    assert len(reads) == 1 and vector.is_affine()
    assert vector[2] == algebra.element(other)


GROEBNER = (("x^2 - y",), ("x*y - 1", "y^3 - x"), ("x - 1", "x - 2"))


@pytest.mark.parametrize(
    "algebra",
    [
        *(FpAlgebra(RingSpec.parse("Q"), ["x", "y"], relations) for relations in GROEBNER),
        FpAlgebra(RingSpec.parse("Z/5"), ["x", "y", "z"], ["x^2 + y", "y*z - 1"]),
        *(random_weil_algebra(1, RingSpec.parse("Z/6"), 3, pattern) for pattern in WEIL_PATTERNS),
        FpAlgebra(RingSpec.parse("Z"), ["x", "y"], ["1"]),
        free_algebra(RingSpec.parse("Q"), ["x", "y", "z"]),
    ],
    ids=repr,
)
def test_generators_are_the_normal_forms_of_the_variables(monkeypatch, algebra):
    # under both engines, by index and by name, in any order of first use
    varset, ring = algebra.varset, algebra.ring
    expected = [algebra.element(Polynomial.variable(varset, ring, i)) for i in range(len(varset))]
    forms = _counted(monkeypatch, "normal_form")
    for i in reversed(range(len(varset))):
        assert algebra.generator(i) == expected[i]
        assert algebra.generator(varset.names[i]) == expected[i]
    assert algebra.generators() == expected
    assert len(forms) == len(varset)
    assert all(type(form) is Polynomial for form in algebra._gens)
    # a second round of calls forms no normal form
    algebra.generator(0), algebra.generator(varset.names[-1]), algebra.generators()
    assert len(forms) == len(varset)


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("which", [-1, 3, True, False, 1.0, "w", None])
def test_refused_indices_raise_as_before(which, filled):
    algebra = FpAlgebra(RingSpec.parse("Q"), ["x", "y", "z"], ["x^2 - y"])
    if filled:
        algebra.generators()
    with pytest.raises(NbhdError) as expected:
        Polynomial.variable(algebra.varset, algebra.ring, which)
    with pytest.raises(type(expected.value)) as got:
        algebra.generator(which)
    assert str(got.value) == str(expected.value)
