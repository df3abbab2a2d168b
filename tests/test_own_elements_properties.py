"""Constructors take their algebra's own elements as they are.

SimplexMatrix, AlgebraMap, CoefficientVector (and its affine()) and the
weights of extend_matrix read their values through FpAlgebra._elements: an
element whose parent is the very codomain object is kept, and anything else
goes through FpAlgebra.element, with its values and errors.  extend_matrix
assembles its result from entries already checked, and every passing scan
returns the one shared pass result for its notes.  The support test of the
scans reads a difference's support from the two term dicts' items.
"""

import dataclasses
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.algebra import AlgebraMap, FpAlgebra, _vanish_by_support, free_algebra  # noqa: E402
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.errors import ParentMismatch  # noqa: E402
from nbhd.neighbour import (  # noqa: E402
    CheckResult,
    CoefficientVector,
    SimplexMatrix,
    extend_matrix,
    in_dtilde,
    is_simplex,
    is_square_zero_pair,
    vectors_neighbour,
)
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra, square_zero_full  # noqa: E402

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4", "Z/6"))


def weil(ring, pattern, n=3, seed=5):
    return random_weil_algebra(seed, ring, n, pattern)


def counted_element_calls(monkeypatch):
    calls = []
    element = FpAlgebra.element

    def counted(self, value):
        calls.append(value)
        return element(self, value)

    monkeypatch.setattr(FpAlgebra, "element", counted)
    return calls


def member_rows(codomain, p):
    """p rows of multiples of e1, whose square every Weil pattern deletes,
    so the matrix lies in the difference variety."""
    e1, n = codomain.generator(0), len(codomain.varset)
    return [[(r + j + 1) * e1 for j in range(n)] for r in range(p)]


def constructions(codomain, values):
    """What each constructor makes of one row of values: the matrix
    entries, the map images, the weights of a vector and of an affine
    vector, and the row extend_matrix appends to a member with those
    weights."""
    domain = free_algebra(codomain.ring, [f"X{j + 1}" for j in range(len(values))])
    member = SimplexMatrix(codomain, member_rows(codomain, len(values)))
    return {
        "SimplexMatrix": SimplexMatrix(codomain, [values]).entries,
        "AlgebraMap": AlgebraMap(domain, codomain, values).images,
        "CoefficientVector": CoefficientVector(codomain, values).entries,
        "affine": CoefficientVector.affine(codomain, values).entries,
        "extend_matrix": extend_matrix(member, values).entries[-1],
    }


@pytest.mark.parametrize("pattern", WEIL_PATTERNS)
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_own_elements_make_no_element_call(monkeypatch, ring, pattern):
    codomain = weil(ring, pattern)
    rows = member_rows(codomain, 3)
    weights = [codomain.element("2 + e2"), codomain.element(-1), codomain.generator(2)]
    matrix = SimplexMatrix(codomain, rows)
    domain = free_algebra(ring, ["X1", "X2", "X3"])
    calls = counted_element_calls(monkeypatch)
    assert SimplexMatrix(codomain, rows) == matrix
    AlgebraMap(domain, codomain, rows[0])
    CoefficientVector(codomain, weights)
    CoefficientVector.affine(codomain, weights[1:])
    extended = extend_matrix(matrix, weights)
    twice = extend_matrix(extended, [*weights, codomain.one()])
    assert in_dtilde(twice)
    assert calls == []


@PROPERTY
@given(st.data())
def test_other_values_are_read_as_element_reads_them(data):
    # numbers, strings, polynomials and the elements of an equal but
    # separate algebra give what the codomain's own elements give
    ring = data.draw(st.sampled_from(RINGS))
    codomain = weil(ring, data.draw(st.sampled_from(WEIL_PATTERNS)))
    twin = FpAlgebra(ring, codomain.varset, codomain.relations, codomain.order)
    assert twin == codomain and twin is not codomain
    numbers = st.integers(-5, 5)
    if ring.is_field and ring.kind == "Q":
        numbers = numbers | st.fractions(-3, 3, max_denominator=4)
    texts = st.sampled_from(("e1", "2*e1 - e2 + 3", "e1*e2 - 1", "e3^2", "0"))
    square = Polynomial.variable(codomain.varset, ring, 0) ** 2
    polys = texts.map(lambda text: codomain.element(text).rep + square)
    raw = st.one_of(numbers, texts, polys)
    values = data.draw(st.lists(raw, min_size=1, max_size=3))
    own = [codomain.element(v) for v in values]
    mixed = [twin.element(v) if data.draw(st.booleans()) else v for v in values]
    assert constructions(codomain, mixed) == constructions(codomain, own)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_foreign_parent_raises_parent_mismatch(ring):
    codomain = weil(ring, "square-zero-full")
    foreign = square_zero_full(ring, 4).generator(0)
    for values in ([foreign, 1, 2], [1, foreign, 2]):
        for name, build in {
            "SimplexMatrix": lambda: SimplexMatrix(codomain, [values]),
            "AlgebraMap": lambda: AlgebraMap(free_algebra(ring, ["A", "B", "C"]), codomain, values),
            "CoefficientVector": lambda: CoefficientVector(codomain, values),
            "affine": lambda: CoefficientVector.affine(codomain, values),
            "extend_matrix": lambda: extend_matrix(
                SimplexMatrix(codomain, member_rows(codomain, 3)), values
            ),
        }.items():
            with pytest.raises(ParentMismatch, match="used in"):
                build()


@PROPERTY
@given(
    st.sampled_from(RINGS),
    st.sampled_from(WEIL_PATTERNS),
    st.integers(1, 3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_an_extension_is_the_fresh_matrix_of_its_rows(ring, pattern, p, coefficients):
    codomain = weil(ring, pattern)
    matrix = SimplexMatrix(codomain, member_rows(codomain, p))
    weights = [c * codomain.generator(k % 3) + k for k, c in enumerate(coefficients[:p])]
    extended = extend_matrix(matrix, weights)
    fresh = SimplexMatrix(codomain, [list(row) for row in extended.entries])
    assert extended.entries == fresh.entries and extended == fresh
    assert hash(extended) == hash(fresh)
    assert (extended.rows, extended.cols) == (p + 1, matrix.cols)
    assert all(type(row) is tuple for row in extended.entries)
    assert extended.transpose() == SimplexMatrix(codomain, list(zip(*fresh.entries)))
    zero_row = [0] * matrix.cols
    assert extended.prepend_zero_row() == SimplexMatrix(codomain, [zero_row, *fresh.entries])


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_passes_are_one_shared_immutable_result_per_notes(ring):
    codomain = weil(ring, "square-zero-full")
    rows = member_rows(codomain, 2)
    base = [codomain.element(c) for c in (1, 2, 3)]
    near = [b + x for b, x in zip(base, rows[0])]
    domain = free_algebra(ring, ["A", "B", "C"])
    f, g = AlgebraMap(domain, codomain, base), AlgebraMap(domain, codomain, near)
    passes = {
        "in_dtilde": lambda: in_dtilde(SimplexMatrix(codomain, rows)),
        "is_simplex": lambda: is_simplex(SimplexMatrix(codomain, [base, near])),
        "vectors_neighbour": lambda: vectors_neighbour(base, near),
        "is_square_zero_pair": lambda: is_square_zero_pair(f, g),
    }
    for name, decide in passes.items():
        first, second = decide(), decide()
        assert first and first is second, name
        assert first == CheckResult(True, None, first.notes), name
        assert str(first) == "true" and first.witness is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.ok = False
    assert passes["in_dtilde"]().notes == (
        ("row-product equations are implied by the cross-product equations "
         "here (2 is invertible); both families checked anyway",)
        if ring.two_invertible
        else ()
    )
    assert passes["vectors_neighbour"]() is passes["is_simplex"]()


# -- the support of a difference ------------------------------------------------


def brute_support_vanishes(rows):
    """_vanish_by_support(rows, differences=True) by its definition: every
    monomial where some row's entry and the first row's differ in
    coefficient, and a deletion test for each product of two of them."""
    algebra = rows[0][0].parent
    support = set()
    for row in rows:
        for x, y in zip(row, rows[0]):
            a, b = y.rep._terms, x.rep._terms
            support |= {e for e in set(a) | set(b) if a.get(e) != b.get(e)}
    return all(
        algebra._deletes(tuple(map(operator.add, u, v))) for u in support for v in support
    )


@st.composite
def term_dicts(draw, algebra):
    """An element and one that shares its monomials: each kept with the same
    coefficient or another, or dropped, and perhaps more added."""
    ring, varset = algebra.ring, algebra.varset
    # mostly square-free monomials, whose products a Weil algebra keeps
    # more often, the constant among them
    exponents = st.tuples(*[st.integers(0, 1)] * len(varset)) | st.tuples(
        *[st.integers(0, 2)] * len(varset)
    )
    coefficients = st.integers(-4, 4)
    if ring.kind == "Q":
        coefficients = coefficients | st.fractions(-2, 2, max_denominator=3)
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=4))
    x = algebra.element(Polynomial(varset, ring, terms))
    moved = []
    for e, c in x.rep._terms.items():
        how = draw(st.sampled_from(("same", "other", "other", "drop")))
        if how == "same":
            moved.append((e, c))
        elif how == "other":
            moved.append((e, ring.add(c, ring.normalize(draw(st.integers(1, 3))))))
    moved += draw(st.lists(st.tuples(exponents, coefficients), max_size=2))
    return x, algebra.element(Polynomial(varset, ring, moved))


@PROPERTY
@given(st.data())
def test_the_difference_support_is_the_brute_force_set(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(1, 3))
    pattern = data.draw(st.sampled_from(WEIL_PATTERNS))
    algebra = random_weil_algebra(data.draw(st.integers(0, 99)), ring, n, pattern)
    width = data.draw(st.integers(1, 3))
    pairs = [data.draw(term_dicts(algebra)) for _ in range(width)]
    anchor = [x for x, _ in pairs]
    rows = [anchor, [y for _, y in pairs]]
    if data.draw(st.booleans()):
        rows.append(anchor)  # entries that are the anchor's own objects
    assert _vanish_by_support(rows, differences=True) == brute_support_vanishes(rows)


def test_equal_monomials_with_other_coefficients_are_in_the_support():
    # over square-zero relations only a constant monomial survives a
    # product: rows that differ in their constants alone do not vanish
    full = square_zero_full(QQ, 2)
    e1, e2 = full.generators()
    for a, b in ((1, 2), (Fraction(1, 2), Fraction(1, 3)), (3, 0)):
        assert not _vanish_by_support([[e1 + a, e2], [e1 + b, e2]], differences=True)
    assert _vanish_by_support([[e1 + 1, e2], [2 * e1 + 1, e2 - e1]], differences=True)
