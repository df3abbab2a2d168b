"""Each precondition is proven once per operation.

affine_combinations(maps, weight_vectors) scans the mutual-neighbour pairs
of the maps once and forms one combination per weight vector; it must give
what affine_combination gives vector by vector, and raise the same error.
in_dtilde of a matrix extend_matrix returned must be that of a fresh matrix
with the same entries.  A diagonal cross equation of the difference variety
is the two-product formula, and a vector CoefficientVector.affine built is
not summed again.
"""

from fractions import Fraction
from functools import reduce
from math import comb
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nbhd.neighbour  # noqa: E402
from nbhd.algebra import AlgebraElement, AlgebraMap, FpAlgebra, free_algebra  # noqa: E402
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.errors import (  # noqa: E402
    ArityMismatch,
    CoefficientsNotAffine,
    DomainMismatch,
    NbhdError,
    NotNeighbours,
)
from nbhd.neighbour import (  # noqa: E402
    CoefficientVector,
    SimplexMatrix,
    affine_combination,
    affine_combinations,
    extend_matrix,
    in_dtilde,
    maps_of_matrix,
    universal_dtilde,
)
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import (  # noqa: E402
    WEIL_PATTERNS,
    random_weil_algebra,
    square_zero_full,
    squares_only,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4"))
FIELDS = tuple(ring for ring in RINGS if ring.is_field)


def outcome(call):
    """The value of call(), or the type and message of the NbhdError it raises."""
    try:
        return call()
    except NbhdError as error:
        return type(error), str(error)


@st.composite
def codomains(draw):
    ring = draw(st.sampled_from(RINGS))
    pattern = draw(st.sampled_from(WEIL_PATTERNS))
    return random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)


def elements(codomain, constant_free=False):
    """Sums of at most three terms of degree at most one in each variable."""
    ring, varset = codomain.ring, codomain.varset
    exponents = st.tuples(*[st.integers(0, 1)] * len(varset))
    if constant_free:
        exponents = exponents.filter(any)
    term = st.tuples(exponents, st.integers(-3, 3))
    return st.lists(term, max_size=3).map(lambda ts: codomain.element(Polynomial(varset, ring, ts)))


@st.composite
def neighbour_tuples(draw):
    """p + 1 maps from a free domain: base images moved by multiples of e1,
    whose square vanishes in every pattern, so the maps are mutual
    neighbours; or by arbitrary constant-free elements, which need not be."""
    codomain = draw(codomains())
    domain = free_algebra(codomain.ring, ("X1", "X2", "X3")[: draw(st.integers(1, 3))])
    size = len(domain.varset)
    base = [draw(elements(codomain)) for _ in range(size)]
    e1 = codomain.generator(0)
    maps = [AlgebraMap(domain, codomain, base)]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            moves = [draw(st.integers(-3, 3)) * e1 for _ in range(size)]
        else:
            moves = [draw(elements(codomain, constant_free=True)) for _ in range(size)]
        maps.append(AlgebraMap(domain, codomain, [b + d for b, d in zip(base, moves)]))
    return maps


@st.composite
def weight_vectors(draw, codomain, count):
    """Weights for count maps, affine but now and then not."""
    if draw(st.integers(0, 5)):
        tail = [draw(elements(codomain)) for _ in range(count - 1)]
        return CoefficientVector.affine(codomain, tail)
    return CoefficientVector(codomain, [draw(elements(codomain)) for _ in range(count)])


@PROPERTY
@given(st.data())
def test_several_combinations_are_the_combinations_one_by_one(data):
    maps = data.draw(neighbour_tuples())
    codomain = maps[0].codomain
    vectors = [
        data.draw(weight_vectors(codomain, len(maps))) for _ in range(data.draw(st.integers(1, 3)))
    ]
    singles = [outcome(lambda w=w: affine_combination(maps, w)) for w in vectors]
    # with equal arities the scan is shared, so the first failing vector
    # decides: NotNeighbours for every vector, or its own weight sum
    failures = [s for s in singles if isinstance(s, tuple)]
    expected = failures[0] if failures else singles
    assert outcome(lambda: affine_combinations(maps, vectors)) == expected


def unit_tuples():
    """Neighbours in the full square-zero algebra, and a non-neighbour pair
    in the squares-only one (their difference product e1*e2 survives)."""
    full, thin = square_zero_full(QQ, 2), squares_only(QQ, 2)
    good = maps_of_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))
    bad = maps_of_matrix(SimplexMatrix(thin, [["0", "0"], ["e1", "e2"]]))
    return good, bad


def foreign_weights():
    # an algebra equal to no corpus algebra: the weights are refused
    other = FpAlgebra(QQ, ("u",), ["u^3"])
    return CoefficientVector(other, [Fraction(1, 2), Fraction(1, 2)])


@pytest.mark.parametrize(
    "case, error",
    [
        ("non-neighbours", NotNeighbours),
        ("wrong arity", ArityMismatch),
        ("not affine", CoefficientsNotAffine),
        ("foreign algebra", DomainMismatch),
    ],
)
def test_each_error_is_the_one_vector_error(case, error):
    good, bad = unit_tuples()
    affine = [Fraction(1, 2), Fraction(1, 2)]
    maps, weights = {
        "non-neighbours": (bad, affine),
        "wrong arity": (good, [1]),
        "not affine": (good, [1, 1]),
        "foreign algebra": (good, foreign_weights()),
    }[case]
    single = outcome(lambda: affine_combination(maps, weights))
    assert single[0] is error
    assert outcome(lambda: affine_combinations(maps, [weights])) == single
    # behind a good vector, and ahead of one, the same error is raised
    ok = CoefficientVector(maps[0].codomain, affine)
    assert outcome(lambda: affine_combinations(maps, [ok, weights])) == single
    assert outcome(lambda: affine_combinations(maps, [weights, ok])) == single


def test_coercion_and_arity_come_before_the_neighbour_scan():
    # affine_combination's precedence: a wrong arity in any vector is
    # reported before the maps are found not to be neighbours
    _, bad = unit_tuples()
    expected = outcome(lambda: affine_combination(bad, [1]))
    assert expected[0] is ArityMismatch
    assert outcome(lambda: affine_combinations(bad, [[1, 0], [1]])) == expected
    assert outcome(lambda: affine_combination(bad, [1, 0]))[0] is NotNeighbours
    assert outcome(lambda: affine_combinations(bad, [[1, 0], [1, 1]]))[0] is NotNeighbours


def counted_scans(monkeypatch):
    calls = []
    scan = nbhd.neighbour._difference_products

    def counted(rows):
        calls.append(len(rows))
        return scan(rows)

    monkeypatch.setattr(nbhd.neighbour, "_difference_products", counted)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_k_weight_vectors_cost_one_difference_product_pass(monkeypatch, k):
    good, _ = unit_tuples()
    vectors = [[Fraction(r, k + 1), 1 - Fraction(r, k + 1)] for r in range(k)]
    expected = [affine_combination(good, w) for w in vectors]
    calls = counted_scans(monkeypatch)
    assert affine_combinations(good, vectors) == expected
    assert calls == [2]


# -- extensions of a difference matrix ------------------------------------------


def square_zero_by_groebner(ring, n):
    """square_zero_full's quotient with one more relation, e1^2 + e1^3: it
    lies in the ideal but is not a monomial, so the same algebra takes the
    Groebner engine, where no scan is decided by the supports of its
    entries."""
    full = square_zero_full(ring, n)
    return FpAlgebra(ring, full.varset, [*full.relations, "e1^2 + e1^3"])


@st.composite
def members(draw):
    """A member of the difference variety: constant-free entries in the full
    square-zero algebra, under either engine, or multiples of e1, whose
    square vanishes, in a random Weil algebra."""
    kind = draw(st.sampled_from(("square-zero-full", "groebner", "weil")))
    ring = draw(st.sampled_from(FIELDS if kind == "groebner" else RINGS))
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if kind != "weil":
        full = square_zero_by_groebner if kind == "groebner" else square_zero_full
        codomain = full(ring, n)
        rows = [[draw(elements(codomain, constant_free=True)) for _ in range(n)] for _ in range(p)]
    else:
        pattern = draw(st.sampled_from(WEIL_PATTERNS))
        codomain = random_weil_algebra(draw(st.integers(0, 999)), ring, n, pattern)
        e1 = codomain.generator(0)
        rows = [[draw(st.integers(-3, 3)) * e1 for _ in range(n)] for _ in range(p)]
    return SimplexMatrix(codomain, rows)


@PROPERTY
@given(st.data())
def test_in_dtilde_of_an_extension_is_that_of_a_fresh_matrix(data):
    # under the Groebner engine the support test declines, so the scan of
    # an extension runs in full
    matrix = data.draw(members())
    codomain = matrix.codomain
    current = matrix
    for _ in range(data.draw(st.integers(1, 3))):
        weights = [data.draw(elements(codomain)) for _ in range(current.rows)]
        current = extend_matrix(current, weights)
        fresh = SimplexMatrix(codomain, current.entries)
        assert current == fresh
        assert in_dtilde(current) == in_dtilde(fresh) and in_dtilde(current)


def kernel_calls_and_elements(monkeypatch):
    """Two lists: the factor pairs of every sum-of-products kernel call, and
    every AlgebraElement built."""
    calls, built = [], []
    kernel, init = FpAlgebra._sum_of_products, AlgebraElement.__init__

    def counted(self, pairs):
        pairs = list(pairs)
        calls.append(pairs)
        return kernel(self, pairs)

    def recorded(self, parent, rep):
        built.append(rep)
        init(self, parent, rep)

    monkeypatch.setattr(FpAlgebra, "_sum_of_products", counted)
    monkeypatch.setattr(AlgebraElement, "__init__", recorded)
    return calls, built


MEMBER_ROWS = [["e1", "e2", "e1 + e3"], ["e2 - e3", "e3", "2*e1"]]


def test_in_dtilde_of_a_member_decided_by_support_forms_no_product(monkeypatch):
    # over the monomial presentation every product of two monomials of the
    # entries' supports is deleted: no kernel call and no element, for a
    # matrix extend_matrix returned as for a fresh one
    full = square_zero_full(QQ, 3)
    matrix = SimplexMatrix(full, MEMBER_ROWS)
    extended = extend_matrix(matrix, [3, "2 + e2"])
    twice = extend_matrix(extended, [2, -3, 5])
    calls, built = kernel_calls_and_elements(monkeypatch)
    for member in (extended, twice, SimplexMatrix(full, twice.entries)):
        built.clear()
        assert in_dtilde(member)
        assert calls == [] and built == []


# -- diagonal cross products ----------------------------------------------------


def _two_product_equations(rows):
    """The equations of the difference variety as the relation is written:
    a cross equation with i = j forms a_ri * a_si and a_si * a_ri, the same
    product, both."""
    cross, row = "cross products, rows r,s columns i,j", "row products, row r columns i,j"
    for r, x in enumerate(rows):
        for s in range(r + 1, len(rows)):
            y = rows[s]
            for i in range(len(x)):
                for j in range(i, len(x)):
                    terms = [u * v for u, v in ((x[i], y[j]), (y[i], x[j])) if u and v]
                    if terms:
                        yield (r + 1, s + 1, i + 1, j + 1), cross, reduce(add, terms)
    for r, x in enumerate(rows):
        for i, u in enumerate(x):
            if u:
                for j in range(i, len(x)):
                    if x[j]:
                        yield (r + 1, i + 1, j + 1), row, u * x[j]


def _ordered(equations):
    """The equations with each value's terms in dict order, types included."""
    out = []
    for at, label, value in equations:
        poly = getattr(value, "rep", value)
        out.append((at, label, [(e, type(c), c) for e, c in poly._terms.items()]))
    return out


# Z/4: 2 is a zero divisor there, so a doubled product can vanish
TWO_PRODUCT_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z/2", "Z/4"))


@PROPERTY
@given(st.data())
def test_diagonal_cross_products_are_the_two_product_formula(data):
    ring = data.draw(st.sampled_from(TWO_PRODUCT_RINGS))
    pattern = data.draw(st.sampled_from(WEIL_PATTERNS))
    n = data.draw(st.integers(1, 3))
    codomain = random_weil_algebra(data.draw(st.integers(0, 999)), ring, n, pattern)
    p = data.draw(st.integers(1, 3))
    rows = [[data.draw(elements(codomain)) for _ in range(n)] for _ in range(p)]
    # only the equations that do not vanish
    ours = list(nbhd.neighbour._dtilde_equations(rows))
    theirs = [eq for eq in _two_product_equations(rows) if eq[2]]
    assert ours == theirs
    assert _ordered(ours) == _ordered(theirs)
    assert all(value.parent is codomain for _, _, value in ours)
    matrix = SimplexMatrix(codomain, rows)
    assert in_dtilde(matrix).ok == all(not v for _, _, v in _two_product_equations(rows))


@pytest.mark.parametrize("ring", TWO_PRODUCT_RINGS, ids=str)
def test_universal_dtilde_relations_are_the_two_product_formula(ring):
    for p in (1, 2, 3):
        for n in (1, 2, 3):
            free = free_algebra(ring, [f"a{i + 1}{j + 1}" for i in range(p) for j in range(n)])
            generators = free.generators()
            generic = [generators[i * n : (i + 1) * n] for i in range(p)]
            ours = list(nbhd.neighbour._dtilde_equations(generic))
            assert all(value.parent is free for _, _, value in ours)
            # the same products formed with Polynomial * and +, less the zero ones
            variables = [[x.rep for x in row] for row in generic]
            theirs = [eq for eq in _two_product_equations(variables) if eq[2]]
            assert _ordered(ours) == _ordered(theirs)
            if ring.is_field:  # over Z/4 the cross products need a Groebner basis
                algebra, _ = universal_dtilde(p, n, ring)
                relations = [(at, label, r) for (at, label, _), r in zip(theirs, algebra.relations)]
                assert len(algebra.relations) == len(theirs)
                assert _ordered(relations) == _ordered(theirs)


def dense_member(codomain, p, n, entry):
    return SimplexMatrix(codomain, [[entry(r, j) for j in range(n)] for r in range(p)])


@pytest.mark.parametrize("p, n", [(1, 3), (2, 2), (3, 3), (4, 2)])
def test_in_dtilde_forms_both_products_of_a_diagonal_cross_equation(monkeypatch, p, n):
    # a dense member: every entry is e1 + ... + en over Z/2 modulo the
    # squares, and every product, 2 * (sum of the e_i * e_j with i < j),
    # cancels; e1 * e2 survives the product table, so the supports decide
    # nothing, every equation is formed and the scan runs to the end
    thin = squares_only(RingSpec.parse("Z/2"), n)
    total = sum(thin.generators(), thin.zero())
    matrix = dense_member(thin, p, n, lambda r, j: total)
    calls, _ = kernel_calls_and_elements(monkeypatch)
    assert in_dtilde(matrix)
    # two products per pair for each i <= j, and the row products
    assert sum(map(len, calls)) == comb(p, 2) * n * (n + 1) + p * comb(n + 1, 2)
    # one kernel call per equation
    assert len(calls) == comb(p, 2) * comb(n + 1, 2) + p * comb(n + 1, 2)


@pytest.mark.parametrize("p, n", [(1, 3), (2, 2), (3, 3), (4, 2)])
def test_in_dtilde_of_a_dense_member_decided_by_support_forms_nothing(monkeypatch, p, n):
    # every entry a multiple of one generator of the full square-zero
    # algebra: the product table deletes every product of two generators
    full = square_zero_full(QQ, n)
    gens = full.generators()
    matrix = dense_member(full, p, n, lambda r, j: (r + 1) * gens[(r + j) % n])
    calls, built = kernel_calls_and_elements(monkeypatch)
    assert in_dtilde(matrix)
    assert calls == [] and built == []


# -- weights affine by construction ---------------------------------------------


def test_weights_affine_by_construction_are_not_summed_again(monkeypatch):
    good, _ = unit_tuples()
    codomain = good[0].codomain
    built = CoefficientVector.affine(codomain, [Fraction(1, 3)])
    by_hand = CoefficientVector(codomain, [Fraction(2, 3), Fraction(1, 3)])
    assert built._affine and not by_hand._affine
    expected = [affine_combination(good, w) for w in (built, by_hand, [1, 0])]
    sums = []
    is_affine = CoefficientVector.is_affine

    def counted(self):
        sums.append(self)
        return is_affine(self)

    monkeypatch.setattr(CoefficientVector, "is_affine", counted)
    assert affine_combinations(good, [built, by_hand, [1, 0]]) == expected
    assert len(sums) == 2 and built not in sums and by_hand in sums
    # a hand-built vector is still refused when its weights do not sum to 1
    with pytest.raises(CoefficientsNotAffine):
        affine_combinations(good, [built, CoefficientVector(codomain, [1, 1])])
