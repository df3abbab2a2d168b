import random
from fractions import Fraction

import pytest

from nbhd import algebra
from nbhd.algebra import (
    AlgebraElement,
    AlgebraMap,
    FpAlgebra,
    free_algebra,
    neighbourhood_of_diagonal,
    tensor,
)
from nbhd.arith import QQ, RingSpec, ZZ
from nbhd.errors import (
    ArityMismatch,
    CoefficientsNotAffine,
    DomainMismatch,
    IllDefinedMap,
    NonFieldCoefficients,
    NotInDtilde,
    NotInKernel,
    NotNeighbours,
    ParentMismatch,
    ReexpansionFailed,
    ShapeMismatch,
    UninterpretableValue,
)
from nbhd.neighbour import (
    CoefficientVector,
    SimplexMatrix,
    affine_combination,
    affine_combination_rows,
    affine_combinations,
    canonical_map,
    decompose_difference,
    extend_matrix,
    generic_coefficients,
    in_dtilde,
    is_neighbour,
    is_neighbour_product_form,
    is_simplex,
    is_square_zero_pair,
    maps_of_matrix,
    matrix_of_maps,
    pair_varset,
    rewrite_kernel_element,
    universal_dtilde,
    vectors_neighbour,
)
from nbhd.poly import Polynomial, VarSet, parse_poly

Z2 = RingSpec.modular(2)


def squares_only(ring=QQ, n=2):
    names = tuple(f"e{i + 1}" for i in range(n))
    return FpAlgebra(ring, names, [f"{g}^2" for g in names])


def square_zero_full(ring=QQ, n=2):
    names = tuple(f"e{i + 1}" for i in range(n))
    rels = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    return FpAlgebra(ring, names, rels)


def pair_of_maps(codomain, images_f, images_g):
    domain = free_algebra(codomain.ring, [f"X{j + 1}" for j in range(len(images_f))])
    return (
        AlgebraMap(domain, codomain, images_f),
        AlgebraMap(domain, codomain, images_g),
    )


# -- the basic decision procedure ---------------------------------------------


def test_neighbour_depends_on_cross_products():
    # With only e1^2 = e2^2 = 0 the product e1*e2 survives and separates the
    # pair; adding e1*e2 = 0 makes them neighbours.
    thin = squares_only()
    f, g = pair_of_maps(thin, ["0", "0"], ["e1", "e2"])
    verdict = is_neighbour(f, g)
    assert not verdict
    assert verdict.witness.indices == (1, 2)
    assert verdict.witness.value == thin.element("e1*e2")

    full = square_zero_full()
    f, g = pair_of_maps(full, ["0", "0"], ["e1", "e2"])
    assert is_neighbour(f, g)


def test_neighbour_reflexive_symmetric():
    thin = squares_only()
    f, g = pair_of_maps(thin, ["e1", "0"], ["e1", "e2"])
    assert is_neighbour(f, f)
    assert bool(is_neighbour(f, g)) == bool(is_neighbour(g, f))


def test_neighbour_not_transitive():
    thin = squares_only()
    domain = free_algebra(QQ, ["X1", "X2"])
    f = AlgebraMap(domain, thin, ["0", "0"])
    g = AlgebraMap(domain, thin, ["e1", "0"])
    h = AlgebraMap(domain, thin, ["e1", "e2"])
    assert is_neighbour(f, g)
    assert is_neighbour(g, h)
    assert not is_neighbour(f, h)


def test_neighbour_requires_parallel_maps():
    thin = squares_only()
    f, _ = pair_of_maps(thin, ["e1", "0"], ["e1", "0"])
    other = AlgebraMap(free_algebra(QQ, ["Y"]), thin, ["e2"])
    with pytest.raises(DomainMismatch):
        is_neighbour(f, other)


def test_neighbour_requires_one_codomain():
    # Q[x] -> Q[y] and Q[x] -> Q[z]: one domain, two codomains
    domain = free_algebra(QQ, ["x"])
    f = AlgebraMap(domain, free_algebra(QQ, ["y"]), ["y"])
    g = AlgebraMap(domain, free_algebra(QQ, ["z"]), ["z"])
    with pytest.raises(DomainMismatch, match="codomains differ"):
        is_neighbour(f, g)


def test_product_form_agrees_everywhere():
    """The subtraction-free criterion is equivalent over every ring."""
    rng = random.Random("nbhd-product-form")
    for ring in (QQ, ZZ, Z2, RingSpec.modular(3)):
        thin = squares_only(ring)
        full = square_zero_full(ring)
        for codomain in (thin, full):
            pool = [
                codomain.zero(),
                codomain.one(),
                codomain.generator(0),
                codomain.generator(1),
                codomain.generator(0) + codomain.generator(1),
                codomain.generator(0) * codomain.generator(1),
            ]
            for _ in range(25):
                f, g = pair_of_maps(
                    codomain,
                    [rng.choice(pool) for _ in range(2)],
                    [rng.choice(pool) for _ in range(2)],
                )
                assert bool(is_neighbour(f, g)) == bool(is_neighbour_product_form(f, g))


def test_square_test_equivalent_when_two_invertible():
    rng = random.Random("nbhd-square-form")
    thin = squares_only(QQ)
    pool = [thin.zero(), thin.generator(0), thin.generator(1)]
    for _ in range(30):
        f, g = pair_of_maps(
            thin,
            [rng.choice(pool) for _ in range(2)],
            [rng.choice(pool) for _ in range(2)],
        )
        assert bool(is_neighbour(f, g)) == bool(is_square_zero_pair(f, g))


def test_square_test_weaker_in_characteristic_two():
    # Over Z/2 the square of e1 + e2 is 2*e1*e2 = 0, so the bounded square
    # test passes even though e1*e2 separates the pair.
    thin = squares_only(Z2)
    f, g = pair_of_maps(thin, ["0", "0"], ["e1", "e2"])
    squares = is_square_zero_pair(f, g)
    assert squares
    assert any("2 is not invertible" in note for note in squares.notes)
    assert not is_neighbour(f, g)


def test_vectors_neighbour():
    full = square_zero_full()
    a = (full.element("e1"), full.zero())
    b = (full.zero(), full.element("e2"))
    assert vectors_neighbour(a, b)
    thin = squares_only()
    c = (thin.element("e1"), thin.zero())
    d = (thin.zero(), thin.element("e2"))
    assert not vectors_neighbour(c, d)
    with pytest.raises(ShapeMismatch):
        vectors_neighbour(a, a[:1])


def test_vectors_neighbour_reads_every_entry_in_the_first_entrys_algebra():
    # the differences are read in the algebra of the first entry that is an
    # element, as an element product would read them: an element of another
    # algebra is refused, a number or polynomial is coerced
    full, thin = square_zero_full(), squares_only()
    with pytest.raises(ParentMismatch):
        vectors_neighbour((full.element("e1"), thin.element("e1")), (full.zero(), thin.element("e2")))
    e1, e2 = (parse_poly(g, thin.varset, thin.ring) for g in ("e1", "e2"))
    mixed = [((thin.element("e1"), 1), (thin.zero(), e2 + 1)), ((thin.element("e1"), e2), (e1, e1))]
    for a, b in mixed:
        result = vectors_neighbour(a, b)
        expected = vectors_neighbour([thin.element(x) for x in a], [thin.element(x) for x in b])
        assert not result and str(result) == str(expected)
        assert result.witness.value.parent is thin
    # the first element in row-major order fixes the algebra, even when
    # entries before it are numbers; rows holding no element are refused
    dual = FpAlgebra(QQ, ("e",), ["e^2"])
    e = dual.generator(0)
    assert vectors_neighbour([0], [e])
    result = vectors_neighbour([1, e], [2, e])
    assert not result and str(result) == "false (difference product at (1, 1): 1)"
    assert result.witness.value.parent is dual
    with pytest.raises(UninterpretableValue) as refused:
        vectors_neighbour([1], [2])
    assert str(refused.value) == "no entry of the rows is an algebra's element"


@pytest.mark.parametrize(
    "relations, engine",
    [(["e1^2", "e2^2"], "monomial"), (["e1^2", "e2^2 + e2^3"], "groebner")],
    ids=["monomial", "groebner"],
)
def test_is_neighbour_reads_an_equal_but_separate_codomain_as_its_own(relations, engine):
    # maps into equal codomains are parallel, so their images, elements of
    # two algebra objects, reach the scan as they are: the verdict and the
    # witness are those of the same maps into one codomain, either way round
    codomain, twin = (FpAlgebra(QQ, ("e1", "e2"), relations) for _ in range(2))
    assert codomain == twin and codomain is not twin and codomain.strategy == engine
    domain = free_algebra(QQ, ("X1", "X2"))
    rows = (["e1", "0"], ["0", "e2"], ["e1 + e2", "e1"], ["2*e1", "e1*e2"], ["1", "e2"])
    verdicts = set()
    for u in rows:
        for v in rows:
            f, g = AlgebraMap(domain, codomain, u), AlgebraMap(domain, twin, v)
            one_codomain = AlgebraMap(domain, codomain, v)
            for ours, theirs in ((is_neighbour(f, g), is_neighbour(f, one_codomain)),
                                 (is_neighbour(g, f), is_neighbour(one_codomain, f))):
                assert ours == theirs and str(ours) == str(theirs)
                verdicts.add(bool(ours))
    assert verdicts == {True, False}


# -- matrices -----------------------------------------------------------------


def test_matrix_shape_guards():
    full = square_zero_full()
    with pytest.raises(ShapeMismatch):
        SimplexMatrix(full, [])
    with pytest.raises(ShapeMismatch):
        SimplexMatrix(full, [[]])
    with pytest.raises(ShapeMismatch):
        SimplexMatrix(full, [["e1", "0"], ["e2"]])
    with pytest.raises(ShapeMismatch) as refused:
        matrix_of_maps([])
    assert str(refused.value) == "need at least one map"


def test_matrix_round_trip_through_maps():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0"], ["0", "e2"]])
    maps = maps_of_matrix(matrix)
    assert maps[0].domain.varset.names == ("X1", "X2")
    assert matrix_of_maps(maps) == matrix
    wrong = free_algebra(QQ, ["Y"])
    with pytest.raises(ShapeMismatch):
        maps_of_matrix(matrix, wrong)


def test_is_simplex_and_dtilde_goldens():
    thin = squares_only()
    diag = SimplexMatrix(thin, [["e1", "0"], ["0", "e2"]])
    verdict = in_dtilde(diag)
    assert not verdict
    assert verdict.witness.indices == (1, 2, 1, 2)
    assert verdict.witness.value == thin.element("e1*e2")

    full = square_zero_full()
    assert in_dtilde(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))


def test_dtilde_is_anchored_simplex():
    """Membership is the same as the zero-prepended matrix being a simplex."""
    rng = random.Random("nbhd-anchor")
    for ring in (QQ, Z2):
        thin = squares_only(ring)
        full = square_zero_full(ring)
        for codomain in (thin, full):
            pool = [
                codomain.zero(),
                codomain.generator(0),
                codomain.generator(1),
                codomain.generator(0) + codomain.generator(1),
            ]
            for _ in range(20):
                cols = rng.randint(1, 3)
                matrix = SimplexMatrix(
                    codomain,
                    [
                        [rng.choice(pool) for _ in range(cols)]
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                assert bool(in_dtilde(matrix)) == bool(
                    is_simplex(matrix.prepend_zero_row())
                )


def test_single_row_dtilde_is_neighbour_of_zero():
    full = square_zero_full(QQ, 3)
    rng = random.Random("nbhd-single-row")
    pool = [full.zero(), full.generator(0), full.generator(1), full.generator(2)]
    for _ in range(20):
        row = [rng.choice(pool) for _ in range(3)]
        matrix = SimplexMatrix(full, [row])
        zero = [full.zero()] * 3
        assert bool(in_dtilde(matrix)) == bool(vectors_neighbour(zero, row))


def test_transpose_involution_and_stability():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0", "e1"], ["0", "e2", "e2"]])
    assert matrix.transpose().transpose() == matrix
    assert in_dtilde(matrix)
    assert in_dtilde(matrix.transpose())


def test_transpose_can_change_membership_in_characteristic_two():
    # a cross product with i = j only says 2*a_ri*a_si = 0, which is empty
    # over Z/2, while the transpose needs a_ri*a_si = 0
    weil = FpAlgebra(Z2, ("e1", "e2"), ["e1^2", "e2^2"])
    matrix = SimplexMatrix(weil, [["e1 + e2", "e1*e2 + e1"], ["0", "0"]])
    verdict = in_dtilde(matrix)
    assert not verdict
    assert verdict.witness.value == weil.element("e1*e2")
    assert in_dtilde(matrix.transpose())
    over_q = FpAlgebra(QQ, ("e1", "e2"), ["e1^2", "e2^2"])
    same = SimplexMatrix(over_q, [["e1 + e2", "e1*e2 + e1"], ["0", "0"]])
    assert not in_dtilde(same) and not in_dtilde(same.transpose())


# -- affine combinations --------------------------------------------------------


def test_affine_combination_midpoint():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0"], ["0", "e2"]])
    combined = affine_combination_rows(matrix, [Fraction(1, 2), Fraction(1, 2)])
    assert combined == (full.element("1/2*e1"), full.element("1/2*e2"))


def test_affine_combination_integer_weights():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0"], ["0", "e2"]])
    combined = affine_combination_rows(matrix, [2, -1])
    assert combined == (full.element("2*e1"), full.element("-e2"))
    # the combination is again a neighbour of every input row
    assert vectors_neighbour(matrix.row(0), combined)
    assert vectors_neighbour(matrix.row(1), combined)


def test_unit_weight_returns_that_map():
    full = square_zero_full()
    maps = maps_of_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))
    assert affine_combination(maps, [1, 0]) == maps[0]
    assert affine_combination(maps, [0, 1]) == maps[1]


def test_affine_combination_is_pointwise_multiplicative():
    full = square_zero_full()
    maps = maps_of_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))
    weights = CoefficientVector(full, [Fraction(1, 3), Fraction(2, 3)])
    h = affine_combination(maps, weights)
    domain = maps[0].domain

    def pointwise(x):
        acc = full.zero()
        for t, f in zip(weights, maps):
            acc = acc + t * f.apply(x)
        return acc

    rng = random.Random("nbhd-pointwise")
    pool = [
        domain.element("X1"),
        domain.element("X2"),
        domain.element("X1 + 2"),
        domain.element("X1*X2"),
        domain.element("X1^2 - X2"),
    ]
    for _ in range(20):
        u, v = rng.choice(pool), rng.choice(pool)
        assert pointwise(u) == h.apply(u)
        assert pointwise(u * v) == pointwise(u) * pointwise(v)


def test_non_affine_weights_break_multiplicativity():
    # bypass the guarded constructor on purpose: with weights (2, -2) the
    # pointwise combination is not multiplicative, which is exactly why the
    # affineness precondition exists
    nbhd = neighbourhood_of_diagonal(free_algebra(QQ, ("X",)))
    f, g = nbhd.maps
    A = nbhd.algebra
    domain = f.domain

    def pointwise(x):
        return 2 * f.apply(x) - 2 * g.apply(x)

    x = domain.generator(0)
    assert pointwise(x * x) != pointwise(x) * pointwise(x)
    assert pointwise(domain.one()) != A.one()


def test_affine_combination_guards():
    full = square_zero_full()
    thin = squares_only()
    good = maps_of_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))
    with pytest.raises(CoefficientsNotAffine):
        affine_combination(good, [1, 1])
    with pytest.raises(ArityMismatch):
        affine_combination(good, [1])
    bad = maps_of_matrix(SimplexMatrix(thin, [["0", "0"], ["e1", "e2"]]))
    with pytest.raises(NotNeighbours):
        affine_combination(bad, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(NotNeighbours):
        affine_combination_rows(SimplexMatrix(thin, [["0", "0"], ["e1", "e2"]]), [1, 0])
    with pytest.raises(ShapeMismatch):
        affine_combination([], [])
    with pytest.raises(ShapeMismatch):
        CoefficientVector(full, [])


def test_affine_combination_out_of_an_algebra_without_generators():
    # the image rows are empty, which a SimplexMatrix would not allow
    point = free_algebra(QQ, ())
    f = AlgebraMap(point, squares_only(), [])
    assert affine_combination([f, f], [2, -1]) == f
    with pytest.raises(CoefficientsNotAffine):
        affine_combination([f, f], [1, 1])


def test_combination_of_combinations_composes_weights():
    full = square_zero_full()
    maps = maps_of_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "e2"]]))
    h1 = affine_combination(maps, [Fraction(1, 4), Fraction(3, 4)])
    h2 = affine_combination(maps, [Fraction(1, 2), Fraction(1, 2)])
    assert is_neighbour(h1, h2)
    outer = affine_combination([h1, h2], [Fraction(1, 3), Fraction(2, 3)])
    # 1/3 * (1/4, 3/4) + 2/3 * (1/2, 1/2) = (5/12, 7/12)
    direct = affine_combination(maps, [Fraction(5, 12), Fraction(7, 12)])
    assert outer == direct


def test_generic_coefficients_and_canonical_map():
    base = free_algebra(QQ, ("X",))
    cm = canonical_map(base)
    assert cm.domain == base
    extended = cm.codomain
    assert extended.varset.names == ("X", "d_X", "t")
    assert cm.images[0] == extended.element("X + d_X*t")

    cm2 = canonical_map(base, 2)
    e2 = cm2.codomain
    assert e2.varset.names == ("X", "d_X_1", "d_X_2", "t1", "t2")
    assert cm2.images[0] == e2.element("X + d_X_1*t1 + d_X_2*t2")


def test_generic_coefficients_are_affine_by_construction():
    base = free_algebra(QQ, ("X", "Y"))
    simplex = neighbourhood_of_diagonal(base)
    extended, inclusion, weights, lifted = generic_coefficients(simplex)
    assert weights.is_affine()
    assert len(weights) == len(lifted) == 2
    assert lifted[0].domain == base and lifted[0].codomain == extended
    assert inclusion.domain == simplex.algebra


# -- difference decomposition ----------------------------------------------------


def test_pair_varset_layout():
    vs = VarSet(("X1", "X2"))
    assert pair_varset(vs).names == ("X1_0", "X2_0", "X1_1", "X2_1")


def test_decompose_difference_goldens():
    one_var = VarSet(("X",))
    pvs = pair_varset(one_var)

    p = parse_poly("X", one_var, QQ)
    assert decompose_difference(p) == (Polynomial.one(pvs, QQ),)

    p = parse_poly("X^2", one_var, QQ)
    assert decompose_difference(p) == (parse_poly("X_0 + X_1", pvs, QQ),)

    constant = parse_poly("5", one_var, QQ)
    assert decompose_difference(constant) == (Polynomial.zero(pvs, QQ),)

    two_vars = VarSet(("X1", "X2"))
    pvs2 = pair_varset(two_vars)
    p = parse_poly("X1^2*X2", two_vars, QQ)
    q1, q2 = decompose_difference(p)
    assert q1 == parse_poly("X1_0*X2_1 + X1_1*X2_1", pvs2, QQ)
    assert q2 == parse_poly("X1_0^2", pvs2, QQ)


def test_decompose_difference_random_any_ring():
    rng = random.Random("nbhd-decompose")
    for ring in (QQ, ZZ, Z2):
        for n in (1, 2, 3):
            varset = VarSet(tuple(f"X{i + 1}" for i in range(n)))
            pvs = pair_varset(varset)
            copy0 = [Polynomial.variable(pvs, ring, i) for i in range(n)]
            copy1 = [Polynomial.variable(pvs, ring, n + i) for i in range(n)]
            for _ in range(10):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    exps = tuple(rng.randint(0, 3) for _ in range(n))
                    terms[exps] = rng.randint(-4, 4)
                p = Polynomial(varset, ring, terms)
                qs = decompose_difference(p)
                total = Polynomial.zero(pvs, ring)
                for i, q in enumerate(qs):
                    total = total + q * (copy1[i] - copy0[i])
                assert total == p.substitute(copy1) - p.substitute(copy0)


def test_decompose_difference_mismatch_raises_typed_error(monkeypatch):
    # the self-check compares against P(copy 1) - P(copy 0); spoil that side
    def spoiled(self, images, varset=None):
        return Polynomial.zero(images[0].varset, self.ring)

    monkeypatch.setattr(Polynomial, "substitute", spoiled)
    with pytest.raises(ReexpansionFailed):
        decompose_difference(parse_poly("X^2*Y + X", VarSet(("X", "Y")), QQ))


# -- kernel rewriting -------------------------------------------------------------


def test_rewrite_kernel_element_goldens():
    D = FpAlgebra(QQ, ("X",), ["X^2"])
    T, i0, i1 = tensor(D, D)

    pairs = rewrite_kernel_element(D, "X_1 - X_0")
    assert len(pairs) == 1
    coefficient, generator = pairs[0]
    assert coefficient == T.one()
    assert generator == T.element("X_1 - X_0")

    pairs = rewrite_kernel_element(D, "X_0*X_1")
    assert len(pairs) == 1
    coefficient, generator = pairs[0]
    assert coefficient == T.element("X_0")
    assert generator == T.element("X_1 - X_0")

    assert rewrite_kernel_element(D, 0) == []


def test_rewrite_kernel_element_rejects_non_kernel():
    D = FpAlgebra(QQ, ("X",), ["X^2"])
    with pytest.raises(NotInKernel):
        rewrite_kernel_element(D, "X_0")
    with pytest.raises(NotInKernel):
        rewrite_kernel_element(D, 1)


def test_rewrite_kernel_element_presents_one_tensor_algebra(monkeypatch):
    # the multiplication map starts from the tensor algebra already built
    D = FpAlgebra(QQ, ("X",), ["X^2"])
    presented = []
    present = FpAlgebra._present

    def counting(self, *args):
        presented.append(args[1])
        present(self, *args)

    monkeypatch.setattr(FpAlgebra, "_present", counting)
    rewrite_kernel_element(D, "X_0*X_1")
    with pytest.raises(NotInKernel):
        rewrite_kernel_element(D, "X_0")
    assert [str(varset) for varset in presented] == ["(X_0, X_1)"] * 2


def test_rewrite_kernel_element_mismatch_raises_typed_error(monkeypatch):
    # every map now sends everything to zero: the element still passes the
    # kernel test, but the standard generators vanish and cannot rebuild it
    D = FpAlgebra(QQ, ("X",), ["X^2"])
    monkeypatch.setattr(algebra.AlgebraMap, "apply", lambda self, x: self.codomain.zero())
    with pytest.raises(ReexpansionFailed):
        rewrite_kernel_element(D, "X_1 - X_0")


def test_rewrite_kernel_element_random():
    base = FpAlgebra(QQ, ("e1", "e2"), ["e1^2", "e1*e2", "e2^2"])
    T, i0, i1 = tensor(base, base)
    rng = random.Random("nbhd-kernel")
    gens = base.generators()
    for _ in range(15):
        t = T.zero()
        for _ in range(rng.randint(1, 3)):
            b = rng.choice(gens)
            c = T.element(rng.randint(-3, 3)) * rng.choice(
                [T.one(), i0.apply(rng.choice(gens))]
            )
            t = t + c * (i1.apply(b) - i0.apply(b))
        pairs = rewrite_kernel_element(base, t)
        total = T.zero()
        for coefficient, generator in pairs:
            total = total + coefficient * generator
        assert total == t


# -- extension and the universal difference matrix --------------------------------


def test_extend_matrix_golden():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0"], ["0", "e2"]])
    extended = extend_matrix(matrix, [5, 7])
    assert extended.rows == 3
    assert extended.row(2) == (full.element("5*e1"), full.element("7*e2"))
    assert in_dtilde(extended)


def test_extend_matrix_degenerate_weights():
    full = square_zero_full()
    matrix = SimplexMatrix(full, [["e1", "0"], ["0", "e2"]])
    zeros = extend_matrix(matrix, [0, 0])
    assert zeros.row(2) == (full.zero(), full.zero())
    duplicate = extend_matrix(matrix, [0, 1])
    assert duplicate.row(2) == matrix.row(1)


def test_extend_matrix_arbitrary_weights_stay_inside():
    """No affineness is needed for the anchored variety to absorb row sums."""
    full = square_zero_full(QQ, 3)
    matrix = SimplexMatrix(full, [["e1", "0", "e1"], ["0", "e2", "e3"]])
    assert in_dtilde(matrix)
    rng = random.Random("nbhd-extend")
    current = matrix
    for _ in range(4):
        weights = [
            current.codomain.element(rng.randint(-5, 5)) for _ in range(current.rows)
        ]
        current = extend_matrix(current, weights)
        assert in_dtilde(current)


def test_extend_matrix_guards():
    thin = squares_only()
    bad = SimplexMatrix(thin, [["e1", "e2"]])
    with pytest.raises(NotInDtilde):
        extend_matrix(bad, [1])
    full = square_zero_full()
    good = SimplexMatrix(full, [["e1", "0"]])
    with pytest.raises(ArityMismatch):
        extend_matrix(good, [1, 2])


def test_scans_never_multiply_by_zero(monkeypatch):
    # a product with a zero factor is zero, so the difference products, the
    # difference-variety equations and the weighted row sums never hand one
    # to the sum-of-products kernel, through which every element product goes
    kernel = FpAlgebra._sum_of_products

    def nonzero_factors(self, pairs):
        pairs = list(pairs)
        for a, b in pairs:
            if not a or not b:
                raise AssertionError(f"product with a zero factor: {a} * {b}")
        return kernel(self, pairs)

    monkeypatch.setattr(FpAlgebra, "_sum_of_products", nonzero_factors)
    thin, full = squares_only(), square_zero_full()
    staircase = [["0", "0"], ["e1", "0"], ["e1", "e2"]]
    assert is_simplex(SimplexMatrix(full, staircase))
    verdict = is_simplex(SimplexMatrix(thin, [["0", "0"], ["e1", "0"], ["0", "e2"]]))
    assert verdict.witness.indices == (2, 3, 1, 2) and str(verdict.witness.value) == "-e1*e2"
    assert in_dtilde(SimplexMatrix(full, [["e1", "0"], ["0", "0"], ["e1", "e2"]]))
    verdict = in_dtilde(SimplexMatrix(thin, [["e1", "0"], ["0", "0"], ["0", "e2"]]))
    assert verdict.witness.indices == (1, 3, 1, 2) and str(verdict.witness.value) == "e1*e2"
    zero_row, row = [full.zero()] * 2, [full.element("e1"), full.zero()]
    assert vectors_neighbour(zero_row, row) and vectors_neighbour(row, row)
    assert not vectors_neighbour([thin.zero()] * 2, [thin.element("e1"), thin.element("e2")])
    maps = maps_of_matrix(SimplexMatrix(full, staircase))
    combined = affine_combination(maps, [-1, 1, 1])
    assert [str(x) for x in combined.images] == ["2*e1", "e2"]
    combined = affine_combination_rows(SimplexMatrix(full, staircase), ["1 - e2", "e2", 0])
    assert [str(x) for x in combined] == ["0", "0"]
    extended = extend_matrix(SimplexMatrix(full, [["e1", "0"], ["0", "0"]]), [3, "e2"])
    assert [str(x) for x in extended.row(2)] == ["3*e1", "0"]


def square_zero_by_groebner(ring=QQ, n=2):
    """square_zero_full's quotient with one more relation, e1^2 + e1^3: it
    lies in the ideal but is not a monomial, so the same algebra takes the
    Groebner engine, where no scan is decided by the supports of its
    entries."""
    full = square_zero_full(ring, n)
    return FpAlgebra(ring, full.varset.names, [*full.relations, "e1^2 + e1^3"])


VANISHING_ROWS = [["e1", "2*e2", "e3"], ["e2", "e3", "e1 - e2"], ["3*e1 + e3", "e2 - e1", "e1"]]


def recorded_elements_and_kernel_calls(monkeypatch):
    """Lists that collect the representative of every AlgebraElement built
    and the factor pairs of every sum-of-products kernel call."""
    built, calls = [], []
    init, kernel = AlgebraElement.__init__, FpAlgebra._sum_of_products

    def recorded(self, parent, rep):
        built.append(rep)
        init(self, parent, rep)

    def counted(self, pairs):
        pairs = list(pairs)
        calls.append(pairs)
        return kernel(self, pairs)

    monkeypatch.setattr(AlgebraElement, "__init__", recorded)
    monkeypatch.setattr(FpAlgebra, "_sum_of_products", counted)
    return built, calls


def test_passing_scans_build_no_element_for_a_vanishing_equation(monkeypatch):
    # every difference product and difference-variety equation below
    # vanishes; a scan builds an element only for an equation that does not.
    # Under the Groebner engine the scans run in full.
    full = square_zero_by_groebner(QQ, 3)
    assert full.strategy == "groebner"
    simplex = SimplexMatrix(full, VANISHING_ROWS)
    member = SimplexMatrix(full, VANISHING_ROWS[:2])
    f, g, h = maps_of_matrix(simplex)
    weights = CoefficientVector.affine(full, [2, -1])
    built, calls = recorded_elements_and_kernel_calls(monkeypatch)
    assert in_dtilde(member) and not built and calls  # no element at all
    # the differences of two rows are elements, none of them zero here
    scans = (
        lambda: is_simplex(simplex),
        lambda: is_neighbour(f, g),
        lambda: vectors_neighbour(simplex.row(0), simplex.row(2)),
    )
    for scan in scans:
        built.clear()
        assert scan() and built and all(built)
    built.clear()
    # and the combination's precondition: only the combined images are built
    combined = affine_combinations([f, g, h], [weights])[0]
    # the weights are (0, 2, -1)
    assert [str(x) for x in combined.images] == ["-3*e1 + 2*e2 - e3", "e1 - e2 + 2*e3", "e1 - 2*e2"]
    assert built and all(built)


def test_scans_decided_by_support_form_no_product(monkeypatch):
    # over monomial relations that delete every product of two monomials of
    # the entries' (or the differences') supports, every equation vanishes
    # whatever the coefficients: the scans call no kernel and build nothing
    full = square_zero_full(QQ, 3)
    simplex = SimplexMatrix(full, VANISHING_ROWS)
    member = SimplexMatrix(full, VANISHING_ROWS[:2])
    f, g, h = maps_of_matrix(simplex)
    weights = CoefficientVector.affine(full, [2, -1])
    built, calls = recorded_elements_and_kernel_calls(monkeypatch)
    scans = (
        lambda: in_dtilde(member),
        lambda: is_simplex(simplex),
        lambda: is_neighbour(f, g),
        lambda: vectors_neighbour(simplex.row(0), simplex.row(2)),
    )
    for scan in scans:
        assert scan()
        assert built == [] and calls == []
    # the combination builds its three columns, one kernel call each, and
    # nothing for its precondition
    combined = affine_combinations([f, g, h], [weights])[0]
    assert [str(x) for x in combined.images] == ["-3*e1 + 2*e2 - e3", "e1 - e2 + 2*e3", "e1 - 2*e2"]
    assert [str(x) for x in built] == [str(x.rep) for x in combined.images]
    assert len(calls) == 3


def test_universal_dtilde_2x2_determinant():
    algebra, matrix = universal_dtilde(2, 2, QQ)
    assert in_dtilde(matrix)
    det = algebra.element("a11*a22 - a12*a21")
    # the cross relation identifies a12*a21 with -a11*a22
    assert det == algebra.element("2*a11*a22")
    assert not det.is_zero()

    algebra2, _ = universal_dtilde(2, 2, Z2)
    assert algebra2.element("a11*a22 - a12*a21").is_zero()


def test_universal_dtilde_specialization():
    full = square_zero_full()
    algebra, _ = universal_dtilde(2, 2, QQ)
    # a matrix inside the variety induces a specialization map...
    ok = AlgebraMap(algebra, full, ["e1", "0", "0", "e2"])
    assert ok.apply(algebra.element("a11*a21")).is_zero()
    # ...and one outside does not
    thin = squares_only()
    with pytest.raises(IllDefinedMap):
        AlgebraMap(algebra, thin, ["e1", "0", "0", "e2"])


def test_universal_dtilde_guards():
    with pytest.raises(NonFieldCoefficients):
        universal_dtilde(2, 2, ZZ)
    with pytest.raises(ValueError):
        universal_dtilde(0, 2, QQ)
    with pytest.raises(ValueError):
        universal_dtilde(2, 0, QQ)


def test_universal_dtilde_one_row_over_any_ring():
    # with one row only the row products remain: unit monomials
    for ring in (ZZ, RingSpec.modular(4)):
        algebra, matrix = universal_dtilde(1, 2, ring)
        assert algebra.strategy == "monomial"
        assert in_dtilde(matrix)
        assert algebra.element("a11*a12 + a11 + 3*a11^2").rep == algebra.element("a11").rep


def test_universal_dtilde_transpose_stays_inside():
    _, matrix = universal_dtilde(2, 3, QQ)
    assert in_dtilde(matrix.transpose())
