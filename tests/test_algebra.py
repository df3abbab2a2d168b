import random
import re
from fractions import Fraction

import pytest

from nbhd.algebra import (
    AlgebraMap,
    FpAlgebra,
    adjoin_variables,
    classifying_map,
    compose,
    diagonal_ideal,
    free_algebra,
    identity_map,
    multi_diagonal_ideal,
    multiplication_map,
    neighbourhood_of_diagonal,
    pairing_map,
    tensor,
    tensor_power,
    universal_simplex,
)
from nbhd.arith import QQ, RingSpec, ZZ
from nbhd.errors import (
    ArityMismatch,
    CompositionMismatch,
    DegreeGuardExceeded,
    DomainMismatch,
    IllDefinedMap,
    InvalidArgument,
    InvalidExponent,
    NonFieldCoefficients,
    NbhdError,
    ParentMismatch,
    RingMismatch,
    UninterpretableValue,
    VarSetMismatch,
)
import nbhd.algebra
import nbhd.ideal
from nbhd.ideal import Ideal, buchberger, s_polynomial
from nbhd.neighbour import universal_dtilde
from nbhd.poly import MonomialOrder, Polynomial, VarSet, parse_poly
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra, squares_only


def dual_numbers(ring=QQ):
    return FpAlgebra(ring, ("X",), ["X^2"])


def square_zero(ring=QQ, n=2):
    names = tuple(f"e{i + 1}" for i in range(n))
    rels = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    return FpAlgebra(ring, names, rels)


# -- presentation and normal forms -------------------------------------------


def test_normal_forms_in_quotient():
    D = dual_numbers()
    assert D.element("X^2").is_zero()
    assert D.element("X^2 + X") == D.generator("X")
    assert str(D.element("3*X^3 + 2*X + 1")) == "2*X + 1"


def test_unit_is_computed_once():
    # Q[e]/(1) is the zero ring: its unit is zero
    zero_ring = FpAlgebra(QQ, ("e",), ["1"])
    one = zero_ring.one()
    assert one.is_zero() and one == zero_ring.element(1)
    assert zero_ring.one().rep is one.rep
    z4 = RingSpec.modular(4)
    dual = FpAlgebra(z4, ("e",), ["e^2"])
    one = dual.one()
    assert one == dual.element(1) and not one.is_zero()
    assert dual.one().rep is one.rep
    e = dual.generator("e")
    assert one * e == e and (2 * one) * (2 * one) == dual.zero()


def test_relations_and_normal_forms_check_ring_and_variables():
    other_vars = VarSet(("Y",))
    with pytest.raises(RingMismatch):
        FpAlgebra(QQ, ("X",), [parse_poly("X^2", VarSet(("X",)), ZZ)])
    with pytest.raises(VarSetMismatch):
        FpAlgebra(QQ, ("X",), [parse_poly("Y^2", other_vars, QQ)])
    with pytest.raises(TypeError):
        FpAlgebra(QQ, ("X",), [2])
    assert FpAlgebra(QQ, ("X",), ["X^2", "X - X"]).relations == dual_numbers().relations
    # the Groebner engine leaves the two checks to its basis, which holds
    # the algebra's own varset and ring: same errors, same texts
    monomial, groebner = dual_numbers(), FpAlgebra(QQ, ("X",), ["X^2 - X"])
    assert (monomial.strategy, groebner.strategy) == ("monomial", "groebner")
    for D in (monomial, groebner):
        with pytest.raises(RingMismatch) as refused:
            D.normal_form(parse_poly("X", D.varset, ZZ))
        assert str(refused.value) == "Z vs Q"
        with pytest.raises(VarSetMismatch) as refused:
            D.normal_form(parse_poly("Y", other_vars, QQ))
        assert str(refused.value) == "(Y) vs (X)"


def test_groebner_strategy_quotient():
    A = FpAlgebra(QQ, ("X",), ["X^2 - X"])
    assert A.strategy == "groebner"  # picked by the relations
    x = A.generator(0)
    assert x * x == x
    assert (x ** 5) == x
    with pytest.raises(InvalidExponent):
        x ** -1


def test_monomial_strategy_guards():
    # relations that are not unit monomials need a field
    with pytest.raises(NonFieldCoefficients, match="2\\*X\\^2"):
        FpAlgebra(ZZ, ("X",), ["2*X^2"])
    with pytest.raises(NonFieldCoefficients, match="X\\^2 - X"):
        FpAlgebra(ZZ, ("X",), ["X^2 + X^3", "X^2 - X"])
    assert FpAlgebra(QQ, ("X",), ["2*X^2"]).strategy == "monomial"  # 2 is a unit in Q
    # unit coefficients are fine for the monomial engine over any ring
    A = FpAlgebra(ZZ, ("X",), ["X^2"])
    assert A.element("X^3 + X").rep == parse_poly("X", A.varset, ZZ)


@pytest.mark.parametrize("cap", [-5, "3"], ids=repr)
def test_degree_cap_is_checked_under_both_engines(cap):
    # the monomial engine never reaches the guard, so the cap is checked on entry
    for relations in (["x^2"], ["x^2 - 1"]):
        with pytest.raises(InvalidArgument, match="degree cap"):
            FpAlgebra(QQ, ("x",), relations, degree_cap=cap)
    with pytest.raises(InvalidArgument, match="degree cap"):
        universal_dtilde(2, 2, QQ, degree_cap=cap)


@pytest.mark.parametrize("order", ["lex", "nonsense", None], ids=repr)
def test_order_is_checked_under_both_engines(order):
    # a string order used to be accepted by the monomial engine and to reach
    # a bare KeyError in the Groebner one
    for relations in (["x^2"], ["x^2 - y"]):
        with pytest.raises(InvalidArgument, match="monomial order"):
            FpAlgebra(QQ, ("x", "y"), relations, order=order)
    with pytest.raises(InvalidArgument, match="monomial order"):
        universal_dtilde(2, 2, QQ, order=order)
    with pytest.raises(InvalidArgument, match="monomial order"):
        universal_simplex(free_algebra(QQ, ["x"]), 1, order=order)


def test_counts_and_relations_of_the_wrong_type_raise_typed_errors():
    base = free_algebra(QQ, ["x"])
    for p in ("a", 1.5, True, None):
        with pytest.raises(UninterpretableValue, match="p must be an integer"):
            universal_simplex(base, p)
        with pytest.raises(UninterpretableValue, match="count must be an integer"):
            tensor_power(base, p)
        with pytest.raises(UninterpretableValue, match="p must be an integer"):
            universal_dtilde(p, 2, QQ)
        with pytest.raises(UninterpretableValue, match="n must be an integer"):
            universal_dtilde(2, p, QQ)
    for relations in (None, 3):
        with pytest.raises(UninterpretableValue, match="not iterable"):
            FpAlgebra(QQ, ["x"], relations)


def test_element_arithmetic():
    A = square_zero()
    e1, e2 = A.generators()
    assert ((1 + e1) * (1 + e2)) == 1 + e1 + e2
    assert ((e1 + e2) ** 2).is_zero()
    assert (Fraction(1, 2) * e1 + Fraction(1, 2) * e1) == e1
    assert 1 - (1 - e1) == e1
    assert bool(e1) and not bool(e1 * e2)


def test_parent_mismatch():
    a = dual_numbers().generator(0)
    b = square_zero().generator(0)
    with pytest.raises(ParentMismatch):
        a + b


def test_equal_operands_combine_and_unequal_ones_raise_typed_errors():
    # the identity fast paths must neither refuse equal but distinct rings,
    # varsets and parents nor let unequal ones through
    r1, r2 = RingSpec.parse("Z/5"), RingSpec.parse("Z/5")
    v1, v2 = VarSet(("x", "y")), VarSet(("x", "y"))
    assert r1 == r2 and r1 is not r2 and v1 == v2 and v1 is not v2
    p, q = parse_poly("x + 2*y", v1, r1), parse_poly("3*x - y", v2, r2)
    assert p + q == parse_poly("4*x + y", v1, r1)
    assert p - q == parse_poly("3*x + 3*y", v1, r1)
    assert p * q == parse_poly("3*x^2 + 3*y^2", v1, r1)  # 5*x*y vanishes
    over_z7 = parse_poly("x", v1, RingSpec.parse("Z/7"))
    over_xz = parse_poly("x", VarSet(("x", "z")), r1)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(RingMismatch):
            op(p, over_z7)
        with pytest.raises(VarSetMismatch):
            op(p, over_xz)

    A1, A2 = FpAlgebra(r1, v1, ["x^2", "y^2"]), FpAlgebra(r2, v2, ["x^2", "y^2"])
    assert A1 == A2 and A1 is not A2
    a, b = A1.element("1 + x"), A2.element("x + y")
    assert a + b == A1.element("1 + 2*x + y")
    assert a - b == A1.element("1 - y")
    assert a * b == b * a == A1.element("x + y + x*y")
    assert A1.element(b) is b
    other = FpAlgebra(r1, v1, ["x^2"])
    c = other.element("x")
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        with pytest.raises(ParentMismatch):
            op(a, c)
    with pytest.raises(ParentMismatch):
        other.element(a)


def test_free_algebra():
    F = free_algebra(QQ, ("a", "b"))
    assert F.is_free
    assert not dual_numbers().is_free
    x = F.element("a*b + 1")
    assert x * x == F.element("a^2*b^2 + 2*a*b + 1")


def test_algebra_equality():
    assert dual_numbers() == dual_numbers()
    assert dual_numbers() != dual_numbers(RingSpec.modular(5))
    assert square_zero(n=1) != dual_numbers()  # different generator names


# -- maps ---------------------------------------------------------------------


def test_map_validation():
    D = dual_numbers()
    scalars = free_algebra(QQ, ())
    with pytest.raises(IllDefinedMap):
        AlgebraMap(D, scalars, [scalars.one()])  # 1^2 != 0
    ok = AlgebraMap(D, scalars, [scalars.zero()])
    assert ok.apply(D.element("3*X + 2")) == scalars.element(2)
    with pytest.raises(ArityMismatch):
        AlgebraMap(D, D, [])


def test_apply_is_multiplicative():
    A = square_zero()
    D = dual_numbers()
    f = AlgebraMap(A, D, ["X", "2*X"])
    rng = random.Random("algebra-apply")
    for _ in range(30):
        x = A.element(
            Polynomial(
                A.varset,
                QQ,
                {
                    (rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-4, 4))
                    for _ in range(rng.randint(1, 3))
                },
            )
        )
        y = A.element(rng.randint(-3, 3)) + rng.randint(-3, 3) * A.generator(0)
        assert f.apply(x * y) == f.apply(x) * f.apply(y)
        assert f.apply(x + y) == f.apply(x) + f.apply(y)


def test_products_and_maps_never_delete_terms(monkeypatch):
    # products in a monomial quotient form only the surviving terms, and
    # map evaluation reduces as it goes, so neither reaches normal_form
    A = FpAlgebra(QQ, ("x", "y"), ["x^3", "y^2"])
    x, y = A.generators()
    a, b = A.element("1 + x + y"), A.element("x^2 - 2*y + 3")
    D = FpAlgebra(QQ, ("e",), ["e^2"])
    one, e = D.one(), D.generator(0)
    F = free_algebra(QQ, ("X",))
    power = F.element("X^3200")

    def refuse(*args):
        raise AssertionError("normal_form reached")

    monkeypatch.setattr(FpAlgebra, "normal_form", refuse)
    assert str(a * b) == "x^2*y + x^2 - 2*x*y + 3*x + y + 3"
    assert (x * x * x).is_zero() and (y * y).is_zero()
    f = AlgebraMap(F, D, [one + e])
    assert str(f.apply(power)) == "3200*e + 1"
    g = AlgebraMap(A, D, [e, e])  # x^3 and y^2 both map to zero
    assert str(g.apply(a)) == "2*e + 1"
    with pytest.raises(IllDefinedMap):
        AlgebraMap(A, D, [one, e])  # x^3 maps to 1


def test_zero_images_are_never_multiplied(monkeypatch):
    # every term with y or z maps to zero, so evaluation skips it: no power
    # of a zero image and no product with one is formed, in the relation
    # check at construction or in apply
    zero_operands = []
    product = FpAlgebra._product

    def counted(self, a, b):
        if a.is_zero() or b.is_zero():
            zero_operands.append((a, b))
        return product(self, a, b)

    monkeypatch.setattr(FpAlgebra, "_product", counted)
    A = FpAlgebra(QQ, ("x", "y", "z"), ["y^3", "x*z^2"])
    D = FpAlgebra(QQ, ("e",), ["e^2"])
    f = AlgebraMap(A, D, ["1 + e", "0", "0"])
    assert str(f.apply(A.element("x*y^2 + y*z + z^2 + x^2 + 3"))) == "2*e + 4"
    assert str(f.apply(A.element("y + z"))) == "0"
    assert zero_operands == []


def test_zero_powers_and_partial_products_are_never_multiplied(monkeypatch):
    # e^2 = 0 ends square-and-multiply for x^5, and a partial product that
    # comes out zero (x*z here, x*y*z in the squares-only codomain) ends its
    # term before the next factor is multiplied on
    zero_operands = []
    product = FpAlgebra._product

    def counted(self, a, b):
        if a.is_zero() or b.is_zero():
            zero_operands.append((a, b))
        return product(self, a, b)

    monkeypatch.setattr(FpAlgebra, "_product", counted)
    A = free_algebra(QQ, ("x", "y", "z", "w"))
    D = FpAlgebra(QQ, ("e",), ["e^2"])
    f = AlgebraMap(A, D, ["e", "1 + e", "2*e", "1"])
    assert str(f.apply(A.element("x^5 + x^2*y^3 + x*y^2 + y^4 + x*z*w + 3"))) == "5*e + 4"
    S = squares_only(QQ, 2)
    g = AlgebraMap(A, S, ["e1 + e2", "e1", "e2", "1 + e1"])
    assert str(g.apply(A.element("x^5 + x*y*z*w + y*z + w^3"))) == "e1*e2 + 3*e1 + 1"
    assert zero_operands == []


def test_zero_divisor_products_drop_out():
    A = FpAlgebra(RingSpec.modular(4), ("x", "y"), ["x^2", "y^2"])
    a, b = A.element("2 + 2*x"), A.element("2 + 2*y")
    assert (a * b).is_zero()  # every coefficient is 4 = 0
    assert str(A.element("2 + x") * b) == "2*x*y + 2*x"  # 4 and 4*y vanish


def _count_divisibility_tests(monkeypatch):
    calls = []
    dividing = nbhd.ideal._Divisors.dividing

    def counted(self, exps):
        calls.append(exps)
        return dividing(self, exps)

    monkeypatch.setattr(nbhd.ideal._Divisors, "dividing", counted)
    return calls


def test_algebras_of_one_shape_share_their_product_table(monkeypatch):
    # the table is keyed by the relation exponents alone: ring, order and
    # variable names do not change which exponent sums a relation divides
    monkeypatch.setattr(nbhd.algebra, "_TABLES", {})
    A = FpAlgebra(QQ, ("e1", "e2"), ["e1^2", "e2^2"])
    a, b = A.element("1 + 2*e1 - e2"), A.element("3 + e1 + e2")
    calls = _count_divisibility_tests(monkeypatch)
    first = a * b
    assert calls  # the first product fills the table
    B = FpAlgebra(RingSpec.modular(4), ("u", "v"), ["3*u^2", "v^2"], MonomialOrder.LEX)
    assert B._table is A._table
    c, d = B.element("1 + 2*u - v"), B.element("3 + u + v")
    del calls[:]
    assert str(c * d) == "u*v + 3*u + 2*v + 3"  # 2*u*u and -v*v deleted, 6 = 2 and -3 = 1
    assert calls == []
    assert str(first) == "e1*e2 + 7*e1 - 2*e2 + 3"
    # a different exponent set, or more variables, is another table
    assert FpAlgebra(QQ, ("e1", "e2"), ["e1^2", "e2^3"])._table is not A._table
    assert FpAlgebra(QQ, ("e1", "e2", "e3"), ["e1^2", "e2^2"])._table is not A._table
    assert FpAlgebra(QQ, ("X", "Y"), ["X^2 - Y"])._table is None  # Groebner engine
    # a free algebra holds the table of no relations, shared like any other
    free = free_algebra(QQ, ("e1", "e2"))._table
    assert free is not None and free is not A._table
    assert free_algebra(RingSpec.modular(4), ("u", "v"))._table is free


def test_normal_forms_test_each_monomial_once_across_algebras_of_one_shape(monkeypatch):
    # a normal form reads the product table's unit row, so a monomial that
    # any algebra of the same relation exponents has met is not tested again
    monkeypatch.setattr(nbhd.algebra, "_TABLES", {})
    A = FpAlgebra(QQ, ("x", "y"), ["x^3", "y^2"])
    p = parse_poly("x^3 + x^2*y - 2*x*y + y^2 + 5*y + 1", A.varset, QQ)
    B = FpAlgebra(RingSpec.modular(4), ("u", "v"), ["u^3", "3*v^2"], MonomialOrder.LEX)
    q = parse_poly("u^3 + u^2*v + 2*u*v + v^2 + 5*v + 1", B.varset, B.ring)
    calls = _count_divisibility_tests(monkeypatch)
    assert str(A.normal_form(p)) == "x^2*y - 2*x*y + 5*y + 1"
    assert str(A.normal_form(p)) == "x^2*y - 2*x*y + 5*y + 1"
    assert str(B.normal_form(q)) == "u^2*v + 2*u*v + v + 1"
    assert sorted(calls) == sorted(p._terms)  # once per distinct monomial
    # a free algebra keeps every term, and multiplies as the free ring does
    F = free_algebra(ZZ, ("x", "y"))
    r = parse_poly("x^3 + x^2*y - 2*x*y + y^2 + 1", F.varset, ZZ)
    assert F.normal_form(r) == r
    for a, b in ((r, r), (r + 1, r - 1), (r, F.zero().rep)):
        assert list(F._product(a, b)._terms.items()) == list((a * b)._terms.items())


def test_product_tables_stay_bounded_and_correct_after_a_clear(monkeypatch):
    # Q[X,Y]/(X*Y) is infinite-dimensional: products of growing degree keep
    # asking for new exponent pairs, and a full table is cleared
    monkeypatch.setattr(nbhd.algebra, "_TABLES", {})
    A = FpAlgebra(QQ, ("X", "Y"), ["X*Y"])
    basis = buchberger(Ideal(A.varset, QQ, A.relations))
    table, cap = A._table, nbhd.algebra._MAX_TABLE_ENTRIES
    cleared = False
    for degree in range(6):
        powers = range(32 * degree, 32 * degree + 32)
        terms = [((k, 0), k + 1) for k in powers] + [((0, k), 1) for k in powers]
        p = Polynomial(A.varset, QQ, terms)
        before = table.entries
        product = A._product(p, p)
        cleared = cleared or table.entries < before
        assert product == basis.normal_form(p * p)
        assert table.entries <= cap
        assert table.entries == sum(len(row) for row in table.rows.values())
    assert cleared
    # right after a clear the table answers from scratch, and correctly
    table.rows.clear()
    table.entries = 0
    q = A.element("X + Y + 1").rep
    assert A._product(q, q) == parse_poly("X^2 + 2*X + Y^2 + 2*Y + 1", A.varset, QQ)
    # the map of tables is cleared once it holds its cap
    for k in range(1, nbhd.algebra._MAX_TABLES + 10):
        FpAlgebra(ZZ, ("t",), [f"t^{k}"])
        assert 0 < len(nbhd.algebra._TABLES) <= nbhd.algebra._MAX_TABLES
    assert A._table is table  # an algebra keeps the table it was built with
    assert A._product(q, q) == parse_poly("X^2 + 2*X + Y^2 + 2*Y + 1", A.varset, QQ)


def test_maps_into_the_zero_algebra():
    zero = FpAlgebra(QQ, ("e",), ["1"])
    F = free_algebra(QQ, ("X",))
    assert AlgebraMap(F, zero, [zero.zero()]).apply(F.element("3*X + 2")).is_zero()
    AlgebraMap(FpAlgebra(QQ, ("X",), ["1"]), zero, [zero.zero()])  # 1 maps to 1 = 0


def test_maps_between_coefficient_rings_are_refused():
    F3 = free_algebra(RingSpec.modular(3), ("e",))
    with pytest.raises(RingMismatch):
        AlgebraMap(free_algebra(QQ, ()), F3, [])  # no image carries a ring
    with pytest.raises(RingMismatch):
        AlgebraMap(free_algebra(QQ, ("X",)), F3, [F3.generator(0)])


def test_identity_and_compose():
    A = square_zero()
    D = dual_numbers()
    f = AlgebraMap(A, D, ["X", "0"])
    g = AlgebraMap(D, D, ["2*X"])
    gf = compose(g, f)
    x = A.element("1 + e1 + e2")
    assert gf.apply(x) == g.apply(f.apply(x))
    assert compose(f, identity_map(A)) == f
    assert compose(identity_map(D), f) == f
    with pytest.raises(CompositionMismatch):
        compose(f, g)


# -- tensor products ----------------------------------------------------------


def test_tensor_renames_and_embeds_relations():
    D = dual_numbers()
    T, i0, i1 = tensor(D, D)
    assert T.varset.names == ("X_0", "X_1")
    assert set(map(str, T.relations)) == {"X_0^2", "X_1^2"}
    assert i0.apply(D.generator(0)) == T.generator("X_0")
    assert i1.apply(D.generator(0)) == T.generator("X_1")


def test_tensor_coproduct_universal_property():
    A = dual_numbers()
    C = square_zero()
    f = AlgebraMap(A, C, ["e1"])
    g = AlgebraMap(A, C, ["e1 + e2"])
    T, i0, i1 = tensor(A, A)
    h = pairing_map(f, g)
    assert h.domain == T
    assert compose(h, i0) == f
    assert compose(h, i1) == g
    # uniqueness: a map out of T is pinned down by its generator images,
    # which the two triangle identities force to be those of f and g
    assert h.images == tuple(f.images) + tuple(g.images)


def test_tensor_with_scalars_is_identity():
    A = square_zero()
    K = free_algebra(QQ, ())
    T, i0, _ = tensor(A, K)
    back = AlgebraMap(T, A, A.generators())
    assert compose(back, i0) == identity_map(A)
    assert len(T.varset) == len(A.varset)


def test_tensor_of_algebras_over_different_rings_is_refused():
    F3 = free_algebra(RingSpec.modular(3), ("e",))
    with pytest.raises(RingMismatch) as refused:
        tensor(dual_numbers(), F3)
    assert str(refused.value) == "Z/3 vs Q"


def test_tensor_power_three_copies():
    D = dual_numbers()
    T, inclusions = tensor_power(D, 3)
    assert T.varset.names == ("X_0", "X_1", "X_2")
    assert len(inclusions) == 3
    with pytest.raises(ValueError):
        tensor_power(D, 0)


def test_multiplication_map_retracts_both_inclusions():
    A = square_zero()
    m = multiplication_map(A)
    T, i0, i1 = tensor(A, A)
    assert compose(m, i0) == identity_map(A)
    assert compose(m, i1) == identity_map(A)
    x = T.element("e1_0*e2_1")
    assert m.apply(x) == A.element("e1*e2")
    assert m.apply(x).is_zero()


def test_pairing_map_acts_per_copy():
    A = dual_numbers()
    C = square_zero()
    f = AlgebraMap(A, C, ["e1"])
    g = AlgebraMap(A, C, ["e2"])
    pm = pairing_map(f, g)
    assert pm.apply(pm.domain.element("X_0*X_1")) == C.element("e1*e2")
    other = AlgebraMap(square_zero(), C, ["e1", "e2"])
    with pytest.raises(DomainMismatch):
        pairing_map(f, other)
    elsewhere = AlgebraMap(A, A, ["X"])
    with pytest.raises(DomainMismatch) as refused:
        pairing_map(f, elsewhere)
    assert str(refused.value) == "the two maps must share a codomain"


# -- diagonal ideals ----------------------------------------------------------


def test_diagonal_ideal_generators():
    F = free_algebra(QQ, ("X",))
    ideal = diagonal_ideal(F)
    assert [str(g) for g in ideal.generators] == ["-X_0 + X_1"]
    squared = diagonal_ideal(F, power=2)
    assert [str(g) for g in squared.generators] == ["X_0^2 - 2*X_0*X_1 + X_1^2"]
    with pytest.raises(ValueError):
        diagonal_ideal(F, power=3)


def test_diagonal_ideal_dies_under_multiplication():
    A = FpAlgebra(QQ, ("X",), ["X^3"])
    m = multiplication_map(A)
    for power in (1, 2):
        for gen in diagonal_ideal(A, power).generators:
            assert m.apply(m.domain.element(gen)).is_zero()


def test_multi_diagonal_ideal_counts():
    F = free_algebra(QQ, ("X",))
    ideal = multi_diagonal_ideal(F, 2)
    # one squared difference per unordered pair of the three copies
    assert len(ideal.generators) == 3
    assert str(ideal.generators[-1]) == "X_1^2 - 2*X_1*X_2 + X_2^2"
    with pytest.raises(ValueError):
        multi_diagonal_ideal(F, 0)


# -- universal simplex algebras -----------------------------------------------


def test_neighbourhood_presentation():
    F = free_algebra(QQ, ("X",))
    nbhd = neighbourhood_of_diagonal(F)
    assert nbhd.representation == "difference"
    assert nbhd.algebra.varset.names == ("X", "d_X")
    assert [str(r) for r in nbhd.algebra.relations] == ["d_X^2"]
    assert nbhd.maps[0].images[0] == nbhd.algebra.generator("X")
    assert nbhd.maps[1].images[0] == nbhd.algebra.element("X + d_X")
    assert nbhd.p == 1


def test_neighbourhood_works_over_z():
    F = free_algebra(ZZ, ("X", "Y"))
    nbhd = neighbourhood_of_diagonal(F)
    assert nbhd.algebra.ring == ZZ
    d = nbhd.algebra.element("d_X*d_Y")
    assert d.is_zero()


def test_simplex_p2_presentation():
    F = free_algebra(QQ, ("X",))
    simplex = universal_simplex(F, 2)
    assert simplex.algebra.varset.names == ("X", "d_X_1", "d_X_2")
    rels = {str(r) for r in simplex.algebra.relations}
    assert rels == {"d_X_1^2", "d_X_2^2", "d_X_1^2 - 2*d_X_1*d_X_2 + d_X_2^2"}
    assert simplex.p == 2
    # pairwise products of the three maps' displacement images vanish
    a = simplex.algebra
    assert (a.element("d_X_1") * a.element("d_X_2")).is_zero()


def test_simplex_relations_in_order():
    # both representations list the difference products by row pair, then
    # by column pair i <= j; the difference form anchors copy 0 at zero
    F = free_algebra(QQ, ("X", "Y"))
    difference = universal_simplex(F, 2, "difference").algebra.relations
    assert [str(r) for r in difference] == [
        "d_X_1^2",
        "d_X_1*d_Y_1",
        "d_Y_1^2",
        "d_X_2^2",
        "d_X_2*d_Y_2",
        "d_Y_2^2",
        "d_X_1^2 - 2*d_X_1*d_X_2 + d_X_2^2",
        "d_X_1*d_Y_1 - d_Y_1*d_X_2 - d_X_1*d_Y_2 + d_X_2*d_Y_2",
        "d_Y_1^2 - 2*d_Y_1*d_Y_2 + d_Y_2^2",
    ]
    tensor_form = universal_simplex(free_algebra(QQ, ("X",)), 2, "tensor").algebra.relations
    assert [str(r) for r in tensor_form] == [
        "X_0^2 - 2*X_0*X_1 + X_1^2",
        "X_0^2 - 2*X_0*X_2 + X_2^2",
        "X_1^2 - 2*X_1*X_2 + X_2^2",
    ]
    A = FpAlgebra(QQ, ("X", "Y"), ["X^2"])
    assert diagonal_ideal(A, 2) == multi_diagonal_ideal(A, 1)


def test_simplex_guards():
    with pytest.raises(ValueError):
        universal_simplex(free_algebra(QQ, ("X",)), 0)
    with pytest.raises(ValueError):
        universal_simplex(dual_numbers(), representation="difference")
    with pytest.raises(NonFieldCoefficients):
        universal_simplex(free_algebra(ZZ, ("X",)), 2)
    with pytest.raises(NonFieldCoefficients):
        universal_simplex(dual_numbers(ZZ))
    with pytest.raises(VarSetMismatch):
        neighbourhood_of_diagonal(free_algebra(QQ, ("X", "d_X")))


def test_representations_are_isomorphic():
    """The two presentations classify each other's map tuple, and the two
    classifying maps are mutually inverse."""
    F = free_algebra(QQ, ("X", "Y"))
    diff = universal_simplex(F, 1, "difference")
    tens = universal_simplex(F, 1, "tensor")
    u = classifying_map(diff, tens.maps)
    v = classifying_map(tens, diff.maps)
    assert compose(v, u) == identity_map(diff.algebra)
    assert compose(u, v) == identity_map(tens.algebra)


def test_classifying_map_triangles():
    F = free_algebra(QQ, ("X",))
    nbhd = neighbourhood_of_diagonal(F)
    D = dual_numbers()
    f = AlgebraMap(F, D, ["0"])
    g = AlgebraMap(F, D, ["X"])
    cm = classifying_map(nbhd, [f, g])
    assert compose(cm, nbhd.maps[0]) == f
    assert compose(cm, nbhd.maps[1]) == g


def test_classifying_map_rejects_non_neighbours():
    F = free_algebra(QQ, ("X",))
    nbhd = neighbourhood_of_diagonal(F)
    A = FpAlgebra(QQ, ("X",), ["X^3"])
    f = AlgebraMap(F, A, ["0"])
    g = AlgebraMap(F, A, ["X"])  # (g - f)(X)^2 = X^2 != 0 in Q[X]/(X^3)
    with pytest.raises(IllDefinedMap):
        classifying_map(nbhd, [f, g])
    with pytest.raises(ArityMismatch):
        classifying_map(nbhd, [f])
    with pytest.raises(DomainMismatch):
        classifying_map(nbhd, [f, AlgebraMap(A, A, ["X"])])
    with pytest.raises(DomainMismatch) as refused:
        classifying_map(nbhd, [f, AlgebraMap(F, dual_numbers(), ["X"])])
    assert str(refused.value) == "maps must share a codomain"


def test_an_unknown_representation_is_refused():
    with pytest.raises(InvalidArgument) as refused:
        universal_simplex(free_algebra(QQ, ("X",)), 1, "dual")
    assert str(refused.value) == "unknown representation 'dual'"


def _refuse(*args, **kwargs):
    raise AssertionError("no S-polynomial may be formed here")


def test_universal_quadrics_form_no_s_polynomial(monkeypatch):
    monkeypatch.setattr("nbhd.ideal.s_polynomial", _refuse)
    for algebra, _ in (
        universal_dtilde(4, 5, QQ, MonomialOrder.LEX),
        universal_dtilde(3, 3, RingSpec.modular(2)),
    ):
        assert algebra.strategy == "groebner"
    free = free_algebra(QQ, ("X1", "X2"))
    for representation in ("difference", "tensor"):
        simplex = universal_simplex(free, 4, representation)
        assert simplex.algebra.strategy == "groebner"
        factored = classifying_map(simplex, simplex.maps)
        assert factored == identity_map(simplex.algebra)
    for order in MonomialOrder:
        tensor_form = universal_simplex(free_algebra(RingSpec.modular(2), ("X", "Y", "Z")), 3, "tensor", order)
        assert tensor_form.algebra.strategy == "groebner"


def test_other_presentations_still_reach_buchberger(monkeypatch):
    formed = []

    def recording(*args, **kwargs):
        formed.append(args)
        return s_polynomial(*args, **kwargs)

    monkeypatch.setattr("nbhd.ideal.s_polynomial", recording)
    # over a presented base no series is known: the pair loop runs.  The
    # base has a two-term relation, since a Weil base's relations are single
    # terms and a pair of two single-term elements is never formed.
    tensor_form = universal_simplex(FpAlgebra(QQ, ("X", "Y"), ["X^2 - Y"]), 1, "tensor").algebra
    assert formed and tensor_form.strategy == "groebner"
    with pytest.raises(NonFieldCoefficients):
        universal_dtilde(2, 2, ZZ)


def test_universal_quadrics_need_no_degree_above_two():
    # the pair loop would form a degree-3 S-polynomial here; a certified
    # basis forms none
    algebra, _ = universal_dtilde(2, 2, QQ, degree_cap=2)
    assert algebra._gb.basis == universal_dtilde(2, 2, QQ)[0]._gb.basis
    assert algebra.element("a11*a22 + a12*a21").is_zero()
    free = free_algebra(QQ, ("X", "Y"))
    for representation in ("difference", "tensor"):
        simplex = universal_simplex(free, 2, representation, degree_cap=2)
        assert simplex.algebra.strategy == "groebner"
        assert simplex.algebra._gb.basis == universal_simplex(free, 2, representation).algebra._gb.basis
    for quotient in (algebra, simplex.algebra):
        with pytest.raises(DegreeGuardExceeded):
            buchberger(Ideal(quotient.varset, QQ, quotient.relations), quotient.order, 2)


def _projected_maps(simplex):
    """The simplex maps as the tensor power's inclusions followed by the
    projection onto the quotient, the construction the images replace."""
    quotient, n = simplex.algebra, len(simplex.base.varset)
    t, inclusions = tensor_power(simplex.base, simplex.p + 1)
    x = quotient.generators()
    if simplex.representation == "difference":  # copy r of g is g + d_g_r
        images = [x[i] + (x[r * n + i] if r else 0) for r in range(simplex.p + 1) for i in range(n)]
    else:
        images = x
    projection = AlgebraMap(t, quotient, images)
    return [compose(projection, inclusion) for inclusion in inclusions]


def _simplex_cases():
    for ring in (QQ, RingSpec.modular(2), RingSpec.modular(3)):
        for p in (1, 2, 3):
            free = free_algebra(ring, ("X", "Y"))
            yield universal_simplex(free, p, "difference")
            yield universal_simplex(free, p, "tensor")
            for pattern in WEIL_PATTERNS:
                weil = random_weil_algebra(10 * p, ring, 2 if p < 3 else 1, pattern)
                yield universal_simplex(weil, p, "tensor")
    yield universal_simplex(free_algebra(ZZ, ("X", "Y")), 1, "difference")


def test_simplex_maps_equal_the_projected_inclusions():
    for simplex in _simplex_cases():
        assert list(simplex.maps) == _projected_maps(simplex), simplex.algebra
        factored = classifying_map(simplex, simplex.maps)
        assert factored == identity_map(simplex.algebra)
        for f in simplex.maps:
            assert compose(factored, f) == f


def _count_map_builds(monkeypatch):
    built = []
    init = AlgebraMap.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraMap, "__init__", counting)
    return built


def test_universal_constructions_build_only_the_maps_they_return(monkeypatch):
    free, weil = free_algebra(QQ, ("X", "Y")), square_zero()
    f, g = AlgebraMap(weil, weil, ["e1", "e2"]), AlgebraMap(weil, weil, ["e2", "e1"])
    built = _count_map_builds(monkeypatch)
    for base, representation in ((free, "difference"), (free, "tensor"), (weil, "tensor")):
        for p in (1, 2, 3):
            built.clear()
            universal_simplex(base, p, representation)
            assert len(built) == p + 1, (representation, p)
    for build, count in (
        (lambda: multiplication_map(weil), 1),
        (lambda: pairing_map(f, g), 1),
        (lambda: diagonal_ideal(weil, 1), 0),
        (lambda: diagonal_ideal(weil, 2), 0),
        (lambda: multi_diagonal_ideal(weil, 3), 0),
    ):
        built.clear()
        build()
        assert len(built) == count


# -- adjoining variables --------------------------------------------------------


def test_adjoin_variables():
    A = dual_numbers()
    ext, inc = adjoin_variables(A, ("t",))
    assert ext.varset.names == ("X", "t")
    assert [str(r) for r in ext.relations] == ["X^2"]
    assert inc.apply(A.generator(0)) == ext.generator("X")
    t = ext.generator("t")
    assert not (t * t).is_zero()  # t is free
    with pytest.raises(VarSetMismatch):
        adjoin_variables(A, ("X",))


def test_values_of_no_readable_type_raise_a_typed_type_error():
    algebra = dual_numbers()
    with pytest.raises(UninterpretableValue, match="cannot interpret .* as an element") as error:
        algebra.element(object())
    with pytest.raises(UninterpretableValue, match="is not a polynomial") as relation:
        FpAlgebra(QQ, ("X",), [2.5])
    # callers that catch TypeError keep working
    for raised in (error.value, relation.value):
        assert isinstance(raised, NbhdError) and isinstance(raised, TypeError)


@pytest.mark.parametrize("ring", [None, "Q", 0, ("Q",)], ids=repr)
def test_a_ring_that_is_not_a_ring_spec_raises_a_typed_error(ring):
    text = re.escape(f"ring must be a RingSpec, got {ring!r}")
    with pytest.raises(UninterpretableValue, match=text) as error:
        FpAlgebra(ring, ["x"])
    assert isinstance(error.value, TypeError)
    with pytest.raises(UninterpretableValue, match="ring must be a RingSpec"):
        universal_dtilde(2, 2, ring)


@pytest.mark.parametrize("names", [None, 3, "xy"], ids=repr)
def test_names_that_are_no_iterable_of_strings_raise_typed_errors(names):
    # a string would be read character by character, "xy" as ("x", "y")
    base = free_algebra(QQ, ["a"])
    calls = (
        lambda: FpAlgebra(QQ, names),
        lambda: free_algebra(QQ, names),
        lambda: adjoin_variables(base, names),
    )
    text = re.escape(f"variable names must be an iterable of names, got {names!r}")
    for call in calls:
        with pytest.raises(UninterpretableValue, match=text) as error:
            call()
        assert isinstance(error.value, TypeError)


# -- identity: the signature is hashed when first asked for ------------------


def _presented(kind):
    if kind == "groebner":
        return FpAlgebra(QQ, ("x", "y"), ["x^2 - y", "x*y"])
    return FpAlgebra(QQ, ("x", "y"), ["x^2", "x*y"])


@pytest.mark.parametrize("kind", ["groebner", "monomial"])
@pytest.mark.parametrize("first", ["hash a", "hash b", "compare"])
def test_equal_algebras_compare_and_hash_equal_whichever_is_hashed_first(kind, first):
    a, b = _presented(kind), _presented(kind)
    assert a is not b
    if first == "hash a":
        hash(a)
    elif first == "hash b":
        hash(b)
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    # the relations in another order present the same algebra
    reordered = FpAlgebra(QQ, ("x", "y"), list(reversed(a.relations)))
    assert reordered == a and hash(reordered) == hash(a)


@pytest.mark.parametrize("hashed", [False, True])
def test_unequal_algebras_stay_unequal(hashed):
    a = _presented("groebner")
    others = [
        _presented("monomial"),
        FpAlgebra(RingSpec.modular(5), ("x", "y"), ["x^2 - y", "x*y"]),
        FpAlgebra(QQ, ("x", "z"), ["x^2 - z", "x*z"]),
        FpAlgebra(QQ, ("x", "y"), ["x^2 - y", "x*y"], MonomialOrder.LEX),
        FpAlgebra(QQ, ("x", "y"), ["x^2 - y"]),
    ]
    for other in others:
        if hashed:
            hash(other)
        assert a != other and other != a
    assert len({a, *others}) == 1 + len(others)


def test_a_presentation_hashes_no_relation(monkeypatch):
    # building an algebra, even D~(3, 3) with its Groebner basis, compares
    # no algebra, so no relation polynomial is hashed
    def refuse(self):
        raise AssertionError("a polynomial was hashed")

    monkeypatch.setattr(Polynomial, "__hash__", refuse)
    algebra, matrix = universal_dtilde(3, 3, QQ)
    assert algebra.strategy == "groebner" and len(algebra.relations) > 0
    assert matrix.codomain is algebra
    with pytest.raises(AssertionError, match="a polynomial was hashed"):
        hash(algebra)
