import itertools
import random
import re
from fractions import Fraction

import pytest

from nbhd.arith import QQ, RingSpec, ZZ
from nbhd.errors import (
    ArityMismatch,
    InvalidExponent,
    InvalidVariableName,
    NbhdError,
    ParseError,
    RingMismatch,
    UninterpretableValue,
    UnknownVariable,
    VariableOutOfRange,
    VarSetMismatch,
)
from nbhd.poly import (
    MonomialOrder,
    Polynomial,
    VarSet,
    format_poly,
    mono_mul,
    parse_poly,
    parse_poly_list,
)

XYZ = VarSet(("X", "Y", "Z"))
Z2 = RingSpec.modular(2)
Z5 = RingSpec.modular(5)


def P(text, varset=XYZ, ring=QQ):
    return parse_poly(text, varset, ring)


# -- variable sets ----------------------------------------------------------


def test_varset_basics():
    vs = VarSet(("a", "b1", "c_2"))
    assert len(vs) == 3
    assert list(vs) == ["a", "b1", "c_2"]
    assert "b1" in vs and "d" not in vs
    assert vs.index("c_2") == 2
    assert str(vs) == "(a, b1, c_2)"
    assert vs.suffixed("_0").names == ("a_0", "b1_0", "c_2_0")


@pytest.mark.parametrize("names", [None, 3, "xy"], ids=repr)
def test_varset_names_must_be_an_iterable_of_strings(names):
    # a string would be read character by character, "xy" as ("x", "y")
    text = re.escape(f"variable names must be an iterable of names, got {names!r}")
    with pytest.raises(UninterpretableValue, match=text) as error:
        VarSet(names)
    assert isinstance(error.value, TypeError)


def test_varset_empty_is_allowed():
    vs = VarSet(())
    assert len(vs) == 0
    p = Polynomial.constant(vs, QQ, Fraction(3, 2))
    assert str(p) == "3/2"
    assert p * p == Polynomial.constant(vs, QQ, Fraction(9, 4))


def test_varset_rejects_bad_names():
    with pytest.raises(InvalidVariableName):
        VarSet(("x", "2y"))
    with pytest.raises(InvalidVariableName):
        VarSet(("x", "a-b"))
    with pytest.raises(InvalidVariableName):
        VarSet(("x", "x"))
    with pytest.raises(UnknownVariable):
        XYZ.index("W")


# -- monomial orders --------------------------------------------------------


def test_order_distinguishing_examples():
    # Same total degree: X2^2 vs X1*X3.  Graded-lex would put X1*X3 first;
    # degrevlex prefers the monomial less divisible by the *last* variable.
    a = (1, 0, 1)  # X1*X3
    b = (0, 2, 0)  # X2^2
    dr = MonomialOrder.DEGREVLEX
    assert dr.key(b) > dr.key(a)
    lex = MonomialOrder.LEX
    assert lex.key(a) > lex.key(b)

    # lex ignores total degree entirely
    assert lex.key((1, 0, 0)) > lex.key((0, 9, 0))
    # degrevlex refines total degree
    assert dr.key((0, 9, 0)) > dr.key((1, 0, 0))


def test_order_axioms_exhaustive():
    """Multiplicativity and 1-minimality over all monomials of degree <= 4."""
    monos = [
        e
        for e in itertools.product(range(5), repeat=3)
        if sum(e) <= 4
    ]
    unit = (0, 0, 0)
    for order in MonomialOrder:
        key = order.key
        for a in monos:
            if a != unit:
                assert key(a) > key(unit)
        for a, b in itertools.combinations(monos, 2):
            lo, hi = (a, b) if key(a) < key(b) else (b, a)
            for c in monos[:12]:
                assert key(mono_mul(hi, c)) > key(mono_mul(lo, c))


def test_order_parse():
    assert MonomialOrder.parse("lex") is MonomialOrder.LEX
    assert MonomialOrder.parse(" DegRevLex ") is MonomialOrder.DEGREVLEX
    with pytest.raises(ParseError):
        MonomialOrder.parse("grevlex_elim")


# -- arithmetic -------------------------------------------------------------


def test_product_of_conjugates():
    assert P("Z - Y") * P("Z + Y") == P("Z^2 - Y^2")


@pytest.mark.parametrize("exps", [(-1,), (1.5,)])
def test_constructors_reject_invalid_exponents(exps):
    # before validation these built silently wrong objects: (-1,) printed as
    # "1" and (1.5,) as "x^1.5"
    vs = VarSet(("x",))
    with pytest.raises(InvalidExponent):
        Polynomial(vs, QQ, {exps: 1})
    with pytest.raises(ValueError):
        Polynomial(vs, QQ, {exps: 1})
    assert str(Polynomial(vs, QQ, {(2,): 1})) == "x^2"


def test_constructor_rejects_the_wrong_number_of_exponents():
    with pytest.raises(ArityMismatch, match="^2 exponents for 3 variables$"):
        Polynomial(XYZ, QQ, {(1, 0): 1})


def test_pow_and_frobenius():
    assert P("X + 1") ** 3 == P("X^3 + 3*X^2 + 3*X + 1")
    x_plus_y = parse_poly("X + Y", XYZ, Z2)
    assert x_plus_y ** 2 == parse_poly("X^2 + Y^2", XYZ, Z2)
    assert (P("X") ** 0) == Polynomial.one(XYZ, QQ)
    with pytest.raises(ValueError):
        P("X") ** -1
    with pytest.raises(InvalidExponent):
        P("X") ** -1


def test_mixed_scalar_coercion():
    p = P("X + Y")
    assert 2 * p == P("2*X + 2*Y")
    assert p - 1 == P("X + Y - 1")
    assert 1 - p == P("1 - X - Y")
    assert p.scale(Fraction(1, 2)) == P("1/2*X + 1/2*Y")
    assert -p == P("-X - Y")


def test_cancellation_drops_terms():
    p = P("X^2 + X") - P("X^2")
    assert len(p) == 1
    assert (p - p).is_zero()
    assert not (p - p)


def test_leading_term():
    p = P("X + Y^2 + 3")
    assert p.leading(MonomialOrder.DEGREVLEX) == ((0, 2, 0), Fraction(1))
    assert p.leading(MonomialOrder.LEX) == ((1, 0, 0), 1)
    assert Polynomial.zero(XYZ, QQ).leading() is None


def test_arithmetic_random_axioms():
    rng = random.Random("poly-axioms")
    rings = [QQ, ZZ, Z5]

    def rand_poly(ring):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if ring.kind == "Q":
                value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            else:
                value = rng.randint(-6, 6)
            terms[exps] = value
        return Polynomial(XYZ, ring, terms)

    for _ in range(80):
        ring = rng.choice(rings)
        p, q, r = (rand_poly(ring) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + (-p) == Polynomial.zero(XYZ, ring)


# -- substitution -----------------------------------------------------------


def test_substitute_example():
    p = P("X^2 + 1")
    vs = VarSet(("Y",))
    images = [parse_poly("Y + 1", vs, QQ), Polynomial.zero(vs, QQ), Polynomial.zero(vs, QQ)]
    assert p.substitute(images) == parse_poly("Y^2 + 2*Y + 2", vs, QQ)


def test_substitute_is_ring_homomorphism():
    rng = random.Random("poly-subst")
    vs = VarSet(("U", "V"))

    def rand_poly(varset, deg):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, deg) for _ in range(len(varset)))
            terms[exps] = Fraction(rng.randint(-4, 4))
        return Polynomial(varset, QQ, terms)

    for _ in range(40):
        p = rand_poly(XYZ, 2)
        q = rand_poly(XYZ, 2)
        images = [rand_poly(vs, 1) for _ in range(3)]
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_substitute_identity():
    p = P("X^2*Y - 3*Z + 1/2")
    assert p.substitute(Polynomial.variables(XYZ, QQ)) == p


def test_substitute_errors():
    p = P("X + Y")
    vs = VarSet(("U",))
    with pytest.raises(ArityMismatch):
        p.substitute([Polynomial.zero(vs, QQ)])
    other = VarSet(("W",))
    with pytest.raises(VarSetMismatch):
        p.substitute(
            [
                Polynomial.zero(vs, QQ),
                Polynomial.zero(other, QQ),
                Polynomial.zero(vs, QQ),
            ]
        )
    images = [Polynomial.zero(vs, QQ)] * 3
    with pytest.raises(RingMismatch, match="^Z/5 vs Q$"):
        p.substitute([Polynomial.zero(vs, Z5)] + images[1:])
    with pytest.raises(VarSetMismatch, match="^explicit varset disagrees with the images$"):
        p.substitute(images, varset=other)


def test_substitute_constants_into_empty_varset():
    p = Polynomial.constant(VarSet(()), QQ, 7)
    q = p.substitute([], varset=XYZ)
    assert q.varset == XYZ and q == 7


# -- printing and parsing ---------------------------------------------------


def test_format_examples():
    assert str(Polynomial.zero(XYZ, QQ)) == "0"
    assert str(P("Y + X")) == "X + Y"
    assert str(P("1*X")) == "X"
    assert str(P("-X - 1/2")) == "-X - 1/2"
    assert str(P("X^2 - X*Y")) == "X^2 - X*Y"


def test_format_modular_never_negative():
    p = parse_poly("-X", XYZ, Z5)
    assert str(p) == "4*X"
    q = parse_poly("X - Y", XYZ, Z2)
    assert str(q) == "X + Y"


def test_format_orders_terms_degrevlex():
    assert str(P("3 + Z + Y^2")) == "Y^2 + Z + 3"


def test_parse_format_round_trip_random():
    rng = random.Random("poly-roundtrip")
    varsets = [XYZ, VarSet(("e1", "e2")), VarSet(("a",))]
    rings = [QQ, ZZ, Z2, Z5]
    for _ in range(200):
        varset = rng.choice(varsets)
        ring = rng.choice(rings)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, 3) for _ in range(len(varset)))
            if ring.kind == "Q":
                value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            else:
                value = rng.randint(-9, 9)
            terms[exps] = terms.get(exps, 0) + value
        p = Polynomial(varset, ring, terms)
        assert parse_poly(format_poly(p), varset, ring) == p


def test_parse_accepts_repeated_factors():
    assert P("X*X*Y^2*Y") == P("X^2*Y^3")
    assert P("2/4*X") == P("1/2*X")
    assert P("X + X") == P("2*X")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        P("X + @")
    assert info.value.position == 4
    with pytest.raises(UnknownVariable) as info:
        P("X*W")
    assert info.value.position == 2
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError):
        P("X +")
    with pytest.raises(ParseError):
        P("X Y")  # juxtaposition without '*'
    with pytest.raises(ParseError):
        P("1/0")
    with pytest.raises(ParseError):
        parse_poly("1/2", XYZ, ZZ)


def test_numbers_past_the_int_string_limit_are_parse_errors():
    # Python refuses int() of more than 4300 digits with a bare ValueError
    digits = "1" * 5000
    for text, position in [
        (digits, 0),
        (f"X - 3/{digits}", 6),
        (f"2*X^{digits} + Y", 4),
    ]:
        with pytest.raises(ParseError) as info:
            P(text)
        assert info.value.position == position
    with pytest.raises(ParseError) as info:
        parse_poly(f" 1/{digits}", XYZ, QQ)
    assert info.value.position == 3


def test_denominator_divisible_by_the_modulus_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_poly("X + 1/10", XYZ, Z5)
    assert info.value.position == 4
    assert "not invertible in Z/5" in str(info.value)
    with pytest.raises(ParseError):
        parse_poly("3/5", XYZ, Z5)


def test_parse_poly_list():
    polys = parse_poly_list("X, Y - 1, 0", XYZ, QQ)
    assert polys == [P("X"), P("Y - 1"), P("0")]
    semis = parse_poly_list("X ; Y", XYZ, QQ, sep=";")
    assert semis == [P("X"), P("Y")]


def test_polynomial_hash_consistent_with_eq():
    p = P("X + Y")
    q = P("Y + X")
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


@pytest.mark.parametrize("which", [-1, 3])
def test_variable_out_of_range_is_a_typed_index_error(which):
    with pytest.raises(VariableOutOfRange, match=f"variable index {which} out of range") as error:
        Polynomial.variable(XYZ, QQ, which)
    # callers that catch IndexError keep working
    assert isinstance(error.value, NbhdError) and isinstance(error.value, IndexError)


@pytest.mark.parametrize("n", range(26))
def test_variables_are_the_unit_vectors(n):
    varset = VarSet(tuple(f"x{i}" for i in range(n)))
    variables = Polynomial.variables(varset, Z5)
    assert len(variables) == n
    for i, v in enumerate(variables):
        unit = tuple(1 if j == i else 0 for j in range(n))
        assert v._terms == {unit: 1} and v.varset is varset and v.ring is Z5
        assert v == Polynomial.variable(varset, Z5, f"x{i}")


@pytest.mark.parametrize("which", [0.5, 1.0, True, None])
def test_variable_index_must_be_an_integer_or_a_name(which):
    # a fractional index once gave the constant 1 without complaint
    with pytest.raises(UninterpretableValue, match="variable index must be an integer"):
        Polynomial.variable(XYZ, QQ, which)
