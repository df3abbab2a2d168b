import random
from fractions import Fraction

import pytest

from nbhd.algebra import FpAlgebra
from nbhd.arith import MAX_MODULUS, QQ, RingSpec, ZZ
from nbhd.errors import InvalidArgument, NbhdError, ParseError, UninterpretableValue
from nbhd.neighbour import CoefficientVector
from nbhd.poly import Polynomial, VarSet, parse_poly


def test_ring_spec_parse_and_str():
    assert RingSpec.parse("Q") == QQ
    assert RingSpec.parse("Z") == ZZ
    assert RingSpec.parse("Z/7") == RingSpec.modular(7)
    assert str(RingSpec.modular(12)) == "Z/12"
    for text in ("Q", "Z", "Z/2", "Z/97"):
        assert str(RingSpec.parse(text)) == text


def test_ring_spec_rejects_bad_moduli():
    with pytest.raises(ValueError):
        RingSpec.modular(1)
    with pytest.raises(ValueError):
        RingSpec.modular(0)
    with pytest.raises(ValueError):
        RingSpec.modular(MAX_MODULUS + 1)
    with pytest.raises(ParseError):
        RingSpec.parse("Z/")
    with pytest.raises(ParseError):
        RingSpec.parse("GF(4)")
    with pytest.raises(ParseError):
        RingSpec.parse("Z/1")


@pytest.mark.parametrize(
    "kind, modulus, message",
    [
        ("F", None, "unknown ring kind 'F'"),
        ("Zmod", 1, "modulus must be an integer >= 2"),
        ("Zmod", "7", "modulus must be an integer >= 2"),
        ("Zmod", MAX_MODULUS + 1, f"modulus {MAX_MODULUS + 1} exceeds the machine-word bound"),
        ("Q", 5, "ring Q takes no modulus"),
    ],
)
def test_ring_spec_raises_invalid_argument(kind, modulus, message):
    with pytest.raises(InvalidArgument) as caught:
        RingSpec(kind, modulus)
    assert str(caught.value).startswith(message)
    # still a ValueError for callers that catch one
    assert isinstance(caught.value, NbhdError) and isinstance(caught.value, ValueError)
    if kind == "Zmod" and isinstance(modulus, int):
        # parse reports the same text as a ParseError
        with pytest.raises(ParseError) as parsed:
            RingSpec.parse(f"Z/{modulus}")
        assert str(parsed.value) == str(caught.value)


def test_is_field():
    assert QQ.is_field
    assert not ZZ.is_field
    assert RingSpec.modular(2).is_field
    assert RingSpec.modular(5).is_field
    assert not RingSpec.modular(4).is_field
    assert not RingSpec.modular(6).is_field
    # Carmichael number: fools Fermat but not a deterministic Miller-Rabin
    assert not RingSpec.modular(561).is_field
    assert RingSpec.modular(2**61 - 1).is_field  # Mersenne prime


def test_two_invertible():
    assert QQ.two_invertible
    assert not ZZ.two_invertible
    assert not RingSpec.modular(2).two_invertible
    assert RingSpec.modular(3).two_invertible
    assert not RingSpec.modular(4).two_invertible
    assert RingSpec.modular(9).two_invertible  # 2*5 = 10 = 1 mod 9


def test_characteristic():
    assert QQ.characteristic == 0
    assert ZZ.characteristic == 0
    assert RingSpec.modular(6).characteristic == 6


def test_normalize_canonical_forms():
    assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.normalize(3) == Fraction(3)
    # integral rationals are ints, never integral Fractions or bools
    assert type(QQ.normalize(Fraction(6, 3))) is int
    assert type(QQ.from_fraction(Fraction(-4, 2))) is int
    assert type(QQ.normalize(True)) is int
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert ZZ.normalize(-7) == -7
    z5 = RingSpec.modular(5)
    assert z5.normalize(-1) == 4
    assert z5.normalize(12) == 2


@pytest.mark.parametrize("name", ["Q", "Z", "Z/5"])
def test_plain_ints_first_bools_as_ints_and_the_same_refusals(name):
    # normalize and element test a plain int or a Polynomial before asking
    # whether a value is a Fraction; bools and int subclasses still come out
    # as plain ints, and the refusals keep their types and texts
    ring = RingSpec.parse(name)

    class Count(int):
        pass

    m = ring.modulus
    for value, want in ((True, 1), (False, 0), (Count(7), 7), (-3, -3)):
        got = ring.normalize(value)
        assert type(got) is int and got == (want % m if m else want)
    assert ring.normalize(Fraction(4, 2)) == 2 and type(ring.normalize(Fraction(4, 2))) is int
    what = "as a rational" if name == "Q" else f"over {name}"
    for bad in (1.5, "3", None):
        with pytest.raises(TypeError) as error:
            ring.normalize(bad)
        assert str(error.value) == f"cannot interpret {bad!r} {what}"
    algebra = FpAlgebra(ring, ("x",), ["x^2"])
    x = algebra.element("x")
    assert algebra.element(True) == algebra.one() and algebra.element(Count(2)) == 2
    assert type(algebra.element(True).rep._terms[(0,)]) is int
    for bad in (1.5, None, [1]):
        with pytest.raises(TypeError) as error:
            algebra.element(bad)
        assert str(error.value) == f"cannot interpret {bad!r} as an element"
    # equality with a number, a polynomial, an element, or anything else
    assert x * 0 == 0 and algebra.one() == Fraction(3, 3) and x == x.rep
    assert x == algebra.element("x") and x != algebra.element("2*x")
    assert (x == "x") is False and (x != 1.5) is True


def test_numbers_outside_the_ring_raise_typed_errors():
    # a Fraction the ring cannot hold is an InvalidArgument (a ValueError),
    # any other value an UninterpretableValue (a TypeError): both NbhdErrors,
    # with the messages they had as bare builtin errors
    x = VarSet(("x",))
    z6 = RingSpec.modular(6)
    algebra = FpAlgebra(ZZ, ["e"], ["e^2"])
    e = algebra.generator(0)
    refusals = (
        (lambda: Polynomial(x, ZZ, {(1,): Fraction(1, 3)}), "1/3 is not an integer"),
        (lambda: algebra.element(Fraction(1, 2)), "1/2 is not an integer"),
        (lambda: CoefficientVector.affine(algebra, [Fraction(1, 2)]), "1/2 is not an integer"),
        (lambda: e + Fraction(1, 2), "1/2 is not an integer"),
        (lambda: z6.normalize(Fraction(1, 3)), "denominator 3 is not invertible in Z/6"),
        (lambda: Polynomial.constant(x, z6, Fraction(1, 3)), "denominator 3 is not invertible in Z/6"),
    )
    for build, message in refusals:
        with pytest.raises(InvalidArgument) as error:
            build()
        assert str(error.value) == message and isinstance(error.value, ValueError)
    for ring, what in ((QQ, "as a rational"), (ZZ, "over Z"), (z6, "over Z/6")):
        with pytest.raises(UninterpretableValue) as error:
            Polynomial(x, ring, {(1,): 2.5})
        assert str(error.value) == f"cannot interpret 2.5 {what}"
        assert isinstance(error.value, TypeError)
    # the parser still reports a refused coefficient with its position
    with pytest.raises(ParseError, match=r"1/3 is not an integer \(at position 2\)"):
        parse_poly("x+1/3", x, ZZ)


def test_worked_arithmetic_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    z5 = RingSpec.modular(5)
    assert z5.add(z5.normalize(3), z5.normalize(4)) == 2

    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)

    z6 = RingSpec.modular(6)
    assert z6.is_zero(z6.mul(2, 3))

    assert ZZ.mul(-2, 3) == -6


def test_invert():
    z5 = RingSpec.modular(5)
    assert z5.invert(2) == 3
    assert ZZ.invert(2) is None
    assert QQ.invert(Fraction(-4, 7)) == Fraction(-7, 4)
    assert QQ.invert(2) == Fraction(1, 2)
    assert type(QQ.invert(Fraction(-1, 3))) is int and QQ.invert(Fraction(-1, 3)) == -3
    z6 = RingSpec.modular(6)
    assert z6.invert(2) is None  # zero divisor
    assert z6.invert(5) == 5
    with pytest.raises(ZeroDivisionError):
        QQ.invert(QQ.normalize(0))


def test_value_text_round_trip():
    # coefficients are read by parse_poly, the one coefficient parser
    x = VarSet(("x",))
    cases = [
        (QQ, "3"),
        (QQ, "-3"),
        (QQ, "3/4"),
        (QQ, "-12/7"),
        (ZZ, "0"),
        (ZZ, "-41"),
        (RingSpec.modular(11), "10"),
    ]
    for ring, text in cases:
        assert str(parse_poly(text, x, ring)) == text


def test_coefficient_text_rejects_garbage():
    x = VarSet(("x",))
    with pytest.raises(ParseError):
        parse_poly("1/0", x, QQ)
    with pytest.raises(ParseError):
        parse_poly("1/2", x, ZZ)  # 2 not invertible in Z
    with pytest.raises(ParseError):
        parse_poly("one", x, QQ)
    z6 = RingSpec.modular(6)
    with pytest.raises(ParseError):
        parse_poly("1/2", x, z6)  # 2 not invertible mod 6
    # 5 is its own inverse mod 6
    assert parse_poly("1/5", x, z6) == Polynomial.constant(x, z6, 5)


def test_ring_axioms_random():
    # associativity / commutativity / distributivity, exact, three rings
    rng = random.Random("arith-axioms")
    rings = [QQ, ZZ, RingSpec.modular(6), RingSpec.modular(7)]

    def pick(ring):
        if ring.kind == "Q":
            return ring.normalize(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        if ring.kind == "Z":
            return ring.normalize(rng.randint(-30, 30))
        return ring.normalize(rng.randint(0, ring.modulus - 1))

    for _ in range(150):
        ring = rng.choice(rings)
        add, mul = ring.add, ring.mul
        a, b, c = pick(ring), pick(ring), pick(ring)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        inv = ring.invert(a) if not ring.is_zero(a) else None
        if inv is not None:
            assert mul(a, inv) == ring.one()


@pytest.mark.parametrize("name", ["Q", "Z", "Z/5"])
def test_coefficient_operations_reach_the_class_methods(monkeypatch, name):
    # Tools that count coefficient operations patch RingSpec's class
    # attributes; ring methods bound per instance would hide their calls.
    ring = RingSpec.parse(name)  # built before the patch, like QQ and ZZ
    weil = FpAlgebra(ring, ("e1", "e2"), ["e1^2", "e2^2"])
    a, b = weil.element("1 + e1"), weil.element("2 + e2")
    p = parse_poly("x + 1", VarSet(("x",)), ring)
    counts = {"mul": 0, "add": 0}
    for op in counts:

        def counted(self, x, y, _op=op, _original=getattr(RingSpec, op)):
            counts[_op] += 1
            return _original(self, x, y)

        monkeypatch.setattr(RingSpec, op, counted)

    def seen(compute):
        before = dict(counts)
        compute()
        return {op: counts[op] - before[op] for op in counts}

    # four pairs, e1*e1 deleted before its coefficients meet, e1 formed twice
    assert seen(lambda: a * a) == {"mul": 3, "add": 1}
    assert seen(lambda: a + b) == {"mul": 0, "add": 2}
    assert seen(lambda: p * p) == {"mul": 4, "add": 4}
