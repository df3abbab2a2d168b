import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from nbhd.algebra import universal_simplex
from nbhd.arith import QQ, RingSpec, ZZ
from nbhd.errors import (
    DegreeGuardExceeded,
    InvalidArgument,
    NonFieldCoefficients,
    RingMismatch,
    UninterpretableValue,
    VarSetMismatch,
)
from nbhd.ideal import (
    DEFAULT_DEGREE_CAP,
    GroebnerBasis,
    Ideal,
    _Divisors,
    _gauss_jordan,
    _leads_have_series,
    _standard_counts,
    buchberger,
    contains,
    reduce_full,
    s_polynomial,
)
from nbhd.neighbour import universal_dtilde
from nbhd.poly import MonomialOrder, Polynomial, VarSet, parse_poly
from nbhd.verify import square_zero_full

XY = VarSet(("X", "Y"))
XYZ = VarSet(("X", "Y", "Z"))
UVW = VarSet(("U", "V", "W"))
Z3 = RingSpec.modular(3)
Z5 = RingSpec.modular(5)


def P(text, varset=XY, ring=QQ):
    return parse_poly(text, varset, ring)


def I(texts, varset=XY, ring=QQ):
    return Ideal(varset, ring, tuple(parse_poly(t, varset, ring) for t in texts))


# -- reference implementation used as an oracle ------------------------------
#
# A deliberately naive division algorithm and Buchberger loop, sharing no
# internals with nbhd.ideal (different pair order, different divisor choice).
# Reduction to zero against ref_basis(gens) certifies ideal membership, and
# the reference S-polynomial criterion certifies that a claimed basis really
# is a Groebner basis.


def _olcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _odivides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _odiv(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _times_term(p, exps, value):
    """p times the single term value * x^exps."""
    return p * Polynomial(p.varset, p.ring, {exps: value})


def ref_remainder(p, basis, order):
    work = p
    remainder = Polynomial.zero(p.varset, p.ring)
    ring = p.ring
    while not work.is_zero():
        exps, value = work.leading(order)
        hit = None
        for g in reversed(basis):  # opposite divisor preference to the library
            g_exps, _ = g.leading(order)
            if _odivides(g_exps, exps):
                hit = g
                break
        if hit is None:
            term = Polynomial(p.varset, ring, {exps: value})
            remainder = remainder + term
            work = work - term
        else:
            g_exps, g_value = hit.leading(order)
            factor = ring.mul(value, ring.invert(g_value))
            work = work - _times_term(hit, _odiv(exps, g_exps), factor)
    return remainder


def ref_spoly(f, g, order):
    (fe, fv), (ge, gv) = f.leading(order), g.leading(order)
    lcm = _olcm(fe, ge)
    ring = f.ring
    left = _times_term(f, _odiv(lcm, fe), ring.invert(fv))
    right = _times_term(g, _odiv(lcm, ge), ring.invert(gv))
    return left - right


def ref_basis(gens, order):
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()  # LIFO, unlike the library's degree-ordered heap
        r = ref_remainder(ref_spoly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def ref_is_groebner(basis, order):
    return all(
        ref_remainder(ref_spoly(basis[i], basis[j], order), basis, order).is_zero()
        for j in range(len(basis))
        for i in range(j)
    )


# -- the worked lex example --------------------------------------------------


def test_lex_example_hand_derived():
    # By hand with f1 = X^2 - Y, f2 = X*Y - 1 under lex (X > Y):
    #   S(f1,f2) = Y*f1 - X*f2 = X - Y^2          (irreducible, new)
    #   S(f2,f3) = f2 - Y*(X - Y^2) = Y^3 - 1     (irreducible, new)
    # and every remaining S-polynomial reduces to zero, so the reduced basis
    # is {X - Y^2, Y^3 - 1}.
    gb = buchberger(I(["X^2 - Y", "X*Y - 1"]), MonomialOrder.LEX)
    assert gb.basis == (P("X - Y^2"), P("Y^3 - 1"))
    # cross-check with the reference oracle
    assert ref_is_groebner(list(gb.basis), MonomialOrder.LEX)
    rb = ref_basis([P("X^2 - Y"), P("X*Y - 1")], MonomialOrder.LEX)
    for g in gb.basis:
        assert ref_remainder(g, rb, MonomialOrder.LEX).is_zero()
    for g in rb:
        assert ref_remainder(g, list(gb.basis), MonomialOrder.LEX).is_zero()


def test_random_ideals_agree_with_reference():
    """Library bases pass the reference Buchberger criterion and generate the
    same ideal as a reference basis computed with different choices."""
    rng = random.Random("ideal-oracle")
    rings = [QQ, Z5]
    for trial in range(25):
        ring = rings[trial % 2]
        order = MonomialOrder.DEGREVLEX if trial % 3 else MonomialOrder.LEX
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                if ring.kind == "Q":
                    terms[exps] = Fraction(rng.randint(-3, 3))
                else:
                    terms[exps] = rng.randint(0, 4)
            gens.append(Polynomial(XY, ring, terms))
        ideal = Ideal(XY, ring, tuple(gens))
        if not ideal.generators:
            continue
        gb = buchberger(ideal, order)
        assert ref_is_groebner(list(gb.basis), order)
        rb = ref_basis(list(ideal.generators), order)
        for g in gb.basis:
            assert ref_remainder(g, rb, order).is_zero()
        for g in rb:
            assert ref_remainder(g, list(gb.basis), order).is_zero()


def _random_poly(rng, varset, ring, terms, top):
    def coefficient():
        if ring.kind == "Q":
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(ring.modulus)

    return Polynomial(
        varset,
        ring,
        [
            (tuple(rng.randint(0, top) for _ in varset), coefficient())
            for _ in range(rng.randint(1, terms))
        ],
    )


def test_s_polynomial_matches_reference():
    rng = random.Random("ideal-spoly")
    for trial in range(40):
        ring = (QQ, Z5)[trial % 2]
        order = list(MonomialOrder)[trial // 2 % 2]
        f, g = (_random_poly(rng, XYZ, ring, 4, 2) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        assert s_polynomial(f, g, order) == ref_spoly(f, g, order)
        assert s_polynomial(f, f, order).is_zero()


def ref_reduced(basis, order):
    """The reduced basis of the ideal a Groebner basis generates: drop each
    element whose lead another kept lead divides, make the rest monic and
    divide each by the others."""
    def lead(g):
        return g.leading(order)[0]

    minimal = []
    for g in sorted(basis, key=lambda g: order.key(lead(g))):
        if not any(_odivides(lead(h), lead(g)) for h in minimal):
            minimal.append(g.scale(g.ring.invert(g.leading(order)[1])))
    reduced = [ref_remainder(g, minimal[:k] + minimal[k + 1 :], order) for k, g in enumerate(minimal)]
    return tuple(sorted(reduced, key=lambda g: order.key(lead(g)), reverse=True))


def _generators(ring):
    """Single terms and sums of two or three terms, in X, Y, Z up to degree 2."""
    if ring.kind == "Q":
        coefficient = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    else:
        coefficient = st.integers(1, ring.modulus - 1)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), coefficient)
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: Polynomial(XYZ, ring, ts))


@st.composite
def mixed_ideals(draw):
    ring = draw(st.sampled_from((QQ, Z5)))
    gens = draw(st.lists(_generators(ring), min_size=2, max_size=4))
    return Ideal(XYZ, ring, tuple(gens)), draw(st.sampled_from(list(MonomialOrder)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mixed_ideals())
def test_pairs_of_single_terms_are_never_formed(problem):
    """The single-term criterion leaves the reduced basis as the reference
    loop, which forms every S-polynomial, finds it."""
    ideal, order = problem
    formed = []

    def recording(f, g, *args):
        formed.append((len(f), len(g)))
        return s_polynomial(f, g, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nbhd.ideal.s_polynomial", recording)
        basis = buchberger(ideal, order).basis
    assert (1, 1) not in formed
    assert basis == ref_reduced(ref_basis(list(ideal.generators), order), order)


# -- canonicality and normal forms -------------------------------------------


def test_basis_invariant_under_generator_permutation():
    gens = [P("X^2 - Y"), P("X*Y - 1"), P("X^3 - X")]
    rng = random.Random("ideal-perm")
    reference = buchberger(Ideal(XY, QQ, tuple(gens))).basis
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(Ideal(XY, QQ, tuple(shuffled))).basis == reference


def test_normal_form_respects_ring_structure():
    gb = buchberger(I(["X^2 - Y", "Y^2 - 2"]))
    rng = random.Random("ideal-nf")
    for _ in range(40):
        terms_p = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
            for _ in range(rng.randint(1, 4))
        }
        terms_q = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
            for _ in range(rng.randint(1, 4))
        }
        p = Polynomial(XY, QQ, terms_p)
        q = Polynomial(XY, QQ, terms_q)
        nf = gb.normal_form
        assert nf(p + q) == nf(nf(p) + nf(q))
        assert nf(p * q) == nf(nf(p) * nf(q))
        assert nf(nf(p)) == nf(p)


def test_normal_form_examples():
    gb = buchberger(I(["X^2 - Y"]))
    assert gb.normal_form(P("X^2*Y")) == P("Y^2")
    assert gb.normal_form(P("1")) == P("1")
    assert gb.contains(P("X^4 - Y^2"))  # (X^2-Y)(X^2+Y)
    assert not gb.contains(P("X"))


def test_one_survives_in_proper_ideal():
    gb = buchberger(I(["X^2 - Y", "X*Y - 1"]), MonomialOrder.LEX)
    assert gb.normal_form(Polynomial.one(XY, QQ)) == 1


def test_contains_unit_ideal():
    gb = buchberger(I(["X", "X - 1"]))
    assert gb.contains(Polynomial.one(XY, QQ))
    assert gb.basis == (Polynomial.one(XY, QQ),)


# -- membership front door ----------------------------------------------------


def test_contains_monomial_vs_groebner_agreement():
    ideal = I(["X^2", "X*Y"])
    assert ideal.is_monomial()
    gb = buchberger(ideal)
    rng = random.Random("ideal-mono")
    for _ in range(60):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 4))
        }
        p = Polynomial(XY, QQ, terms)
        assert contains(ideal, p) == gb.contains(p)


def test_monomial_membership_over_nonfields():
    ideal = I(["X^2", "X*Y"], ring=ZZ)
    assert contains(ideal, P("3*X^2*Y - X*Y^2", ring=ZZ))
    assert not contains(ideal, P("X + Y^2", ring=ZZ))
    z6 = RingSpec.modular(6)
    ideal6 = I(["X^2"], ring=z6)
    assert contains(ideal6, P("5*X^3", ring=z6))


def test_divisors_name_every_lead_dividing_a_monomial():
    # the monomial engine's deletion test: a term goes when a lead divides it
    p = P("X^2*Y + X*Y + Y^3 + 1", ring=ZZ)
    divisors = _Divisors([P("X^2", ring=ZZ), P("X*Y", ring=ZZ)], MonomialOrder.DEGREVLEX, 2)
    hits = {exps: divisors.dividing(exps) for exps in p._terms}
    assert hits == {(2, 1): 0b11, (1, 1): 0b10, (0, 3): 0, (0, 0): 0}
    kept = {exps: value for exps, value in p._terms.items() if not hits[exps]}
    assert Polynomial._raw(p.varset, ZZ, kept) == P("Y^3 + 1", ring=ZZ)


def test_contains_refuses_a_polynomial_of_another_varset_or_ring():
    ideal = I(["X^2 - Y"])
    with pytest.raises(VarSetMismatch, match=r"^\(X, Y, Z\) vs \(X, Y\)$"):
        contains(ideal, P("X", XYZ))
    with pytest.raises(RingMismatch, match="^Z/5 vs Q$"):
        contains(ideal, P("X", ring=Z5))


def test_divisors_prepared_for_another_order_are_refused():
    divisors = _Divisors([P("X^2 - Y")], MonomialOrder.LEX, 2)
    assert reduce_full(P("X^3"), divisors, MonomialOrder.LEX) == P("X*Y")
    refused = "^divisors prepared for MonomialOrder.LEX, not MonomialOrder.DEGREVLEX$"
    with pytest.raises(InvalidArgument, match=refused):
        reduce_full(P("X^3"), divisors, MonomialOrder.DEGREVLEX)


def test_is_monomial_requires_unit_coefficients():
    assert I(["X^2", "3*Y"]).is_monomial()  # 3 is a unit in Q
    assert not I(["2*X"], ring=ZZ).is_monomial()
    assert I(["X + Y"]).is_monomial() is False


# -- guard rails --------------------------------------------------------------


def test_groebner_needs_a_field():
    with pytest.raises(NonFieldCoefficients):
        buchberger(I(["X^2 - Y"], ring=ZZ))
    with pytest.raises(NonFieldCoefficients):
        contains(I(["2*X"], ring=ZZ), P("4*X", ring=ZZ))


def test_groebner_of_unit_monomials_over_any_ring():
    # their leads are monic after inverting units, and their S-polynomials vanish
    assert [str(g) for g in buchberger(I(["X^2", "X*Y", "-X^3"], ring=ZZ)).basis] == [
        "X^2",
        "X*Y",
    ]
    z4 = RingSpec.modular(4)
    basis = buchberger(I(["X^2", "X*Y", "-X^3", "3*Y^2"], ring=z4)).basis
    assert [str(g) for g in basis] == ["X^2", "X*Y", "Y^2"]
    with pytest.raises(NonFieldCoefficients):
        buchberger(I(["2*X^2"], ring=ZZ))
    with pytest.raises(NonFieldCoefficients):
        buchberger(I(["X^2", "X*Y + Y"], ring=ZZ))


def test_degree_guard_trips():
    with pytest.raises(DegreeGuardExceeded):
        buchberger(I(["X^2 - Y", "X*Y - 1"]), MonomialOrder.LEX, degree_cap=1)


@pytest.mark.parametrize("cap", [-1, -3, "3", 2.0, True, None], ids=repr)
def test_degree_caps_outside_the_non_negative_ints_are_refused(cap):
    # a negative cap used to pass silently whenever nothing reached the guard
    with pytest.raises(InvalidArgument, match="degree cap"):
        buchberger(I(["X^2 - 1"]), degree_cap=cap)
    with pytest.raises(InvalidArgument, match="degree cap"):
        reduce_full(P("X^3"), [P("X^2 - 1")], degree_cap=cap)
    with pytest.raises(InvalidArgument, match="degree cap"):
        contains(I(["X^2"]), P("X^3"), degree_cap=cap)


def test_degree_cap_zero_is_accepted():
    assert buchberger(I(["X^2 - 1"]), degree_cap=0).basis == (P("X^2 - 1"),)
    assert reduce_full(P("X^3"), [P("X^2 - 1")], degree_cap=0) == P("X")


@pytest.mark.parametrize("order", ["lex", "nonsense", None, 0], ids=repr)
def test_orders_outside_monomial_order_are_refused(order):
    with pytest.raises(InvalidArgument, match="monomial order"):
        buchberger(I(["X^2 - Y"]), order)
    with pytest.raises(InvalidArgument, match="monomial order"):
        reduce_full(P("X^3"), [P("X^2 - 1")], order)
    with pytest.raises(InvalidArgument, match="monomial order"):
        contains(I(["X^2 - Y"]), P("X^3"), order)


def test_default_degree_cap_is_generous():
    assert DEFAULT_DEGREE_CAP >= 20


def test_mismatched_inputs_rejected():
    gb = buchberger(I(["X^2 - Y"]))
    with pytest.raises(VarSetMismatch):
        gb.normal_form(P("X", varset=XYZ))
    with pytest.raises(RingMismatch):
        gb.normal_form(P("X", ring=Z5))
    with pytest.raises(VarSetMismatch):
        Ideal(XY, QQ, (P("X", varset=XYZ),))


@pytest.mark.parametrize(
    "partner, error, text",
    [
        (P("U*V + W", UVW), VarSetMismatch, r"^\(U, V, W\) vs \(X, Y\)$"),
        (P("U", UVW), VarSetMismatch, r"^\(U, V, W\) vs \(X, Y\)$"),
        (P("X*Y + 1", ring=ZZ), RingMismatch, "^Z vs Q$"),
        (P("X", ring=Z3), RingMismatch, "^Z/3 vs Q$"),
    ],
    ids=["uvw-quadric", "uvw-variable", "over-Z", "over-Z/3"],
)
def test_division_and_s_polynomials_refuse_a_partner_of_another_varset_or_ring(
    partner, error, text
):
    # each partner used to be read over p's variables and ring: x^2 + y
    # divided by u gave y, and its S-polynomial with u*v + w gave y^2 - x
    p = P("X^2 + Y")
    with pytest.raises(error, match=text):
        s_polynomial(p, partner)
    with pytest.raises(error, match=text):
        reduce_full(p, [partner])
    with pytest.raises(error, match=text):
        reduce_full(p, (g for g in [P("X - 1"), partner]))
    # the same texts as a normal form against a basis of p's algebra
    with pytest.raises(error, match=text):
        buchberger(I(["X^2 + Y"])).normal_form(partner)


def test_division_and_s_polynomials_refuse_what_is_no_polynomial():
    p, zero = P("X^2 + Y"), Polynomial.zero(XY, QQ)
    undefined = "^the S-polynomial of a zero polynomial is undefined$"
    for f, g in ((zero, P("X")), (P("X"), zero), (zero, zero)):
        with pytest.raises(UninterpretableValue, match=undefined):
            s_polynomial(f, g)
    for f, g, shown in ((p, 1, "1"), ("X", p, "'X'"), (None, p, "None")):
        with pytest.raises(UninterpretableValue, match=f"^expected a polynomial, got {shown}$"):
            s_polynomial(f, g)
    no_iterable = "^a basis must be an iterable of polynomials, got None$"
    with pytest.raises(UninterpretableValue, match=no_iterable):
        reduce_full(p, None)
    for q, basis, shown in ((p, [1], "1"), (p, "X", "'X'"), (p, [P("X"), None], "None"), (0, [p], "0")):
        with pytest.raises(UninterpretableValue, match=f"^expected a polynomial, got {shown}$"):
            reduce_full(q, basis)
    with pytest.raises(UninterpretableValue, match="^expected a polynomial, got 'X'$"):
        contains(I(["X^2 + Y"]), "X")
    # the refusals stay TypeErrors for callers that catch those
    with pytest.raises(TypeError):
        reduce_full(p, None)


def test_division_by_a_list_of_no_nonzero_element_returns_p_at_once():
    # zero divides nothing: the remainder is p, its terms biggest first
    p, zero = P("Y + X^2 + 1"), Polynomial.zero(XY, QQ)
    for basis in ([], [zero], (), iter([zero, zero])):
        r = reduce_full(p, basis, MonomialOrder.LEX)
        assert list(r._terms) == [(2, 0), (0, 1), (0, 0)]
    assert reduce_full(zero, [], MonomialOrder.LEX).is_zero()


def test_zero_generators_dropped():
    ideal = I(["X", "0", "Y - Y"])
    assert len(ideal) == 1
    empty = buchberger(Ideal(XY, QQ, ()))
    assert empty.basis == () and empty.normal_form(P("X")) == P("X")
    zero = Polynomial.zero(XY, QQ)
    assert reduce_full(P("X^2 + Y"), [zero, P("X - 1")]) == P("Y + 1")
    only_zero = buchberger(Ideal(XY, QQ, (zero,)))
    assert only_zero.basis == () and only_zero.normal_form(P("X")) == P("X")


def test_a_basis_is_only_ever_buchbergers_result():
    # a tuple that is no reduced basis cannot be wrapped as one: against
    # (X - Y, X + Y) itself, X would reduce to Y and not be a member
    with pytest.raises(AttributeError):
        GroebnerBasis(XY, QQ, MonomialOrder.DEGREVLEX, (P("X - Y"), P("X + Y")))
    gb = buchberger(I(["X - Y", "X + Y"]))
    assert isinstance(gb, GroebnerBasis)
    assert gb.basis == (P("X"), P("Y")) and len(gb) == 2 and list(gb) == [P("X"), P("Y")]
    assert gb.order is MonomialOrder.DEGREVLEX and gb.degree_cap == DEFAULT_DEGREE_CAP
    assert gb.contains(P("X")) and gb.normal_form(P("X + 1")) == P("1")


# -- the row-echelon exit -------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("_interreduce may not be reached here")


def test_tail_division_makes_the_row_echelon_form_reduced(monkeypatch):
    # X^2 + Y^2 holds the lead Y^2 of the second generator; _gauss_jordan
    # eliminates it from the first row, and as the leads are coprime no
    # pair forms and nothing is interreduced
    gens = (P("X^2 + Y^2"), P("Y^2"))
    assert _gauss_jordan(gens, MonomialOrder.DEGREVLEX, 2).polys == [P("X^2"), P("Y^2")]
    monkeypatch.setattr("nbhd.ideal._interreduce", _refuse)
    for order in MonomialOrder:
        assert buchberger(Ideal(XY, QQ, gens), order).basis == (P("X^2"), P("Y^2"))


def test_interreduce_runs_only_when_the_pair_loop_changed_the_basis(monkeypatch):
    monkeypatch.setattr("nbhd.ideal._interreduce", _refuse)
    for order in MonomialOrder:
        assert universal_dtilde(3, 2, QQ, order)[0].strategy == "groebner"
        # the pair loop runs here, and every S-polynomial reduces to zero
        assert universal_simplex(square_zero_full(QQ, 2), 2, "tensor", order).algebra._gb
    # X - Y^2 joins, and its lead X divides X^2: the basis is interreduced
    with pytest.raises(AssertionError, match="_interreduce"):
        buchberger(I(["X^2 - Y", "X*Y - 1"]), MonomialOrder.LEX)


def test_a_series_is_trusted_only_for_homogeneous_generators():
    # in lex the row-echelon leads are X^2 and X, whose quotient k[Y] has
    # the series 1 / (1 - t); the generators are not homogeneous, so their
    # row-echelon form is not flat, that series certifies nothing and the
    # pair loop finds Y^4 - Y
    gb = buchberger(I(["X^2 - Y", "Y^2 - X"]), MonomialOrder.LEX, hilbert=((1,), 1))
    assert gb.basis == (P("X - Y^2"), P("Y^4 - Y"))


@pytest.mark.parametrize("order", list(MonomialOrder), ids=lambda o: o.value)
def test_a_row_echelon_lead_dividing_another_is_interreduced(order):
    # the rows are X*Y^3 - Y, Y^2 and X, 1; in the second case nothing
    # joins, but the lead 1 of the second row divides the first row's lead,
    # which must go; in the first, the pair loop adds Y, which divides both
    assert buchberger(I(["Y^2", "X*Y^3 - Y"]), order).basis == (P("Y"),)
    assert buchberger(I(["X", "X - 1"]), order).basis == (P("1"),)


# -- the row-echelon form -----------------------------------------------------


def _form_none(*args, **kwargs):
    raise AssertionError("no S-polynomial may be formed here")


def _record_divisions(monkeypatch):
    """The list of every polynomial nbhd.ideal divides from now on."""
    divided = []

    def recording(p, *args, **kwargs):
        divided.append(p)
        return reduce_full(p, *args, **kwargs)

    monkeypatch.setattr("nbhd.ideal.reduce_full", recording)
    return divided


@pytest.mark.parametrize("ring", [QQ, RingSpec.modular(2)], ids=str)
@pytest.mark.parametrize("order", list(MonomialOrder), ids=lambda o: o.value)
def test_difference_variety_relations_are_not_divided(monkeypatch, ring, order):
    # the D~(p, n) relations are quadrics sharing no monomial, so their
    # row-echelon form is themselves made monic: nothing is divided while
    # the basis is built, and its series forms no S-polynomial.  The only
    # divisions are the normal forms of the p*n generators that fill the
    # returned matrix, after the basis exists.
    divided = _record_divisions(monkeypatch)
    monkeypatch.setattr("nbhd.ideal.s_polynomial", _form_none)
    for p, n in ((2, 2), (3, 3), (4, 5)):
        divided.clear()
        algebra, _ = universal_dtilde(p, n, ring, order)
        assert divided == Polynomial.variables(algebra.varset, ring)
        monic = {g.scale(ring.invert(g.leading(order)[1])) for g in algebra.relations}
        assert set(algebra._gb.basis) == monic


@pytest.mark.parametrize("order", list(MonomialOrder), ids=lambda o: o.value)
def test_no_generator_is_divided_while_row_reducing(monkeypatch, order):
    # generators are row-reduced by elimination on their coefficients, a
    # shared monomial or not, of one total degree or of several; the rows
    # come in decreasing order of their leads
    divided = _record_divisions(monkeypatch)
    for gens, rows, expected in (
        ((P("X^2 + Y^2"), P("Y^2")), [P("X^2"), P("Y^2")], [P("X^2"), P("Y^2")]),  # Y^2 occurs in both
        ((P("X"), P("X^2 + Y^2")), [P("X^2 + Y^2"), P("X")], [P("X"), P("Y^2")]),  # disjoint, degrees 1 and 2
    ):
        divided.clear()
        assert _gauss_jordan(gens, order, 2).polys == rows
        assert not divided
        assert set(buchberger(Ideal(XY, QQ, gens), order).basis) == set(expected)


@st.composite
def quadratic_leads(draw):
    """Distinct squares and cross products of up to six variables."""
    nvars = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(nvars) for v in range(u, nvars)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    leads = []
    for u, v in chosen:
        exps = [0] * nvars
        exps[u] += 1
        exps[v] += 1
        leads.append(tuple(exps))
    return nvars, leads


def _brute_counts(leads, bound, degrees):
    """Standard monomials in the variables bound, per degree, by testing
    every monomial against every lead."""
    counts = []
    for d in range(degrees):
        counts.append(0)
        for chosen in combinations_with_replacement(bound, d):
            power = Counter(chosen)
            exps = tuple(power[v] for v in range(len(leads[0])))
            counts[-1] += not any(_odivides(lead, exps) for lead in leads)
    return counts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(quadratic_leads())
def test_support_masks_count_the_standard_monomials(problem):
    nvars, leads = problem
    bound = sorted({v for lead in leads for v, x in enumerate(lead) if x})
    brute = _brute_counts(leads, bound, 8)  # squarefree ones end by degree 6
    masks = [sum(1 << v for v, x in enumerate(lead) if x) for lead in leads]
    assert list(islice(_standard_counts(masks, sum(1 << v for v in bound)), 8)) == brute
    varset = VarSet(tuple(f"x{i}" for i in range(nvars)))
    divisors = _Divisors([Polynomial(varset, QQ, {e: 1}) for e in leads], MonomialOrder.LEX, nvars)
    free = nvars - len(bound)
    if brute[-1] == 0:  # a finite quotient: its counts are a numerator
        numerator = brute[: brute.index(0)]
        assert _leads_have_series(divisors, (numerator, free))
        assert not _leads_have_series(divisors, (numerator[:-1] + [numerator[-1] + 1], free))
        assert not _leads_have_series(divisors, (numerator + [1], free))
        assert not _leads_have_series(divisors, (numerator, free + 1))
    else:
        assert not _leads_have_series(divisors, (brute, free))


@st.composite
def cubic_ideals(draw):
    """X^3, Y^3, Z^3 and one to three cubics in the other cubic monomials:
    homogeneous, with a finite quotient."""
    ring = draw(st.sampled_from((QQ, Z5)))
    if ring.kind == "Q":
        coefficient = st.integers(-3, 3).filter(bool)
    else:
        coefficient = st.integers(1, 4)
    mixed = [e for e in product(range(3), repeat=3) if sum(e) == 3]
    term = st.tuples(st.sampled_from(mixed), coefficient)
    cubic = st.lists(term, min_size=1, max_size=3).map(lambda ts: Polynomial(XYZ, ring, ts))
    cubes = [P(f"{x}^3", XYZ, ring) for x in XYZ]
    gens = draw(st.lists(cubic, min_size=1, max_size=3))
    return Ideal(XYZ, ring, tuple(cubes + gens)), draw(st.sampled_from(list(MonomialOrder)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cubic_ideals())
def test_a_true_series_of_cubic_leads_runs_the_pair_loop(problem):
    # only quadratic leads are counted: with cubic ones the certificate
    # declines even for the true series, and the pair loop forms the same
    # S-polynomials as with no series at all
    ideal, order = problem
    formed = []

    def recording(f, g, *args):
        formed.append((f, g))
        return s_polynomial(f, g, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nbhd.ideal.s_polynomial", recording)
        reference = buchberger(ideal, order).basis
        unseries, formed[:] = formed[:], []
        leads = [g.leading(order)[0] for g in reference]
        counts = [
            sum(not any(_odivides(lead, e) for lead in leads) for e in product(range(3), repeat=3) if sum(e) == d)
            for d in range(7)  # X^3, Y^3, Z^3 are in the ideal: no standard monomial above degree 6
        ]
        numerator = counts[: counts.index(0)] if 0 in counts else counts
        echelon = _gauss_jordan(ideal.generators, order, 3)
        assert not _leads_have_series(echelon, (numerator, 0))
        assert buchberger(ideal, order, hilbert=(numerator, 0)).basis == reference
    assert formed == unseries


# -- differential test against sympy ------------------------------------------


@pytest.mark.parametrize("ring", [QQ, Z5, RingSpec.modular(7)], ids=str)
@pytest.mark.parametrize("order", list(MonomialOrder), ids=lambda o: o.value)
def test_buchberger_matches_sympy_groebner(ring, order):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-{ring}-{order.value}")
    options = {"order": "grevlex" if order is MonomialOrder.DEGREVLEX else "lex"}
    if ring.kind == "Q":
        options["domain"] = sympy.QQ
    else:
        options["modulus"] = ring.modulus
    compared = 0
    for trial in range(16):
        varset = XY if trial % 2 else XYZ
        gens = [_random_poly(rng, varset, ring, 3, 2) for _ in range(rng.randint(1, 3))]
        ideal = Ideal(varset, ring, tuple(gens))
        if not ideal.generators:
            continue
        got = {frozenset(g._terms.items()) for g in buchberger(ideal, order).basis}
        symbols = sympy.symbols(varset.names)
        names = dict(zip(varset.names, symbols))
        exprs = [sympy.sympify(str(g).replace("^", "**"), locals=names) for g in ideal]
        def value(c):
            return ring.normalize(Fraction(int(c.p), int(c.q)) if ring.kind == "Q" else int(c))

        expected = {
            frozenset((exps, value(c)) for exps, c in sympy.Poly(g, *symbols).terms())
            for g in sympy.groebner(exprs, *symbols, **options).exprs
        }
        assert got == expected, [str(g) for g in ideal]
        compared += 1
    assert compared >= 12
