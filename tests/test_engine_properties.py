"""Property tests for the normal-form engine choice and the neighbour relation.

The engine FpAlgebra picks for unit-monomial relations (monomial deletion)
must give the normal forms of a reduced Groebner basis of the same ideal,
which is what makes letting the relations pick the engine safe.  The
neighbour relation must be reflexive and symmetric, agree with its
subtraction-free form, and hold exactly when the pair factors through the
universal p = 1 simplex; p + 1 mutual neighbours, p = 2 or 3, factor
through the universal p-simplex, and one pair that is not spoils that.
Element sums skip a second normal form, which is sound only because a sum
of normal forms is already one.  Products in a
monomial quotient form only the surviving terms, and maps evaluate inside
their codomain; both must give what the free ring gives after deletion,
also when algebras of one relation shape over different rings share a
product table, and elements of monomial quotients over Z and Z/m, m prime
or composite, satisfy the ring axioms.
The universal presentations pass buchberger their Hilbert series, which
certifies their row-echelon form as the reduced basis: it must equal the
pair loop's basis, and a series the leads do not match must fall back to
the pair loop.  Normal forms are linear under both engines.  Algebras and
matrices dumped to text parse back to themselves, under either engine.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.algebra import (  # noqa: E402
    AlgebraMap,
    FpAlgebra,
    classifying_map,
    compose,
    free_algebra,
    universal_simplex,
)
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.errors import IllDefinedMap  # noqa: E402
from nbhd.formats import dump_algebra, dump_matrix, parse_algebra, parse_matrix  # noqa: E402
import nbhd.ideal  # noqa: E402
from nbhd.ideal import Ideal, buchberger  # noqa: E402
from nbhd.neighbour import (  # noqa: E402
    SimplexMatrix,
    is_neighbour,
    is_neighbour_product_form,
    universal_dtilde,
)
from nbhd.poly import MonomialOrder, Polynomial, VarSet, parse_poly  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
VARSET = VarSet(("X", "Y", "Z"))
MAP_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3"))


def _coefficients(ring, units=False):
    if ring.kind == "Q":
        numerator = st.integers(-5, 5).filter(bool) if units else st.integers(-5, 5)
        return st.builds(Fraction, numerator, st.integers(1, 4))
    if ring.kind == "Z":
        return st.sampled_from((-1, 1)) if units else st.integers(-3, 3)
    return st.integers(1 if units else 0, ring.modulus - 1)


def _exponents(varset, top):
    return st.tuples(*[st.integers(0, top)] * len(varset))


def _polynomials(varset, ring, max_terms, top):
    terms = st.tuples(_exponents(varset, top), _coefficients(ring))
    return st.lists(terms, max_size=max_terms).map(lambda ts: Polynomial(varset, ring, ts))


def _units(ring):
    """Coefficients that are units of the ring: over Z/4 the nonzero 2 is not."""
    return _coefficients(ring, units=True).filter(lambda v: ring.is_unit(ring.normalize(v)))


def _deleted(p, relations):
    """p with every term a relation's monomial divides left out, by comparing
    exponents directly: the free-ring reference for the monomial engine."""
    leads = [next(iter(r._terms)) for r in relations]
    kept = {
        e: v for e, v in p._terms.items()
        if not any(all(x <= y for x, y in zip(lead, e)) for lead in leads)
    }
    return Polynomial._raw(p.varset, p.ring, kept)


# buchberger accepts unit-monomial relations over any ring, so the engines
# are compared over rings with and without zero divisors
PRESENTATION_RINGS = (QQ, RingSpec.modular(5), RingSpec.parse("Z"), RingSpec.parse("Z/4"))


@st.composite
def monomial_presentations(draw):
    ring = draw(st.sampled_from(PRESENTATION_RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    term = st.tuples(_exponents(VARSET, 3), _units(ring))
    relations = draw(st.lists(term.map(lambda t: Polynomial(VARSET, ring, [t])), max_size=4))
    p = draw(_polynomials(VARSET, ring, 8, 4))
    return ring, order, relations, p


@PROPERTY
@given(monomial_presentations())
def test_monomial_engine_matches_the_reduced_groebner_basis(case):
    ring, order, relations, p = case
    algebra = FpAlgebra(ring, VARSET, relations, order)
    assert algebra.strategy == "monomial"
    basis = buchberger(Ideal(VARSET, ring, tuple(relations)), order)
    assert algebra.normal_form(p) == basis.normal_form(p)


@st.composite
def map_pairs(draw):
    """Two maps from a free algebra into a Weil-style algebra; the second
    moves each image by a displacement of degree at most one per variable,
    with a constant term now and then, so both verdicts come up."""
    ring = draw(st.sampled_from(MAP_RINGS))
    pattern = draw(st.sampled_from(WEIL_PATTERNS))
    codomain = random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)
    domain = free_algebra(ring, ("X1", "X2")[: draw(st.integers(1, 2))])
    size = len(domain.varset)
    images = draw(st.lists(_polynomials(codomain.varset, ring, 3, 2), min_size=size, max_size=size))
    moves = draw(st.lists(_polynomials(codomain.varset, ring, 2, 1), min_size=size, max_size=size))
    f = AlgebraMap(domain, codomain, images)
    g = AlgebraMap(domain, codomain, [a + d for a, d in zip(images, moves)])
    return f, g


@PROPERTY
@given(map_pairs())
def test_neighbour_relation_is_reflexive_symmetric_and_matches_product_form(pair):
    f, g = pair
    assert is_neighbour(f, f) and is_neighbour(g, g)
    verdict = is_neighbour(f, g).ok
    assert is_neighbour(g, f).ok == verdict
    assert is_neighbour_product_form(f, g).ok == verdict


@PROPERTY
@given(map_pairs())
def test_classifying_map_exists_exactly_for_neighbours(pair):
    f, g = pair
    simplex = universal_simplex(f.domain, 1)
    try:
        h = classifying_map(simplex, [f, g])
    except IllDefinedMap:
        assert not is_neighbour(f, g)
    else:
        assert is_neighbour(f, g)
        assert compose(h, simplex.maps[0]) == f and compose(h, simplex.maps[1]) == g


SIMPLEX_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z/2", "Z/3"))


@st.composite
def neighbour_tuples(draw):
    """p + 1 maps, p = 2 or 3, from a free algebra on X1, X2 into
    R[u, v, e1, ...] modulo every product of two variables except u*v.  Each
    map is c + D_r with D_r linear in the e's, so every pair is neighbours.
    With spoil, u is added to map a at X1 and v to map b at X2: the pair
    (a, b) then has the product -u*v of its differences, and every other
    pair differs by u, v or e's alone, so it stays neighbours."""
    ring = draw(st.sampled_from(SIMPLEX_RINGS))
    p = draw(st.integers(2, 3))
    representation = draw(st.sampled_from(("difference", "tensor")))
    names = ("u", "v", *(f"e{i + 1}" for i in range(draw(st.integers(1, 2)))))
    relations = [f"{s}*{t}" for i, s in enumerate(names) for t in names[i:] if {s, t} != {"u", "v"}]
    codomain = FpAlgebra(ring, names, relations)
    domain = free_algebra(ring, ("X1", "X2"))
    base = draw(st.lists(_polynomials(codomain.varset, ring, 3, 2), min_size=2, max_size=2))
    linear = st.lists(_coefficients(ring), min_size=len(names) - 2, max_size=len(names) - 2).map(
        lambda cs: sum((c * codomain.generator(e) for c, e in zip(cs, names[2:])), codomain.zero())
    )
    images = [[codomain.element(c) + draw(linear) for c in base] for _ in range(p + 1)]
    spoil = None
    if draw(st.booleans()):
        spoil = tuple(sorted(draw(st.lists(st.integers(0, p), min_size=2, max_size=2, unique=True))))
        images[spoil[0]][0] += codomain.generator("u")
        images[spoil[1]][1] += codomain.generator("v")
    simplex = universal_simplex(domain, p, representation)
    return simplex, [AlgebraMap(domain, codomain, row) for row in images], spoil


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(neighbour_tuples())
def test_classifying_map_restores_mutual_neighbours_and_refuses_one_bad_pair(case):
    simplex, maps, spoil = case
    bad = [
        (r, s)
        for r in range(len(maps))
        for s in range(r + 1, len(maps))
        if not is_neighbour(maps[r], maps[s])
    ]
    assert bad == ([] if spoil is None else [spoil])
    if spoil is not None:
        with pytest.raises(IllDefinedMap):
            classifying_map(simplex, maps)
        return
    h = classifying_map(simplex, maps)
    assert all(compose(h, inclusion) == f for inclusion, f in zip(simplex.maps, maps))


GROEBNER_RELATIONS = (("X^2 - Y", "X*Y - 1"), ("X^3 - Y", "X*Y^2 - 1"), ("X*Y - Z^2", "Y^2 - X*Z"))


@st.composite
def element_pairs(draw):
    """Two elements of a Weil-style algebra over any ring, or of a
    Groebner-engine algebra over Q."""
    if draw(st.booleans()):
        ring = draw(st.sampled_from(MAP_RINGS))
        pattern = draw(st.sampled_from(WEIL_PATTERNS))
        algebra = random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)
    else:
        relations = draw(st.sampled_from(GROEBNER_RELATIONS))
        algebra = FpAlgebra(QQ, VARSET, relations, draw(st.sampled_from(list(MonomialOrder))))
        assert algebra.strategy == "groebner"
    polys = _polynomials(algebra.varset, algebra.ring, 5, 3)
    return algebra, algebra.element(draw(polys)), algebra.element(draw(polys))


@PROPERTY
@given(element_pairs())
def test_sums_of_normal_forms_are_normal_forms(case):
    algebra, a, b = case
    assert (a + b).rep == algebra.normal_form(a.rep + b.rep)
    assert (a - b).rep == algebra.normal_form(a.rep - b.rep)


# -- the quotient-aware product and map evaluation ------------------------------

KERNEL_RINGS = MAP_RINGS + (RingSpec.parse("Z/4"),)  # Z/4 has zero divisors


@st.composite
def monomial_quotients(draw, rings=KERNEL_RINGS):
    """A monomial quotient in either order: a random_weil_algebra, or unit
    monomial relations on X, Y, Z that may leave it infinite-dimensional."""
    ring = draw(st.sampled_from(rings))
    order = draw(st.sampled_from(list(MonomialOrder)))
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(WEIL_PATTERNS))
        weil = random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)
        return FpAlgebra(ring, weil.varset, weil.relations, order)
    term = st.tuples(_exponents(VARSET, 3), _units(ring))
    relations = draw(st.lists(term.map(lambda t: Polynomial(VARSET, ring, [t])), max_size=4))
    return FpAlgebra(ring, VARSET, relations, order)


@PROPERTY
@given(monomial_quotients(), st.data())
def test_product_forms_exactly_the_reduced_free_product(algebra, data):
    assert algebra.strategy == "monomial"
    polys = _polynomials(algebra.varset, algebra.ring, 6, 3)
    a, b = (algebra.element(data.draw(polys)) for _ in range(2))
    p, q = data.draw(polys), data.draw(polys)  # not normal forms
    # (p + 1) * (p - 1) cancels its cross terms p and -p, which must drop out
    for x, y in ((a.rep, b.rep), (b.rep, a.rep), (p, q), (q, p), (p + 1, p - 1)):
        assert algebra._product(x, y) == _deleted(x * y, algebra.relations)
    assert (a * b).rep == _deleted(a.rep * b.rep, algebra.relations)


SHARING_RINGS = (QQ, RingSpec.parse("Z"), RingSpec.parse("Z/4"))
SHARING_NAMES = (("X", "Y", "Z"), ("a", "b", "c"), ("u", "v", "w"))


@st.composite
def quotients_of_one_shape(draw):
    """Two or three monomial quotients with the same relation exponents, over
    different rings (a unit coefficient such as 3 over Z/4 included), in
    drawn orders and on different variable names."""
    exponents = draw(st.lists(_exponents(VARSET, 3), max_size=4))
    rings = draw(st.permutations(SHARING_RINGS))[: draw(st.integers(2, 3))]
    algebras = []
    for ring, names in zip(rings, SHARING_NAMES):
        varset = VarSet(names)
        relations = [Polynomial(varset, ring, {e: draw(_units(ring))}) for e in exponents]
        order = draw(st.sampled_from(list(MonomialOrder)))
        algebras.append(FpAlgebra(ring, varset, relations, order))
    return algebras


@PROPERTY
@given(quotients_of_one_shape(), st.data())
def test_algebras_sharing_a_product_table_multiply_as_the_free_ring(algebras, data):
    assert all(algebra._table is algebras[0]._table for algebra in algebras)
    for _ in range(data.draw(st.integers(1, 6))):  # products interleaved between the algebras
        algebra = data.draw(st.sampled_from(algebras))
        polys = _polynomials(algebra.varset, algebra.ring, 6, 3)
        p, q = data.draw(polys), data.draw(polys)
        if data.draw(st.booleans()):
            p, q = algebra.normal_form(p), algebra.normal_form(q)
        for x, y in ((p, q), (p + 1, p - 1)):
            assert algebra._product(x, y) == _deleted(x * y, algebra.relations)


@st.composite
def kernel_algebras(draw, name):
    """A monomial quotient over the named ring, or for "groebner" the
    Groebner-engine algebra of universal_dtilde(2, 2) over Q."""
    if name != "groebner":
        return draw(monomial_quotients((RingSpec.parse(name),)))
    algebra, _ = universal_dtilde(2, 2, QQ)
    assert algebra.strategy == "groebner"
    return algebra


@pytest.mark.parametrize("name", ["Q", "Z", "Z/2", "Z/3", "Z/4", "groebner"])
@PROPERTY
@given(data=st.data())
def test_sum_of_products_is_the_sum_of_the_element_products(name, data):
    algebra = data.draw(kernel_algebras(name))
    ring = algebra.ring
    polys = _polynomials(algebra.varset, ring, 4, 2)
    pairs = [
        (algebra.element(data.draw(polys)), algebra.element(data.draw(polys)))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    a, b = data.draw(st.sampled_from(pairs))
    pairs.append((-a, b))  # cancels a * b exactly, inside the one dict
    if ring.modulus == 4:
        a, b = data.draw(st.sampled_from(pairs))
        pairs.append((a * 2, b * 2))  # 2 * 2 = 0: every product vanishes
    terms = algebra._sum_of_products([(a.rep._terms, b.rep._terms) for a, b in pairs])
    expected = sum((a * b for a, b in pairs), algebra.zero())
    assert terms == expected.rep._terms
    if algebra.strategy != "groebner":
        # the terms in the order of the element sum, partial cancellations
        # included; the Groebner engine reduces the free sum instead
        assert list(terms) == list(expected.rep._terms)
    # canonical: no zero coefficient, an integral rational is an int
    assert all(not ring.is_zero(c) and type(c) is type(ring.normalize(c)) for c in terms.values())
    p = Polynomial._raw(algebra.varset, ring, terms)
    assert algebra.normal_form(p) == p


AXIOM_RINGS = tuple(RingSpec.parse(name) for name in ("Z", "Z/5", "Z/4", "Z/6"))


@PROPERTY
@given(monomial_quotients(AXIOM_RINGS), st.data())
def test_monomial_quotients_satisfy_the_ring_axioms(algebra, data):
    polys = _polynomials(algebra.varset, algebra.ring, 4, 2)
    a, b, c = (algebra.element(data.draw(polys)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert algebra.one() * a == a


@st.composite
def maps_into_weil_algebras(draw):
    """Images in a Weil-style codomain for the generators of a free domain
    or of one with unit monomial relations, which the images may violate."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    pattern = draw(st.sampled_from(WEIL_PATTERNS))
    codomain = random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)
    names = ("X1", "X2")[: draw(st.integers(1, 2))]
    domain_vars = VarSet(names)
    relations = draw(st.lists(_exponents(domain_vars, 3).filter(any), max_size=2))
    domain = FpAlgebra(ring, domain_vars, [Polynomial(domain_vars, ring, {e: 1}) for e in relations])
    size = len(names)
    images = draw(st.lists(_polynomials(codomain.varset, ring, 3, 2), min_size=size, max_size=size))
    x = draw(_polynomials(domain_vars, ring, 6, 12))
    return domain, codomain, [codomain.element(im) for im in images], x


@PROPERTY
@given(maps_into_weil_algebras())
def test_maps_evaluate_inside_the_codomain_as_in_the_free_ring(case):
    domain, codomain, images, x = case
    image_reps = [im.rep for im in images]

    def free_evaluation(p):
        return codomain.normal_form(p.substitute(image_reps, varset=codomain.varset))

    violated = [r for r in domain.relations if not free_evaluation(r).is_zero()]
    if violated:
        value = codomain.element(free_evaluation(violated[0]))
        with pytest.raises(IllDefinedMap) as raised:
            AlgebraMap(domain, codomain, images)
        assert str(raised.value) == f"relation {violated[0]} maps to {value}, not zero"
        return
    f = AlgebraMap(domain, codomain, images)
    element = domain.element(x)
    assert f.apply(element).rep == free_evaluation(element.rep)


# -- Hilbert-series certified bases of the universal presentations ------------

QUADRIC_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z/2", "Z/3", "Z/5"))


@st.composite
def universal_presentations(draw):
    """universal_dtilde(p, n), or the difference or tensor simplex at p over
    a free base with n generators, over Q or a prime field (Z/2 included),
    in either order."""
    ring = draw(st.sampled_from(QUADRIC_RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    p, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("dtilde", "difference", "tensor")))
    if kind == "dtilde":
        return universal_dtilde(p, n, ring, order)[0]
    if kind == "tensor":
        n = min(n, 3)  # the (p + 1) * n tensor variables make the reference slow
    base = free_algebra(ring, [f"X{i + 1}" for i in range(n)])
    return universal_simplex(base, p, kind, order).algebra


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(universal_presentations())
def test_row_reduction_is_the_reduced_groebner_basis_of_the_universal_quadrics(algebra):
    ideal = Ideal(algebra.varset, algebra.ring, algebra.relations)
    basis = buchberger(ideal, algebra.order, hilbert=None).basis
    built = FpAlgebra(algebra.ring, algebra.varset, algebra.relations, algebra.order)
    assert algebra == built and hash(algebra) == hash(built)
    assert algebra.strategy == built.strategy
    if algebra.strategy == "groebner":  # the relations of D~(p, 1) are unit monomials
        assert algebra._gb.basis == built._gb.basis == basis


def _count_s_polynomials(monkeypatch):
    formed = []
    s_polynomial = nbhd.ideal.s_polynomial

    def counting(*args, **kwargs):
        formed.append(args)
        return s_polynomial(*args, **kwargs)

    monkeypatch.setattr("nbhd.ideal.s_polynomial", counting)
    return formed


def test_plain_permanents_have_a_basis_beyond_their_quadrics(monkeypatch):
    """The nine 2x2 permanents of a generic 3x3 matrix, without the row
    products of D~(3, 3): given the series of D~(3, 3), which their leads
    do not have, buchberger falls back to the pair loop and finds the
    cubics of their reduced basis."""
    varset = VarSet(tuple(f"x{r}{c}" for r in range(1, 4) for c in range(1, 4)))
    pairs = ((1, 2), (1, 3), (2, 3))
    permanents = tuple(
        parse_poly(f"x{r}{i}*x{s}{j} + x{r}{j}*x{s}{i}", varset, QQ)
        for r, s in pairs
        for i, j in pairs
    )
    ideal = Ideal(varset, QQ, permanents)
    formed = _count_s_polynomials(monkeypatch)
    for order in MonomialOrder:
        basis = buchberger(ideal, order).basis
        assert max(g.total_degree() for g in basis) >= 3
        formed.clear()
        assert buchberger(ideal, order, hilbert=((1, 9, 9, 1), 0)).basis == basis
        assert formed


@pytest.mark.parametrize("order", list(MonomialOrder), ids=lambda o: o.value)
def test_a_series_the_leads_do_not_match_falls_back(monkeypatch, order):
    """D~(2, 2) over Q has the series 1 + 4t + t^2; wrong numerators and a
    wrong count of free variables all run the pair loop to the same basis."""
    algebra = universal_dtilde(2, 2, QQ, order)[0]
    ideal = Ideal(algebra.varset, QQ, algebra.relations)
    formed = _count_s_polynomials(monkeypatch)
    assert buchberger(ideal, order, hilbert=((1, 4, 1), 0)).basis == algebra._gb.basis
    assert not formed
    for wrong in (((1, 4, 2), 0), ((1, 4), 0), ((1, 4, 1, 0, 1), 0), ((1, 4, 1), 1), ((1, 4, 1), -1)):
        formed.clear()
        assert buchberger(ideal, order, hilbert=wrong).basis == algebra._gb.basis
        assert formed


# -- normal forms are linear under both engines ---------------------------------

LINEAR_RINGS = (QQ, RingSpec.parse("Z/3"))


@st.composite
def linear_cases(draw):
    """An algebra over Q or Z/3 in either order, under either engine: unit
    monomial relations, fixed Groebner relations, or a certified universal
    presentation; with two polynomials and two scalars."""
    ring = draw(st.sampled_from(LINEAR_RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    kind = draw(st.sampled_from(("monomial", "groebner", "dtilde", "tensor")))
    if kind == "monomial":
        term = st.tuples(_exponents(VARSET, 3), _coefficients(ring, units=True))
        relations = draw(st.lists(term.map(lambda t: Polynomial(VARSET, ring, [t])), max_size=4))
        algebra = FpAlgebra(ring, VARSET, relations, order)
    elif kind == "groebner":
        algebra = FpAlgebra(ring, VARSET, draw(st.sampled_from(GROEBNER_RELATIONS)), order)
    elif kind == "dtilde":
        algebra = universal_dtilde(draw(st.integers(2, 3)), draw(st.integers(1, 3)), ring, order)[0]
    else:
        base = free_algebra(ring, ("X", "Y")[: draw(st.integers(1, 2))])
        algebra = universal_simplex(base, draw(st.integers(1, 3)), "tensor", order).algebra
    polys = _polynomials(algebra.varset, ring, 6, 3)
    scalars = _coefficients(ring).map(ring.normalize)
    return algebra, draw(polys), draw(polys), draw(scalars), draw(scalars)


@PROPERTY
@given(linear_cases())
def test_normal_forms_are_linear_under_both_engines(case):
    algebra, f, g, a, b = case
    assert algebra.strategy == ("monomial" if algebra._gb is None else "groebner")
    nf = algebra.normal_form
    assert nf(f.scale(a) + g.scale(b)) == nf(f).scale(a) + nf(g).scale(b)


# -- text formats round trip ------------------------------------------------------

FORMAT = settings(max_examples=20, deadline=None, derandomize=True, database=None)
FORMAT_RINGS = pytest.mark.parametrize("ring", ("Q", "Z", "Z/4", "Z/5"))
FORMAT_NAMES = (("X", "Y"), ("u", "v", "w"), ("e1", "e2"))


@st.composite
def presented_algebras(draw, ring):
    """An algebra over the named ring in either order: over a field,
    Groebner relations of degree at most two half of the time; otherwise
    unit monomial relations, such as 3*u^2 over Z/4."""
    ring = RingSpec.parse(ring)
    groebner = ring.is_field and draw(st.booleans())
    order = draw(st.sampled_from(list(MonomialOrder)))
    varset = VarSet(draw(st.sampled_from(FORMAT_NAMES)))
    if groebner:
        relation = _polynomials(varset, ring, 3, 2).filter(lambda p: len(p) > 1)
    else:
        unit = _coefficients(ring, units=True).filter(lambda v: ring.is_unit(ring.normalize(v)))
        relation = st.tuples(_exponents(varset, 3), unit).map(lambda t: Polynomial(varset, ring, [t]))
    return FpAlgebra(ring, varset, draw(st.lists(relation, min_size=1 if groebner else 0, max_size=3)), order)


@FORMAT_RINGS
@FORMAT
@given(data=st.data())
def test_algebras_survive_dump_and_parse(ring, data):
    algebra = data.draw(presented_algebras(ring))
    text = dump_algebra(algebra)
    again = parse_algebra(text, algebra.order)
    assert again == algebra
    assert again.strategy == algebra.strategy
    assert dump_algebra(again) == text


@FORMAT_RINGS
@FORMAT
@given(data=st.data())
def test_matrices_survive_dump_and_parse(ring, data):
    algebra = data.draw(presented_algebras(ring))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entry = _polynomials(algebra.varset, algebra.ring, 4, 3)
    matrix = SimplexMatrix(algebra, [[data.draw(entry) for _ in range(cols)] for _ in range(rows)])
    assert parse_matrix(dump_matrix(matrix), algebra) == matrix
