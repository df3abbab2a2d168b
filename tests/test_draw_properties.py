"""The suite's random draws, pinned against the randint-based originals.

The draw helpers of verify take their random numbers from getrandbits
through one kernel, verify._below, and build their terms dict directly,
with no validating constructor and no Fraction per value; over a monomial
quotient they write each drawn term straight into its normal form.  They
must take exactly the random numbers the originals took and return exactly
the polynomials and normal forms the originals returned, so every report
stays byte-identical; the originals are kept here verbatim as the
reference.  The counting tests pin what the draws, and two checks that
repeated work, no longer do.
"""

import random
from fractions import Fraction
from functools import cache, reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nbhd.neighbour  # noqa: E402
import nbhd.verify  # noqa: E402
from nbhd.algebra import AlgebraElement, FpAlgebra  # noqa: E402
from nbhd.arith import QQ  # noqa: E402
from nbhd.poly import Polynomial, VarSet  # noqa: E402
from nbhd.verify import (  # noqa: E402
    ALLOWED_RINGS,
    SuiteConfig,
    _augmentation_delta,
    _below,
    _displaced_images,
    _monomial_pairs,
    _random_dtilde_matrix,
    _random_affine_weights,
    _random_element,
    _random_poly,
    _random_value,
    build_corpus,
    check_affine_multiplicative,
    check_simplex_matrix_criterion,
    run_suite,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
CONFIG = SuiteConfig(seed=5, case_count=10)


# -- the reference: the draws as they were written with randint ---------------


def _reference_value(rng, ring):
    if ring.kind == "Q":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if ring.kind == "Z":
        return rng.randint(-4, 4)
    return rng.randint(0, ring.modulus - 1)  # type: ignore[operator]


def _reference_poly(
    rng,
    varset,
    ring,
    max_degree,
    max_terms=3,
    min_degree=0,
):
    n = len(varset)
    terms = []
    count = rng.randint(0 if min_degree == 0 else 1, max_terms)
    for _ in range(count):
        degree = rng.randint(min_degree, max_degree) if n else 0
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        terms.append((tuple(exps), _reference_value(rng, ring)))
    return Polynomial(varset, ring, terms)


def _reference_delta(rng, codomain, general):
    """_augmentation_delta as it was written: the reference polynomial, the
    zero-draw fallback to e1, then the normal form."""
    varset, ring = codomain.varset, codomain.ring
    e1 = (1,) + (0,) * (len(varset) - 1)
    deltas = []
    for _ in varset:
        if general:
            poly = _reference_poly(rng, varset, ring, 2, max_terms=2, min_degree=1)
            if poly.is_zero():
                poly = Polynomial.variable(varset, ring, 0)
        else:
            poly = Polynomial(varset, ring, [(e1, _reference_value(rng, ring))])
        deltas.append(codomain.element(poly))
    return deltas


def _typed_terms(poly):
    """The terms in dict order, each value with its type: an int and a
    Fraction that compare equal would still print differently."""
    return [(exps, type(value), value) for exps, value in poly._terms.items()]


@cache
def _corpus():
    return build_corpus(CONFIG)


# -- the draws take the same random numbers ------------------------------------


def test_below_is_randrange():
    ours, theirs = random.Random(2024), random.Random(2024)
    for n in range(1, 301):
        for _ in range(3):
            assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range_without_drawing(n):
    drawn = []
    with pytest.raises(ValueError):
        _below(drawn.append, n)
    assert drawn == []
    with pytest.raises(ValueError):
        random.Random(0).randrange(n)


@PROPERTY
@given(
    seed=st.integers(0, 2**32),
    ring_index=st.integers(0, len(ALLOWED_RINGS) - 1),
    draws=st.integers(1, 12),
)
def test_values_are_the_randint_values(seed, ring_index, draws):
    ring = CONFIG.ring_specs()[ring_index]
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        value = _random_value(ours.getrandbits, ring)
        expected = ring.normalize(_reference_value(theirs, ring))
        assert (type(value), value) == (type(expected), expected)
    assert ours.getstate() == theirs.getstate()


@PROPERTY
@given(
    seed=st.integers(0, 2**32),
    ring_index=st.integers(0, len(ALLOWED_RINGS) - 1),
    n=st.integers(0, 3),
    max_terms=st.integers(1, 4),
    min_degree=st.integers(0, 1),
    extra_degree=st.integers(0, 3),
    draws=st.integers(1, 4),
)
def test_polynomials_are_the_constructor_polynomials(
    seed, ring_index, n, max_terms, min_degree, extra_degree, draws
):
    ring = CONFIG.ring_specs()[ring_index]
    varset = VarSet(tuple(f"X{i + 1}" for i in range(n)))
    max_degree = max(min_degree, 1) + extra_degree
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        poly = _random_poly(ours, varset, ring, max_degree, max_terms, min_degree)
        expected = _reference_poly(theirs, varset, ring, max_degree, max_terms, min_degree)
        assert poly == expected
        assert _typed_terms(poly) == _typed_terms(expected)
        assert poly.varset is varset and poly.ring is ring
    assert ours.getstate() == theirs.getstate()


@PROPERTY
@given(
    seed=st.integers(0, 2**32),
    which=st.integers(0, 10**6),
    max_degree=st.integers(1, 3),
    max_terms=st.integers(1, 4),
    min_degree=st.integers(0, 1),
)
def test_elements_are_the_normal_forms_of_the_reference(
    seed, which, max_degree, max_terms, min_degree
):
    corpus = _corpus()
    algebras = [*corpus.algebras.values(), *corpus.domains.values()]
    algebra = algebras[which % len(algebras)]
    ours, theirs = random.Random(seed), random.Random(seed)
    element = _random_element(ours, algebra, max_degree, max_terms, min_degree)
    reference = algebra.element(
        _reference_poly(theirs, algebra.varset, algebra.ring, max_degree, max_terms, min_degree)
    )
    assert isinstance(element, AlgebraElement) and element.parent is algebra
    assert element == reference
    assert _typed_terms(element.rep) == _typed_terms(reference.rep)
    assert algebra.normal_form(element.rep) == element.rep
    assert ours.getstate() == theirs.getstate()


@PROPERTY
@given(seed=st.integers(0, 2**32), which=st.integers(0, 10**6), general=st.booleans())
def test_augmentation_deltas_are_the_reference_normal_forms(seed, which, general):
    algebras = list(_corpus().algebras.values())
    codomain = algebras[which % len(algebras)]
    ours, theirs = random.Random(seed), random.Random(seed)
    deltas = _augmentation_delta(ours, codomain, general)
    expected = _reference_delta(theirs, codomain, general)
    assert all(d.parent is codomain for d in deltas)
    assert [_typed_terms(d.rep) for d in deltas] == [_typed_terms(e.rep) for e in expected]
    assert ours.getstate() == theirs.getstate()


@PROPERTY
@given(
    seed=st.integers(0, 2**32),
    ring_index=st.integers(0, len(ALLOWED_RINGS) - 1),
    p=st.integers(1, 3),
    n=st.integers(1, 3),
)
def test_displaced_images_are_the_reference_draws(seed, ring_index, p, n):
    """The base images and displacement rows are the normal forms of the
    reference draws, and the rows are the same when the base images are
    spent without being built."""
    corpus, ring = _corpus(), CONFIG.ring_specs()[ring_index]
    theirs = random.Random(seed)
    pattern = "full" if theirs.random() < 0.5 else "squares"
    codomain = corpus.weil(ring, pattern, n)
    base = [
        codomain.element(_reference_poly(theirs, codomain.varset, ring, 2)) for _ in range(n)
    ]
    rows = [_reference_delta(theirs, codomain, pattern == "full") for _ in range(p)]
    for keep in (True, False):
        ours = random.Random(seed)
        drawn_codomain, drawn_base, drawn_rows = _displaced_images(
            ours, corpus, ring, p, n, base=keep
        )
        assert drawn_codomain is codomain
        if keep:
            assert [_typed_terms(b.rep) for b in drawn_base] == [_typed_terms(b.rep) for b in base]
        else:
            assert drawn_base is None
        assert [[_typed_terms(d.rep) for d in row] for row in drawn_rows] == [
            [_typed_terms(d.rep) for d in row] for row in rows
        ]
        assert ours.getstate() == theirs.getstate()


def test_the_e1_fallback_is_for_a_drawn_zero_only():
    """A coordinate whose drawn polynomial is zero is e1; one whose drawn
    polynomial is nonzero but deleted by the relations stays zero."""
    z2 = next(ring for ring in CONFIG.ring_specs() if str(ring) == "Z/2")
    codomain = _corpus().weil(z2, "full", 2)
    fallbacks = deleted = 0
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        for delta in _augmentation_delta(ours, codomain, True):
            poly = _reference_poly(theirs, codomain.varset, z2, 2, max_terms=2, min_degree=1)
            if poly.is_zero():
                fallbacks += 1
                assert delta == codomain.generator(0)
            else:
                deleted += delta.is_zero()
                assert delta == codomain.element(poly)
    assert fallbacks > 0 and deleted > 0


def test_the_groebner_engine_reduces_the_drawn_polynomial():
    # no corpus algebra has this engine; its draws are still normal forms
    algebra = FpAlgebra(QQ, ("x", "y"), ["x^2 - y"])
    assert algebra.strategy == "groebner"
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        element = _random_element(ours, algebra, 3)
        reference = algebra.element(_reference_poly(theirs, algebra.varset, QQ, 3))
        assert _typed_terms(element.rep) == _typed_terms(reference.rep)
        assert ours.getstate() == theirs.getstate()
    with pytest.raises(ValueError):
        algebra._deletes((2, 0))


def test_every_corpus_pattern_is_drawn_from():
    patterns = {pattern for (_, pattern, _) in _corpus().algebras}
    assert patterns == {"full", "squares", "mixed"}
    assert {ring for (ring, _) in _corpus().domains} == set(CONFIG.ring_specs())
    assert {str(ring) for (ring, _) in _corpus().domains} == set(ALLOWED_RINGS)


# -- counts ------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_displaced_images_build_no_polynomial_through_the_constructor(monkeypatch):
    corpus = _corpus()
    inits = _count_calls(monkeypatch, Polynomial, "__init__")
    rng = random.Random(11)
    drawn = 0
    for ring in CONFIG.ring_specs():
        for p, n in ((1, 1), (2, 3), (3, 2)):
            codomain, base, rows = _displaced_images(rng, corpus, ring, p, n)
            drawn += sum(1 for x in (*base, *(d for row in rows for d in row)) if x)
    assert drawn > 0
    assert inits == []


def test_a_dtilde_matrix_builds_no_base_image(monkeypatch):
    """_random_dtilde_matrix spends the base images' bits but builds only
    the p * n displacement entries, each straight into normal form."""
    corpus = _corpus()
    elements = _count_calls(monkeypatch, AlgebraElement, "__init__")
    normal_forms = _count_calls(monkeypatch, FpAlgebra, "normal_form")
    rng = random.Random(17)
    for ring in CONFIG.ring_specs():
        for p, n in ((1, 1), (2, 3), (3, 2)):
            elements.clear()
            matrix = _random_dtilde_matrix(rng, corpus, ring, p, n)
            assert (matrix.rows, matrix.cols) == (p, n)
            assert len(elements) == p * n
    assert normal_forms == []


def test_a_seed_42_run_spends_the_same_bits_with_few_normal_forms(monkeypatch):
    """The draws spend exactly the random bits they always spent, and only
    the checks' own elements, not the drawn ones, take a normal form."""
    getrandbits = _count_calls(monkeypatch, random.Random, "getrandbits")
    normal_forms = _count_calls(monkeypatch, FpAlgebra, "normal_form")
    report = run_suite(SuiteConfig(seed=42))
    assert all(record.verdict == "pass" for record in report.records)
    assert len(getrandbits) == 241_110
    assert len(normal_forms) <= 5_300


def test_affine_weights_form_no_constant_once_the_unit_is_cached(monkeypatch):
    """A number's element is the number times the cached unit, so drawing
    affine weights in a corpus algebra forms no constant polynomial and
    takes no normal form; the weights are still the normal forms of
    1 - sum(tail) and of the drawn tail."""
    algebras = list(_corpus().algebras.values())
    for algebra in algebras:
        algebra.one()
    constants = _count_calls(monkeypatch, Polynomial, "constant")
    normal_forms = _count_calls(monkeypatch, FpAlgebra, "normal_form")
    rng = random.Random(13)
    drawn = [
        (algebra, count, _random_affine_weights(rng, algebra, count))
        for algebra in algebras
        for count in (2, 3)
    ]
    assert constants == [] and normal_forms == []
    monkeypatch.undo()
    twin = random.Random(13)
    for algebra, count, weights in drawn:
        ring = algebra.ring
        tail = [_random_value(twin.getrandbits, ring) for _ in range(count - 1)]
        head = ring.sub(ring.one(), reduce(ring.add, tail, ring.zero()))
        expected = [
            algebra.normal_form(Polynomial.constant(algebra.varset, ring, value))
            for value in (head, *tail)
        ]
        assert [w.rep for w in weights] == expected
        assert [_typed_terms(w.rep) for w in weights] == [_typed_terms(e) for e in expected]


def test_monomial_pairs_build_each_monomial_once(monkeypatch):
    base = _corpus().domain(QQ, 2)
    inits = _count_calls(monkeypatch, Polynomial, "__init__")
    pairs = list(_monomial_pairs(base, 3))
    assert inits == []
    monomials = {}
    for u, v in pairs:
        for m in (u, v):
            assert monomials.setdefault(m, m) is m
            ((exps, value),) = m._terms.items()
            assert value == 1 and type(value) is int
    assert len(monomials) == 10 and len(pairs) == 35


def test_the_map_is_compared_once_per_monomial(monkeypatch):
    """check_affine_multiplicative evaluates its universal combination once
    per distinct u of the monomial pairs, plus twice per corpus instance."""
    config = SuiteConfig(seed=3, p_max=2, n_max=2, degree_bound=3, case_count=1)
    corpus = build_corpus(config)
    applied = []
    original = nbhd.verify.affine_combination

    class Counted:
        def __init__(self, combined):
            self.combined = combined

        def apply(self, element):
            applied.append(element)
            return self.combined.apply(element)

    monkeypatch.setattr(
        nbhd.verify, "affine_combination", lambda *args: Counted(original(*args))
    )
    outcome = check_affine_multiplicative(config, corpus)
    assert outcome.verdict == "pass"
    distinct = 0
    for n in (1, 2):
        base = corpus.domain(QQ, n)
        distinct += len({u for u, _ in _monomial_pairs(base, 3)})
    assert distinct == 14
    assert len(applied) == config.p_max * distinct + 2


def test_the_matrix_criterion_scans_each_case_twice(monkeypatch):
    """is_simplex on the matrix and is_neighbour on the maps: one
    difference-product scan each, and no third scan of the same rows."""
    corpus = _corpus()
    scans = _count_calls(monkeypatch, nbhd.neighbour, "_difference_products")
    outcome = check_simplex_matrix_criterion(CONFIG, corpus)
    assert outcome.verdict == "pass"
    assert len(scans) == 2 * len(corpus.pairs)
