"""The suite's random draws, pinned against the randint-based originals.

verify._random_value and verify._random_poly draw with randrange and build
their terms dict directly, with no validating constructor and no Fraction
per value.  They must take exactly the random numbers the originals took
and return exactly the polynomials the originals returned, so every report
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
    _displaced_images,
    _monomial_pairs,
    _random_affine_weights,
    _random_element,
    _random_poly,
    _random_value,
    build_corpus,
    check_affine_multiplicative,
    check_simplex_matrix_criterion,
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


def _typed_terms(poly):
    """The terms in dict order, each value with its type: an int and a
    Fraction that compare equal would still print differently."""
    return [(exps, type(value), value) for exps, value in poly._terms.items()]


@cache
def _corpus():
    return build_corpus(CONFIG)


# -- the draws take the same random numbers ------------------------------------


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
        value, expected = _random_value(ours, ring), ring.normalize(_reference_value(theirs, ring))
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
        tail = [_random_value(twin, ring) for _ in range(count - 1)]
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
