import json
import random
import re
from pathlib import Path

import pytest

import nbhd.verify
from nbhd.arith import QQ, RingSpec
from nbhd.errors import NbhdError, UninterpretableValue, UnknownCheck, UnknownFormat
from nbhd.neighbour import CheckResult, in_dtilde, is_neighbour, SimplexMatrix
from nbhd.verify import (
    ALLOWED_RINGS,
    CHECKS,
    SuiteConfig,
    WEIL_PATTERNS,
    build_corpus,
    check_transposition,
    emit_report,
    fail_injection_flips,
    random_weil_algebra,
    run_suite,
    shrink_failing_matrix,
    shrink_failing_pair,
    square_zero_full,
    squares_only,
)

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "verify-seed42.json"
SABOTAGE_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-seed42-sabotage.json"
SMALL = SuiteConfig(seed=7, p_max=1, n_max=2, degree_bound=2, rings=("Q", "Z/3"), case_count=20)


# -- configuration -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(p_max=0)
    with pytest.raises(ValueError):
        SuiteConfig(n_max=0)
    with pytest.raises(ValueError):
        SuiteConfig(degree_bound=1)
    with pytest.raises(ValueError):
        SuiteConfig(case_count=0)
    with pytest.raises(ValueError):
        SuiteConfig(rings=())
    with pytest.raises(ValueError):
        SuiteConfig(rings=("Q", "Q"))
    with pytest.raises(ValueError):
        SuiteConfig(rings=("GF(4)",))


@pytest.mark.parametrize(
    "field, value",
    [("seed", "x"), ("seed", 1.5), ("seed", True), ("p_max", "2"), ("n_max", 2.0), ("case_count", None)],
    ids=repr,
)
def test_config_fields_must_be_integers(field, value):
    # seed=True and seed=1 would draw different corpora, since the corpus is
    # seeded from the text of the seed
    with pytest.raises(UninterpretableValue, match=f"{field} must be an integer"):
        SuiteConfig(**{field: value})


@pytest.mark.parametrize("rings", [None, 3, "Q", "Z/3"], ids=repr)
def test_config_rings_must_be_an_iterable_of_names(rings):
    # a string would be read character by character, "Z/3" as ("Z", "/", "3")
    text = re.escape(f"rings must be an iterable of names, got {rings!r}")
    with pytest.raises(UninterpretableValue, match=text) as error:
        SuiteConfig(rings=rings)
    assert isinstance(error.value, TypeError)
    assert SuiteConfig(rings=["Q"]).rings == ("Q",)


def test_config_defaults_and_dict():
    config = SuiteConfig()
    assert config.rings == ALLOWED_RINGS
    d = config.as_dict()
    assert d["seed"] == 0 and d["case_count"] == 200
    assert d["rings"] == list(ALLOWED_RINGS)
    assert "version" in d
    assert [str(r) for r in config.ring_specs()] == list(ALLOWED_RINGS)


# -- corpus builders -------------------------------------------------------------


def test_random_weil_algebra_patterns():
    full = random_weil_algebra(0, QQ, 2, "square-zero-full")
    assert len(full.relations) == 3
    assert full.element("e1*e2").is_zero()

    thin = random_weil_algebra(0, QQ, 2, "squares-only")
    assert len(thin.relations) == 2
    assert not thin.element("e1*e2").is_zero()

    mixed = random_weil_algebra(3, RingSpec.modular(5), 3, "random-monomial")
    assert mixed.element("e1^2").is_zero()  # generator 1 always squares to zero

    with pytest.raises(ValueError):
        random_weil_algebra(0, QQ, 2, "squares")
    with pytest.raises(ValueError):
        random_weil_algebra(0, QQ, 0, "squares-only")


def test_random_weil_algebra_deterministic():
    for seed in (0, 1, 99):
        a = random_weil_algebra(seed, QQ, 3, "random-monomial")
        b = random_weil_algebra(seed, QQ, 3, "random-monomial")
        assert a == b
    assert WEIL_PATTERNS == ("square-zero-full", "squares-only", "random-monomial")


def test_corpus_is_deterministic():
    first = build_corpus(SMALL)
    second = build_corpus(SMALL)
    assert len(first.pairs) == len(second.pairs) == SMALL.case_count + 1
    for a, b in zip(first.pairs, second.pairs):
        assert a.tag == b.tag and a.ring_name == b.ring_name
        assert a.f.images == b.f.images
        assert a.g.images == b.g.images
        assert a.expected == b.expected


def test_corpus_pinned_case():
    corpus = build_corpus(SMALL)
    pinned = corpus.pairs[0]
    assert pinned.index == 0
    assert pinned.tag == "constructed"
    assert pinned.expected is True
    assert all(im.is_zero() for im in pinned.f.images)
    assert is_neighbour(pinned.f, pinned.g)


def test_corpus_expected_verdicts_hold():
    corpus = build_corpus(SMALL)
    tags = set()
    for case in corpus.pairs:
        tags.add(case.tag)
        if case.expected is not None:
            assert bool(is_neighbour(case.f, case.g)) == case.expected
    assert {"constructed", "random", "separated"} <= tags


def test_sabotage_drops_one_cross_relation():
    honest = build_corpus(SMALL)
    broken = build_corpus(SMALL, sabotage=True)
    a = honest.weil(QQ, "full", 2)
    b = broken.weil(QQ, "full", 2)
    assert len(a.relations) == len(b.relations) + 1
    assert not b.element("e1*e2").is_zero()
    # only the pinned algebra is touched
    z3 = RingSpec.modular(3)
    assert honest.weil(z3, "full", 2) == broken.weil(z3, "full", 2)


# -- running the suite -------------------------------------------------------------


def test_small_suite_passes():
    report = run_suite(SMALL)
    assert report.passed()
    assert not report.sabotaged
    verdicts = report.verdicts()
    assert set(verdicts) == {spec.check_id for spec in CHECKS}
    assert all(v in ("pass", "skipped") for v in verdicts.values())
    # Z/2 is not configured here, so the separation check is skipped
    assert verdicts["square-zero-char-two-separation"] == "skipped"
    assert verdicts["affine-combination-multiplicative"] == "pass"


def test_char_two_only_configuration():
    config = SuiteConfig(
        seed=3, p_max=1, n_max=2, degree_bound=2, rings=("Z/2",), case_count=10
    )
    report = run_suite(config)
    assert report.passed()
    verdicts = report.verdicts()
    assert verdicts["square-zero-char-two-separation"] == "pass"
    # no configured field has 2 invertible
    assert verdicts["square-zero-agreement-when-two-invertible"] == "skipped"
    assert verdicts["dtilde-determinant-identity"] == "skipped"


def test_records_are_sorted_and_unique():
    report = run_suite(SMALL)
    ids = [r.check_id for r in report.records]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids) == len(CHECKS)
    with pytest.raises(UnknownCheck) as caught:
        report.record("no-such-check")
    # a KeyError for callers that catch one, and an NbhdError
    assert isinstance(caught.value, KeyError) and isinstance(caught.value, NbhdError)
    assert caught.value.args == ("no-such-check",)


# -- reports -------------------------------------------------------------


def test_json_report_schema_and_byte_determinism():
    text1 = emit_report(run_suite(SMALL))
    text2 = emit_report(run_suite(SMALL))
    assert text1 == text2  # ms is zeroed, so bytes must agree

    doc = json.loads(text1)
    assert set(doc) == {"config", "checks"}
    assert doc["config"]["seed"] == SMALL.seed
    assert doc["config"]["rings"] == list(SMALL.rings)
    for entry in doc["checks"]:
        assert {"id", "paper_ref", "params", "verdict", "ms"} <= set(entry)
        assert entry["ms"] == 0
        assert entry["verdict"] in ("pass", "fail", "skipped")
        if entry["verdict"] == "pass":
            assert "witness" not in entry


def test_json_report_with_timings():
    report = run_suite(SMALL)
    doc = json.loads(emit_report(report, timings=True))
    by_id = {entry["id"]: entry["ms"] for entry in doc["checks"]}
    for record in report.records:
        assert by_id[record.check_id] == record.ms


def test_text_report_layout():
    report = run_suite(SMALL)
    text = emit_report(report, format="text")
    lines = text.splitlines()
    assert lines[-1].endswith("skipped")
    passed = sum(1 for r in report.records if r.verdict == "pass")
    skipped = sum(1 for r in report.records if r.verdict == "skipped")
    assert lines[-1] == f"{passed} passed, 0 failed, {skipped} skipped"
    for spec in CHECKS:
        assert spec.check_id in text
        assert spec.ref in text


def test_unknown_report_format():
    with pytest.raises(UnknownFormat):
        emit_report(run_suite(SMALL), format="yaml")


# -- fail injection -------------------------------------------------------------


def test_fail_injection_flips_verdicts():
    flipped, ids = fail_injection_flips(SMALL)
    assert flipped
    assert "corpus-construction-sanity" in ids
    again = fail_injection_flips(SMALL)
    assert again == (flipped, ids)


def test_sabotaged_run_reports_shrunk_witness():
    report = run_suite(SMALL, sabotage=True)
    assert report.sabotaged
    assert not report.passed()
    record = report.record("corpus-construction-sanity")
    assert record.verdict == "fail"
    assert "width" in record.witness
    text = emit_report(report, format="text")
    assert text.strip().endswith("[sabotaged corpus]")


# -- shrinking helpers -------------------------------------------------------------


def test_shrink_failing_pair_finds_minimal_width():
    corpus = build_corpus(SMALL)
    thin = corpus.weil(QQ, "squares", 2)
    pinned = corpus.pairs[0]
    from nbhd.algebra import AlgebraMap
    from nbhd.verify import PairCase, _free_domain

    domain = _free_domain(QQ, 2)
    f = AlgebraMap(domain, thin, [thin.zero(), thin.zero()])
    g = AlgebraMap(domain, thin, thin.generators())
    case = PairCase(99, domain, thin, f, g, True, "constructed")
    assert case.ring_name == "Q"
    width, text = shrink_failing_pair(case)
    assert width == 2  # each single coordinate is fine, the pair is not
    assert "e1*e2" in text

    h = AlgebraMap(domain, thin, [thin.element("e1 + e2"), thin.zero()])
    case1 = PairCase(100, domain, thin, f, h, True, "constructed")
    width1, text1 = shrink_failing_pair(case1)
    assert width1 == 1  # (e1 + e2)^2 = 2*e1*e2 already fails alone
    assert pinned.expected is True  # unrelated sanity anchor


def test_shrink_failing_matrix_drops_tail_first():
    thin = squares_only(QQ, 3)
    matrix = SimplexMatrix(
        thin,
        [
            ["e1", "e2", "0"],
            ["0", "0", "0"],
            ["0", "0", "0"],
        ],
    )
    shrunk = shrink_failing_matrix(matrix, lambda m: not in_dtilde(m).ok)
    assert (shrunk.rows, shrunk.cols) == (1, 2)
    assert not in_dtilde(shrunk)
    full = square_zero_full(QQ, 2)
    good = SimplexMatrix(full, [["e1", "0"]])
    assert shrink_failing_matrix(good, lambda m: not in_dtilde(m).ok) == good


@pytest.mark.parametrize("seed", [783424, 42])
def test_transposition_check_at_regression_seeds(seed):
    # at seed 783424 instance 17 is a Z/2 matrix whose transpose leaves the
    # difference variety; the check must not claim stability there
    config = SuiteConfig(seed=seed)
    outcome = check_transposition(config, build_corpus(config))
    assert outcome.verdict == "pass", outcome.witness
    assert outcome.params == {"instances": 46}


def test_seed_42_report_matches_the_golden_bytes():
    report = emit_report(run_suite(SuiteConfig(seed=42)), "json")
    assert report == GOLDEN.read_text()


def test_sabotaged_seed_42_report_matches_the_golden_bytes():
    # pins the six fail witnesses of the sabotaged corpus, not only their number
    report = emit_report(run_suite(SuiteConfig(seed=42), sabotage=True))
    assert report == SABOTAGE_GOLDEN.read_text()


def test_sabotaged_seed_7_report_matches_the_golden_bytes():
    # the sabotaged corpus trips the preconditions each op proves once: the
    # neighbour scan shared by several combinations, and extend_matrix's
    # in_dtilde
    report = run_suite(SuiteConfig(seed=7), sabotage=True)
    golden = Path(__file__).resolve().parent / "golden" / "verify-seed7-sabotage.json"
    assert emit_report(report) == golden.read_text()
    combination = report.record("affine-combinations-pairwise-neighbours")
    assert combination.verdict == "fail"
    assert combination.witness.startswith("NotNeighbours: maps ")
    extension = report.record("dtilde-row-extension")
    assert extension.verdict == "fail" and extension.witness.startswith("NotInDtilde: ")


@pytest.mark.parametrize("seed", [7, 783424])
def test_report_matches_the_golden_bytes_at_more_seeds(seed):
    golden = Path(__file__).resolve().parent / "golden" / f"verify-seed{seed}.json"
    assert emit_report(run_suite(SuiteConfig(seed=seed)), "json") == golden.read_text()


def test_dtilde_matrices_are_the_anchored_differences_of_neighbour_tuples():
    # both draw from one helper in the same order; the matrix takes the
    # displacement rows as they are, which are the differences of the maps
    config = SuiteConfig(seed=11, rings=("Q", "Z/2", "Z/3"), case_count=1)
    corpus = build_corpus(config)
    for i in range(12):
        ring = nbhd.verify._ring_at(config, i)
        p, n = 1 + i % 3, 1 + i // 3 % 3
        by_maps, by_rows = random.Random(i), random.Random(i)
        _, codomain, maps = nbhd.verify._neighbour_tuple(by_maps, corpus, ring, p, n)
        matrix = nbhd.verify._random_dtilde_matrix(by_rows, corpus, ring, p, n)
        differences = [[x - y for x, y in zip(f.images, maps[0].images)] for f in maps[1:]]
        assert matrix == SimplexMatrix(codomain, differences)
        assert by_maps.getstate() == by_rows.getstate()


def test_rings_are_parsed_once_and_free_domains_built_once():
    config = SuiteConfig(seed=5, rings=("Q", "Z/3"), case_count=30)
    specs = config.ring_specs()
    assert specs is not config.ring_specs() and specs == [QQ, RingSpec.modular(3)]
    assert all(a is b for a, b in zip(specs, config.ring_specs()))
    assert config == SuiteConfig(seed=5, rings=("Q", "Z/3"), case_count=30)
    corpus = build_corpus(config)
    # n = 4 is the one wider domain precomposition's surjections start from
    assert set(corpus.domains) == {(ring, n) for ring in specs for n in (1, 2, 3, 4)}
    assert {id(ring) for ring, _ in corpus.domains} == {id(ring) for ring in specs}
    for ring in specs:
        for n in (1, 2, 3, 4):
            assert corpus.domain(ring, n).ring is ring
            assert corpus.domain(ring, n).varset.names == tuple(f"X{i + 1}" for i in range(n))
    for case in corpus.pairs:
        assert case.domain is corpus.domain(case.codomain.ring, len(case.domain.varset))
        assert case.codomain.ring is case.domain.ring
        assert case.ring_name in config.rings
    for n in (1, 2, 3):
        rng = random.Random(n)
        domain, _, maps = nbhd.verify._neighbour_tuple(rng, corpus, specs[1], 2, n)
        assert domain is corpus.domain(specs[1], n) and all(f.domain is domain for f in maps)


def test_rejection_without_witness_fails_instead_of_asserting(monkeypatch):
    # both checks read the witness of a rejected pair; a missing one must
    # give a fail verdict, also under python -O
    monkeypatch.setattr(nbhd.verify, "is_neighbour", lambda f, g: CheckResult(False, None))
    config = SuiteConfig(seed=3, p_max=1, n_max=2, degree_bound=2, rings=("Z/2",), case_count=10)
    verdicts = run_suite(config).verdicts()
    assert verdicts["square-zero-char-two-separation"] == "fail"
    assert verdicts["per-generator-squares-insufficient"] == "fail"
