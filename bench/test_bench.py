"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

They check the independent references against sympy and the library, that
tampering with a result is caught on every workload, that times are scaled
by the host's measured slowdown, that traced counts repeat exactly, and
that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import worker

worker.import_library()

import reference  # noqa: E402
import workloads  # noqa: E402
from nbhd.arith import RingSpec  # noqa: E402
from nbhd.poly import MonomialOrder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SMALL_SHAPES = [("dtilde", 2, 2), ("dtilde", 2, 3), ("dtilde", 3, 3)] + [
    (kind, p, n) for kind in ("difference", "tensor", "weil") for p, n in ((2, 1), (2, 2))
]


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def _bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _small_presentation(shape, field: str, order: MonomialOrder):
    kind, p, n = shape
    ring = RingSpec.parse(field)
    if kind == "dtilde":
        return workloads.neighbour.universal_dtilde(p, n, ring, order)[0]
    if kind == "weil":
        base = workloads._weil_base(7, 0, 0, ring, n, "random-monomial")
        return workloads.algebra.universal_simplex(base, p, "tensor", order).algebra
    base = workloads.algebra.free_algebra(ring, [f"X{i + 1}" for i in range(n)])
    return workloads.algebra.universal_simplex(base, p, kind, order).algebra


@pytest.mark.parametrize("shape", SMALL_SHAPES)
@pytest.mark.parametrize("field", ["Q", "Z/5"])
@pytest.mark.parametrize("order", list(MonomialOrder))
def test_reduced_bases_match_sympy(shape, field, order):
    sympy = pytest.importorskip("sympy")
    A = _small_presentation(shape, field, order)
    assert workloads.presentation_problems(A, A.ring, order) is None
    gens = sympy.symbols(A.varset.names)
    exprs = [sympy.sympify(str(r).replace("^", "**"), locals=dict(zip(A.varset.names, gens)))
             for r in A.relations]
    options = {"order": "grevlex" if order is MonomialOrder.DEGREVLEX else "lex"}
    if A.ring.kind == "Zmod":
        options["modulus"] = A.ring.modulus
    expected = set()
    for g in sympy.groebner(exprs, *gens, **options).exprs:
        terms = sympy.Poly(g, *gens).terms()
        ref = reference.Ring(A.ring.kind, A.ring.modulus)
        expected.add(frozenset(
            (exps, ref.value(Fraction(int(c.p), int(c.q)) if A.ring.kind == "Q" else int(c)))
            for exps, c in terms
        ))
    got = {frozenset(workloads._terms(g).items()) for g in A._gb.basis}
    assert got == expected


@pytest.mark.parametrize("shape", SMALL_SHAPES[:4])
def test_dropping_a_basis_element_is_caught(shape):
    A = _small_presentation(shape, "Q", MonomialOrder.DEGREVLEX)
    assert workloads.presentation_problems(A, A.ring, A.order, drop=True) is not None


def test_jet_reference_agrees_with_the_library_and_catches_a_dropped_term():
    job = workloads.jets_round(5, sabotage=False)
    cases = workloads.jet_cases(5)
    cheap = [i for i, (label, _) in enumerate(job.ops) if "k=1" in label and "Z/" in label]
    assert cheap
    for i in cheap:
        result = job.ops[i][1]()
        assert workloads.jet_problem(cases[i][1], result) is None
        if cases[i][1].poly is not None and not result.is_zero():
            assert workloads.jet_problem(cases[i][1], result, drop=True) is not None


def test_times_are_divided_by_the_host_slowdown():
    import run

    k = run.KERNEL_S
    doc = {
        "latency_s": [0.2, 0.4, 0.6],
        "kernel_s": [2 * k, 2 * k, 4 * k, 4 * k],
        "op_kernel_s": [[], [], [5 * k] * 4],
        "setup_s": 0.3,
    }
    # op 0 sees kernel runs 0-2 (median 2x), op 1 runs 0-3 (3x), op 2 runs
    # 1-3 and the four during it (5x)
    assert run.adjusted_latencies(doc) == pytest.approx([0.1, 0.4 / 3, 0.12])
    assert run.adjusted_setup(doc) == pytest.approx(0.15)
    assert run.round_time([[1.0, 2.0], [3.0, 0.0], [2.0, 5.0]]) == pytest.approx(4.0)


@pytest.mark.parametrize("workload,seed", [("suite", 42), ("presentations", 3), ("jets", 3)])
def test_sabotage_makes_failed_ratio_positive(workload, seed):
    code, lines = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", "0", "--sabotage")
    doc = json.loads(lines[-1])
    assert code == 1
    assert doc["correct"] is False
    assert 0 < doc["failed"] <= doc["attempted"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _declared("end_to_end")


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        code, lines = _bench("--workload", "jets", "--seed", "11", "--seconds", "1", "--trace", "1")
        assert code == 0
        runs.append(json.loads(lines[-1])["metrics"])
    counts = [
        {k: v["value"] for k, v in run.items() if v["unit"] == "count"} for run in runs
    ]
    assert {k: v["unit"] for k, v in runs[0].items()} == _declared("per_layer")
    assert counts[0] == counts[1]
    assert counts[0]["poly.substitute.calls"] > 0
    assert abs(runs[0]["trace.self_sum_ratio"]["value"] - 1) < 0.01


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
