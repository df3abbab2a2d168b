"""The nbhd benchmark.

    python3 bench/run.py --workload {suite,presentations,jets} --seed N
                         --seconds T --trace {0,1} [--sabotage]

Run from the root of a checkout.  Every round of a workload runs in a fresh
interpreter (bench/worker.py) with PYTHONHASHSEED=0, so no in-process cache
carries over and the traced counts repeat exactly.  All rounds of a run
repeat the same seeded inputs.

--trace 0 runs at least two rounds, sized so that the run measures
about --seconds on the reference machine; the work per run is fixed by
--seconds and not by the clock, so a faster library runs the same ops and
every percentile keeps its rank.  It prints the end-to-end metrics.  Their
times are taken at the reference machine's speed: every op and every
set-up is divided by the host's slowdown at that moment, measured with a
fixed pure-Python kernel run next to and during it (see KERNEL_S).  run_s
is one round's time assembled from each op's median latency over the
rounds, so a burst of load that slows one op in one round does not move it.

--trace 1 runs one plain, one traced and one counting round and prints the
per-layer metrics, including the tracing overhead (traced run_s minus plain
run_s).  The layer spans of each op are written to
.bench_trace/<workload>-seed<N>.json.

--sabotage tampers with one result per round (the benchmark's self-test);
failed must then be above 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every op passed its
correctness check, 1 when one did not, and 2 when the benchmark could not
run at all (for instance without the library's sources).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ARITH_COUNTED, FUNCTIONS, LAYERS, NEIGHBOUR_FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "presentations", "jets")

# Wall seconds one plain round takes on the reference machine (2-CPU x86-64
# container, Python 3.11) at the host load it usually had, used to turn
# --seconds into a number of rounds.  At --seconds 45 that gives the suite
# six rounds, so the ten ops beyond op_tail_ms are the six runs of its
# slowest check and four of its second slowest, and op_tail_ms is a run of
# the second slowest rather than the fastest run of the third.
ROUND_SECONDS = {"suite": 8.0, "presentations": 7.0, "jets": 3.5}
# Seconds one run of the reference kernel (worker.reference_kernel_s) takes
# on the reference machine when its host is quiet.  End-to-end times are
# reported at that speed: each is divided by the host's slowdown, the
# kernel's time measured next to and during it over KERNEL_S.  On a shared
# host the kernel's time swung by 2x within minutes, and op latencies with it.
KERNEL_S = 0.0020
# set-up-only workers started after the rounds, so that setup_s is the
# median of several set-ups even when a run has only a few rounds
EXTRA_SETUPS = 5
# A run must finish within this many seconds, workers included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def round_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def run_worker(workload: str, seed: int, round_index: int, mode: str, sabotage: bool, deadline: float) -> dict:
    """One round in a fresh worker; round_index only names it in errors."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if sabotage:
        cmd.append("--sabotage")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} round {round_index} ran past the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} round {round_index} exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and worker
    doc["setup_s"] = doc["setup_done"] - spawned
    return doc


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = 10 if n >= 11 else 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def failures(docs: list[dict]) -> list[tuple[str, str]]:
    return [
        (op, reason)
        for doc in docs
        for op, reason in zip(doc["ops"], doc["failures"])
        if reason is not None
    ]


# ---------------------------------------------------------------------------
# end-to-end metrics


def slowdown(kernel_s: list[float]) -> float:
    """The host's slowdown against the reference: the median of the kernel
    times over KERNEL_S."""
    return statistics.median(kernel_s) / KERNEL_S


def adjusted_latencies(doc: dict) -> list[float]:
    """A plain round's op latencies at the reference speed.  The kernel ran
    before the first op, after every op and every HostProbe.PERIOD_S during
    it; op i is divided by the slowdown of the kernel runs during it and the
    four nearest it, two on either side."""
    kernel_s = doc["kernel_s"]
    return [
        lat / slowdown(kernel_s[max(0, i - 1):i + 3] + during)
        for i, (lat, during) in enumerate(zip(doc["latency_s"], doc["op_kernel_s"]))
    ]


def adjusted_setup(doc: dict) -> float:
    """A worker's set-up time at the reference speed, divided by the
    slowdown of the first three kernel runs after it."""
    return doc["setup_s"] / slowdown(doc["kernel_s"][:3])


def round_time(rounds: list[list[float]]) -> float:
    """One round's time: the sum over its ops of each op's median latency
    over the rounds."""
    return sum(statistics.median(column) for column in zip(*rounds))


def end_to_end(docs: list[dict], setup_docs: list[dict]) -> tuple[dict, list[str]]:
    if any(doc["ops"] != docs[0]["ops"] for doc in docs):
        raise BenchError("the rounds of one run did not repeat the same ops")
    rounds = [adjusted_latencies(doc) for doc in docs]
    latencies = [s for lats in rounds for s in lats]
    run_s = round_time(rounds)
    pct, tail_s, beyond = tail(latencies)
    n = len(latencies)
    ops = n // len(docs)
    failed = len(failures(docs))
    metrics = {
        "run_s": (run_s, "s"),
        "ops_per_s": (ops / run_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(adjusted_setup(doc) for doc in setup_docs), "s"),
        "peak_rss_mb": (statistics.median(doc["maxrss_kb"] for doc in docs) / 1024, "MB"),
    }
    notes = {
        "run_s": f"sum over {ops} ops of each op's median over {len(docs)} rounds",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct:.1f}, n={n}, {beyond} ops beyond",
        "setup_s": f"median of {len(setup_docs)} interpreter starts + import + inputs",
        "peak_rss_mb": "median over rounds of ru_maxrss",
    }
    lines = [
        f"{name:<13} {value:>12.4f} {unit:<4} {notes.get(name, '')}"
        for name, (value, unit) in metrics.items()
    ]
    lines.append(f"{'failed_ratio':<13} {failed / n:>12.4f} {'':<4} {failed}/{n} ops")
    host = statistics.median(slowdown(doc["kernel_s"]) for doc in docs)
    lines.append(
        f"times above are at the reference speed; on the wall clock run_s was "
        f"{round_time([doc['latency_s'] for doc in docs]):.4f} s and setup_s "
        f"{statistics.median(doc['setup_s'] for doc in setup_docs):.4f} s, "
        f"with the host {host:.2f}x slower than the reference"
    )
    return metrics, lines


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: dict, traced: dict, counted: dict) -> tuple[dict, list[str]]:
    tr = traced["trace"]
    calls, self_s, extra = tr["calls"], tr["self_s"], tr["extra"]
    wall = traced["region_s"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(layer + ".")), "count")
        m[f"{layer}.self_s"] = (tr["layer_self"].get(layer, 0.0), "s")
        m[f"{layer}.self_share"] = (_ratio(m[f"{layer}.self_s"][0], wall), "ratio")
    for name, key in FUNCTIONS.items():
        m[f"{name}.calls"] = (calls.get(key, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(key, 0.0), "s")
        m[f"{name}.self_share"] = (_ratio(self_s.get(key, 0.0), wall), "ratio")
    kept, seen = extra.get("ideal.monomial_reduce.terms_kept", 0), extra.get("ideal.monomial_reduce.terms_in", 0)
    m["ideal.monomial_reduce.terms_in"] = (seen, "count")
    m["ideal.monomial_reduce.terms_kept"] = (kept, "count")
    m["ideal.monomial_reduce.keep_ratio"] = (_ratio(kept, seen), "ratio")
    m["ideal.buchberger.gens_in"] = (extra.get("ideal.buchberger.gens_in", 0), "count")
    m["ideal.buchberger.basis_out"] = (extra.get("ideal.buchberger.basis_out", 0), "count")
    m["ideal.s_polynomial.calls"] = (calls.get("ideal.s_polynomial", 0), "count")
    m["ideal.reduce_full.zero_ratio"] = (
        _ratio(extra.get("ideal.reduce_full.spair_zero", 0), extra.get("ideal.reduce_full.spair_reductions", 0)),
        "ratio",
    )
    m["algebra.FpAlgebra.distinct"] = (tr["distinct_presentations"], "count")
    m["algebra.apply.keep_ratio"] = (
        _ratio(extra.get("algebra.apply.terms_kept", 0), extra.get("algebra.apply.terms_produced", 0)),
        "ratio",
    )
    m["poly.substitute.terms_out"] = (extra.get("poly.substitute.terms_out", 0), "count")
    m["poly.substitute.peak_terms"] = (extra.get("poly.substitute.peak_terms", 0), "count")
    m["poly.mul.terms_out"] = (extra.get("poly.mul.terms_out", 0), "count")
    for fn in NEIGHBOUR_FUNCTIONS:
        m[f"neighbour.{fn}.calls"] = (calls.get(f"neighbour.{fn}", 0), "count")
        m[f"neighbour.{fn}.self_s"] = (self_s.get(f"neighbour.{fn}", 0.0), "s")
    check_ms = dict(zip(plain["ops"], plain["latency_s"]))
    for check_id in plain["check_ids"]:
        m[f"verify.check_ms.{check_id}"] = (1000 * check_ms.get(check_id, 0.0), "ms")
    for name in ARITH_COUNTED:
        m[f"arith.{name}.calls"] = (counted["arith"][name], "count")
    m["trace.overhead_s"] = (wall - plain["region_s"], "s")
    m["trace.self_sum_ratio"] = (
        _ratio(sum(tr["layer_self"].values()) + tr["wrapper_s"], wall), "ratio"
    )
    m["trace.spans"] = (tr["spans"], "count")

    lines = [
        f"traced run_s {wall:.3f} s, plain run_s {plain['region_s']:.3f} s, "
        f"overhead {m['trace.overhead_s'][0]:.3f} s; {tr['spans']} spans, "
        f"wrapper bookkeeping {tr['wrapper_s']:.3f} s",
        "layer self time (share of traced wall):",
    ]
    for layer in ("harness", *LAYERS):
        s = tr["layer_self"].get(layer, 0.0)
        lines.append(f"  {layer:<10} {s:>10.3f} s  {_ratio(s, wall):>7.1%}")
    return m, lines


def trace_problems(traced: dict) -> list[str]:
    """The span accounting must cover the traced wall time exactly once."""
    tr = traced["trace"]
    covered = sum(tr["layer_self"].values()) + tr["wrapper_s"]
    ops = sum(op["end"] - op["start"] for op in tr["ops"])
    problems = []
    if abs(covered - ops) > 1e-6 * max(ops, 1.0):
        problems.append(f"self times add up to {covered:.6f} s, ops took {ops:.6f} s")
    if not 0.99 * traced["region_s"] <= covered <= traced["region_s"]:
        problems.append(f"self times add up to {covered:.6f} s of {traced['region_s']:.6f} s traced wall")
    if any(v < -1e-9 for v in tr["self_s"].values()):
        problems.append("a negative self time")
    return problems


def _write_spans(args, traced: dict) -> None:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(traced["trace"]["ops"], indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", action="store_true", help="tamper with one result per round")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nbhd" / "__init__.py").is_file():
        print(f"bench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            modes = ("plain", "trace", "count")
            docs = [run_worker(args.workload, args.seed, 0, mode, args.sabotage, deadline) for mode in modes]
            metrics, lines = per_layer(*docs)
            problems = trace_problems(docs[1])
            _write_spans(args, docs[1])
        else:
            rounds = round_count(args.workload, args.seconds)
            docs = [
                run_worker(args.workload, args.seed, r, "plain", args.sabotage, deadline)
                for r in range(rounds)
            ]
            setup_docs = docs + [
                run_worker(args.workload, args.seed, r, "setup", args.sabotage, deadline)
                for r in range(EXTRA_SETUPS)
            ]
            metrics, lines = end_to_end(docs, setup_docs)
            problems = []
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    bad = failures(docs)
    attempted = sum(len(doc["ops"]) for doc in docs)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for op, reason in bad[:10]:
        print(f"FAILED {op}: {reason}")
    for problem in problems:
        print(f"TRACE {problem}")
    correct = not bad and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
