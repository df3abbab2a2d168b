"""One benchmark round in a fresh interpreter.

    python bench/worker.py --workload W --seed S --mode M [--sabotage]

Imports nbhd from the checkout's src/, builds the round's inputs, runs its
ops back to back and checks the results afterwards.  The mode selects the
instrumentation: "plain" (none), "trace" (layer spans, see tracing.py) or
"count" (coefficient-arithmetic call counts); "setup" stops after building
the inputs.  Plain and setup rounds also time a fixed reference kernel
(after set-up, and during and after every op) so that run.py can take out
the host's speed.  Prints one JSON object on its last line of standard output.  run.py spawns one worker per round, so no
in-process cache carries over from one round to the next.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import nbhd from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import nbhd

    origin = Path(nbhd.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"nbhd was imported from {origin}, not from {SRC}")
    return nbhd


def _kernel() -> int:
    acc, table = Fraction(0), {}
    for i in range(400):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i % 5, 3) * (i % 3)
    return len(sorted(table.items())) + acc.denominator


def reference_kernel_s(repeats: int = 3) -> float:
    """Seconds per run of a fixed pure-Python kernel, garbage collector off.

    The kernel uses no nbhd code.  It mixes the interpreter work the library
    does (Fraction and int arithmetic, tuple-keyed dicts, sorting), so its
    time tracks how fast the host runs this interpreter at that moment; with
    the collector off, the library's heap does not enter it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _kernel()
        return (time.perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Times the reference kernel from a timer signal every PERIOD_S while
    an op runs, so that a long op's slowdown is measured all through it and
    not only at its ends.  The time spent in the handler is taken out of the
    op's latency."""

    PERIOD_S = 0.1

    def __init__(self):
        self.active = False
        self.kernel_s: list[float] = []
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.active:
            start = time.perf_counter()
            self.kernel_s.append(reference_kernel_s(repeats=1))
            self.spent_s += time.perf_counter() - start

    def time_op(self, thunk):
        """(result or exception, latency, kernel times taken during the op)"""
        self.kernel_s, self.spent_s = [], 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        finally:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, time.perf_counter() - t0 - self.spent_s, self.kernel_s


def run_round(workload: str, seed: int, mode: str, sabotage: bool) -> dict:
    """Build, run and check one round; returns the worker's JSON document."""
    import tracing
    import workloads

    job = workloads.ROUNDS[workload](seed, sabotage)
    setup_done = time.perf_counter()
    # plain and setup rounds time the reference kernel after set-up and, in
    # a plain round, during and after every op; the first runs only warm it up
    kernel_s, op_kernel_s = [], []
    if mode in ("setup", "plain"):
        reference_kernel_s()
        kernel_s.append(reference_kernel_s())
    if mode == "setup":
        kernel_s += [reference_kernel_s(), reference_kernel_s()]
        return {"setup_done": setup_done, "kernel_s": kernel_s}
    tracer = cells = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    elif mode == "count":
        cells = tracing.count_arith()

    probe = HostProbe() if mode == "plain" else None
    results, latencies = [], []
    for name, thunk in job.ops:
        if probe:
            result, latency, during = probe.time_op(thunk)
            op_kernel_s.append(during)
            kernel_s.append(reference_kernel_s())
        else:
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(name, thunk, job.layer) if tracer else thunk()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result = exc
            latency = time.perf_counter() - t0
        latencies.append(latency)
        results.append(result)
    arith = {name: cell[0] for name, cell in cells.items()} if cells else None

    reasons = job.check(results)
    doc = {
        "setup_done": setup_done,
        "region_s": sum(latencies),
        "ops": [name for name, _ in job.ops],
        "latency_s": latencies,
        "kernel_s": kernel_s,
        "op_kernel_s": op_kernel_s,
        "failures": reasons,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "check_ids": [spec.check_id for spec in workloads.CHECKS],
    }
    if arith is not None:
        doc["arith"] = arith
    if tracer is not None:
        doc["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "layer_self": dict(tracer.layer_self),
            "extra": dict(tracer.extra),
            "distinct_presentations": len(tracer.signatures),
            "wrapper_s": tracer.wrapper_s,
            "spans": tracer.spans,
            "ops": tracer.ops,
        }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "count"), default="plain")
    parser.add_argument("--sabotage", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"worker: cannot import nbhd: {exc}", file=sys.stderr)
        return 2
    doc = run_round(args.workload, args.seed, args.mode, args.sabotage)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
