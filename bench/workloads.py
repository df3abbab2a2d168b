"""The benchmark's workloads: inputs from a seed, timed ops, checks.

Each workload builds one round of ops from the seed; every round of a run
repeats the same inputs, each in a fresh interpreter.  The library only ever
sees the generated inputs.  A round's ops run back to back, each
waiting for the previous one (a closed loop with one client), and the
correctness check runs afterwards, outside the timed region.

* suite: the 25 verification checks against build_corpus(SuiteConfig(seed)),
  the default end-to-end workload; dominated by monomial-quotient
  arithmetic and by thousands of small, mostly repeated presentations.
* presentations: a fixed ladder of Groebner-presented universal objects,
  each built once per order; dominated by buchberger and reduce_full.
* jets: Taylor-style evaluation of high-degree polynomials at
  "constant + nilpotent" images in Weil algebras, plus map constructions out
  of truncated domains; dominated by free-ring expansion before one large
  monomial reduction.  Not among the workloads BENCHMARK.json declares;
  run it by name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from nbhd import algebra, neighbour
from nbhd.arith import RingSpec
from nbhd.errors import NbhdError
from nbhd.poly import MonomialOrder, Polynomial, VarSet
from nbhd.verify import (
    CHECKS,
    WEIL_PATTERNS,
    CheckOutcome,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    build_corpus,
    emit_report,
    random_weil_algebra,
)

import reference

GOLDEN_SEED = 42
GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "verify-seed42.json"


@dataclass
class Round:
    """One round of a workload.

    ops are (name, thunk) pairs; layer names the library layer a thunk
    enters directly when its callable is not reachable through a patched
    binding (the suite's check functions sit in the CHECKS registry).
    check receives the results (an exception for an op that raised) and
    returns, per op, None when correct or the reason it is not.
    """

    ops: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], list]
    layer: str | None = None


def _rng(seed: int, *labels) -> random.Random:
    # string seeding hashes via sha512: stable across runs and platforms
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _terms(p: Polynomial) -> dict:
    return dict(p.sorted_terms())


def _reference_ring(ring: RingSpec) -> reference.Ring:
    return reference.Ring(ring.kind, ring.modulus)


def _raised(result) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return None


# ---------------------------------------------------------------------------
# suite


# Checks that may legitimately skip, with the reason they give.  None of them
# skips under the default configuration.
KNOWN_SKIPS = {
    "square-zero-agreement-when-two-invertible": "no configured ring has 2 invertible",
    "square-zero-char-two-separation": "Z/2 not configured",
    "dtilde-determinant-identity": "no configured field has 2 invertible",
}


def _run_check(spec, config, corpus) -> CheckOutcome:
    # the same error handling as nbhd.verify.run_suite
    try:
        return spec.fn(config, corpus)
    except NbhdError as exc:
        return CheckOutcome("fail", f"{type(exc).__name__}: {exc}")


def suite_round(seed: int, sabotage: bool) -> Round:
    """The 25 registered checks against the seeded corpus.

    sabotage builds the corpus with the library's own fail-injection hook
    (one relation knocked out of the pinned algebra), as
    fail_injection_flips does.
    """
    config = SuiteConfig(seed=seed)
    corpus = build_corpus(config, sabotage)
    ops = [
        (spec.check_id, lambda spec=spec: _run_check(spec, config, corpus))
        for spec in CHECKS
    ]

    def check(results: list) -> list:
        reasons = []
        records = []
        for spec, outcome in zip(CHECKS, results):
            reason = _raised(outcome)
            if reason is None:
                records.append(
                    CheckRecord(
                        spec.check_id,
                        spec.ref,
                        outcome.params,
                        outcome.verdict,
                        outcome.witness,
                        0,
                    )
                )
                skip_ok = (
                    outcome.verdict == "skipped"
                    and KNOWN_SKIPS.get(spec.check_id) == outcome.witness
                )
                if outcome.verdict != "pass" and not skip_ok:
                    reason = f"verdict {outcome.verdict}: {outcome.witness}"
            reasons.append(reason)
        if seed == GOLDEN_SEED:
            records.sort(key=lambda r: r.check_id)
            rendered = emit_report(VerificationReport(config, records, sabotage), "json")
            golden = GOLDEN_REPORT.read_text(encoding="utf-8")
            if rendered != golden:
                _mark_report_differences(rendered, golden, reasons)
        return reasons

    return Round(ops, check, layer="verify")


def _mark_report_differences(rendered: str, golden: str, reasons: list) -> None:
    """Fail every check whose report entry differs from the golden report."""
    ours = {c["id"]: c for c in json.loads(rendered)["checks"]}
    theirs = {c["id"]: c for c in json.loads(golden)["checks"]}
    marked = False
    for i, spec in enumerate(CHECKS):
        if ours.get(spec.check_id) != theirs.get(spec.check_id):
            reasons[i] = reasons[i] or "report entry differs from the seed-42 golden report"
            marked = True
    if not marked:
        reasons[0] = reasons[0] or "report bytes differ from the seed-42 golden report"


# ---------------------------------------------------------------------------
# presentations

PRIME_FIELDS = ("Z/3", "Z/5")
ORDERS = (MonomialOrder.DEGREVLEX, MonomialOrder.LEX)
LEX_ONLY = (MonomialOrder.LEX,)

# (kind, p, n, orders, pattern): kind "dtilde" is universal_dtilde(p, n);
# the simplex kinds are universal_simplex at p over a base with n
# generators, free for "difference" and "tensor", a random_weil_algebra of
# the given pattern for "weil".  Each entry is built once in each of its
# orders.  The seed makes no choice that moves a round's cost much: building
# a shape in both orders replaces a seeded choice between costs up to 2.5x
# apart, and the Weil entries come once per pattern because the patterns'
# costs differ by up to 3x and would move the median op.  The two largest
# shapes are built in lex only, their cheaper order, to keep a round short.
# universal_dtilde(5,5) is left out: one op of 5-7 s, nearly half a round,
# measured a few times per run, made run_s follow the host's load.  The
# small and middle sizes come in several variants so that the median op
# sits in a dense part of the latency distribution.
LADDER = (
    [("dtilde", p, n, ORDERS, None) for p, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 4))]
    + [("dtilde", 4, 5, LEX_ONLY, None)]
    + [
        (rep, p, n, LEX_ONLY if (rep, p, n) == ("tensor", 4, 2) else ORDERS, None)
        for p in (2, 3, 4)
        for n in (1, 2)
        for rep in ("difference", "tensor")
    ]
    + [(rep, 2, 3, ORDERS, None) for rep in ("difference", "tensor")]
    + [
        ("weil", p, n, ORDERS, pattern)
        for n, ps in ((1, (1, 2, 3)), (2, (1, 2)))
        for p in ps
        for pattern in WEIL_PATTERNS
    ]
)


def _shape_builds(seed: int, shape: int) -> list[tuple[RingSpec, MonomialOrder]]:
    """The seeded (field, order) of each build of one ladder entry.

    An entry built in both orders works over Q in one of them and over Z/3
    or Z/5 in the other: over Q in degrevlex at even ladder positions and in
    lex at odd ones, since Q against a prime field moves some costs by a
    third.  The seed picks the prime and which order is built first.  An
    entry with one order works over Q.
    """
    orders = LADDER[shape][3]
    if len(orders) == 1:
        return [(RingSpec.rationals(), orders[0])]
    rng = _rng(seed, "presentations", shape)
    prime = RingSpec.parse(rng.choice(PRIME_FIELDS))
    fields = [RingSpec.rationals(), prime] if shape % 2 == 0 else [prime, RingSpec.rationals()]
    builds = list(zip(fields, orders))
    if rng.randrange(2):
        builds.reverse()
    return builds


def _weil_base(seed: int, shape: int, build: int, ring: RingSpec, n: int, pattern: str):
    """A seeded random_weil_algebra with its relations in a seeded order."""
    rng = _rng(seed, "presentations", shape, build)
    base = random_weil_algebra(rng.randrange(10**6), ring, n, pattern)
    relations = list(base.relations)
    rng.shuffle(relations)
    return algebra.FpAlgebra(ring, base.varset, relations)


def _presentation_op(seed: int, shape: int, build: int, ring: RingSpec, order: MonomialOrder):
    kind, p, n, _, pattern = LADDER[shape]
    label = f"{kind}(p={p},n={n},{ring},{order.value}{f',{pattern}' if pattern else ''})"
    if kind == "dtilde":
        return label, lambda: neighbour.universal_dtilde(p, n, ring, order)[0]
    if kind == "weil":
        base = _weil_base(seed, shape, build, ring, n, pattern)
        rep = "tensor"
    else:
        base = algebra.free_algebra(ring, [f"X{i + 1}" for i in range(n)])
        rep = kind
    return label, lambda: algebra.universal_simplex(base, p, rep, order).algebra


def presentation_problems(result, ring: RingSpec, order: MonomialOrder, drop: bool = False):
    """Why the algebra's reduced basis is wrong, or None when it checks out.

    drop removes the first basis element before checking (the sabotage
    self-test); a reduced basis missing an element must be caught.
    """
    reason = _raised(result)
    if reason:
        return reason
    if result.strategy != "groebner" or result.ring != ring or result.order != order:
        return f"unexpected presentation {result.strategy}/{result.ring}/{result.order}"
    # FpAlgebra has no public accessor for its reduced basis
    basis = [_terms(g) for g in result._gb.basis]
    if drop:
        basis = basis[1:]
    problems = reference.basis_problems(
        [_terms(r) for r in result.relations], basis, order.value, _reference_ring(ring)
    )
    return "; ".join(problems[:3]) if problems else None


def presentations_round(seed: int, sabotage: bool) -> Round:
    specs = [
        (ring, order, *_presentation_op(seed, shape, build, ring, order))
        for shape in range(len(LADDER))
        for build, (ring, order) in enumerate(_shape_builds(seed, shape))
    ]
    ops = [(label, thunk) for _, _, label, thunk in specs]

    def check(results: list) -> list:
        return [
            presentation_problems(result, ring, order, drop=sabotage and i == 0)
            for i, ((ring, order, _, _), result) in enumerate(zip(specs, results))
        ]

    return Round(ops, check)


# ---------------------------------------------------------------------------
# jets

JET_RINGS = ("Q", "Z", "Zmod")
# units and nilpotent residues of each modulus
MODULI = {8: ((1, 3, 5, 7), (2, 4, 6)), 9: ((1, 2, 4, 5, 7, 8), (3, 6)), 12: ((1, 5, 7, 11), (6,))}
# (domain variables, total degree) of the evaluated polynomials
READ_SIZES = [(1, d) for d in (60, 120, 180, 240, 300)] + [
    (k, d) for k, ds in ((2, (30, 60, 90, 120)), (3, (15, 30, 45, 60))) for d in ds
]
# (domain variables, truncation exponent) of the domains R[X...]/(X^e...)
WRITE_SIZES = [(1, 80), (1, 160), (1, 240), (2, 60), (2, 120), (3, 40), (3, 80)]


@dataclass
class JetCase:
    """A Weil codomain R[e...]/(monomials), images and what to compute."""

    ring: RingSpec
    divisors: list            # exponent tuples generating the monomial ideal
    images: list              # term dicts over the codomain variables
    poly: dict | None = None  # read: the domain polynomial to evaluate
    power: int | None = None  # write: domain relations X_i^power


def _coefficient(rng: random.Random, ring: RingSpec, size: int):
    """A nonzero coefficient whose size does not depend on the seed, so
    neither does coefficient growth and with it the op's cost: +-size over Z,
    +-size/2 or +-size/3 over Q, and a seeded unit over Z/m."""
    if ring.kind == "Q":
        return Fraction(rng.choice((-1, 1)) * size, 2 if size % 2 else 3)
    if ring.kind == "Z":
        return rng.choice((-1, 1)) * size
    return rng.choice(MODULI[ring.modulus][0])


def _weil_divisors(rng: random.Random, width: int) -> list:
    """Each generator nilpotent of order 2..4, each cross product killed
    with probability one half."""
    unit = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    divisors = [tuple(rng.choice((2, 3, 4)) * x for x in unit[i]) for i in range(width)]
    for i in range(width):
        for j in range(i + 1, width):
            if rng.random() < 0.5:
                divisors.append(tuple(a + b for a, b in zip(unit[i], unit[j])))
    return divisors


def _balanced(total: int, parts: int) -> tuple:
    return tuple(total // parts + (i < total % parts) for i in range(parts))


def _jet_case(seed: int, index: int, ring_kind: str, write: bool, k: int, size: int) -> JetCase:
    """One op's inputs.  The size class fixes everything that drives the
    cost (degrees, term shapes, coefficient magnitudes, which images share a
    generator); the seed picks the modulus, signs and units, the Weil
    relations and the assignment of generators to images."""
    rng = _rng(seed, "jets", index)
    if ring_kind == "Zmod":
        ring = RingSpec.modular(rng.choice(sorted(MODULI)))
    else:
        ring = RingSpec.parse(ring_kind)
    # reads send X_i to c_i + a_i*e_i; writes to a_i*e_i + b_i*e_(i+1), or
    # over Z/m to c_i + a_i*e_i with c_i nilpotent
    width = max(k, 2) if write else k
    divisors = _weil_divisors(rng, width)
    zero = (0,) * width
    gens = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    rng.shuffle(gens)
    images = []
    for i in range(k):
        if write and ring.kind == "Zmod":
            image = {zero: rng.choice(MODULI[ring.modulus][1]), gens[i]: _coefficient(rng, ring, 3)}
        elif write:
            image = {gens[i]: _coefficient(rng, ring, 2), gens[(i + 1) % width]: _coefficient(rng, ring, 3)}
        else:
            image = {zero: _coefficient(rng, ring, 3), gens[i]: _coefficient(rng, ring, 2)}
        images.append(image)
    if write:
        return JetCase(ring, divisors, images, power=size)
    poly = {
        _balanced(size, k): _coefficient(rng, ring, 2),
        _balanced(size // 2, k): _coefficient(rng, ring, 3),
        (0,) * k: _coefficient(rng, ring, 2),
    }
    return JetCase(ring, divisors, images, poly=poly)


def jet_cases(seed: int) -> list[tuple[str, JetCase]]:
    """Every read and write size once per ring kind, in a seeded order."""
    plan = [(False, k, d) for k, d in READ_SIZES] + [(True, k, n) for k, n in WRITE_SIZES]
    cases = []
    for i, ((write, k, size), ring_kind) in enumerate(
        (entry, r) for entry in plan for r in JET_RINGS
    ):
        case = _jet_case(seed, i, ring_kind, write, k, size)
        kind = "write" if write else "read"
        cases.append((f"{kind}(k={k},{'power' if write else 'degree'}={size},{case.ring})", case))
    _rng(seed, "jets", "order").shuffle(cases)
    return cases


def _jet_algebras(case: JetCase):
    ring = case.ring
    width = len(case.divisors[0])
    varset = VarSet(tuple(f"e{i + 1}" for i in range(width)))
    codomain = algebra.FpAlgebra(
        ring, varset, [Polynomial(varset, ring, {d: 1}) for d in case.divisors]
    )
    names = tuple(f"X{i + 1}" for i in range(len(case.images)))
    dvars = VarSet(names)
    if case.power is None:
        domain = algebra.free_algebra(ring, names)
    else:
        relations = [
            Polynomial(dvars, ring, {tuple(case.power * int(i == j) for j in range(len(names))): 1})
            for i in range(len(names))
        ]
        domain = algebra.FpAlgebra(ring, dvars, relations)
    images = [codomain.element(Polynomial(varset, ring, im)) for im in case.images]
    return domain, codomain, images


def jet_problem(case: JetCase, result, drop: bool = False) -> str | None:
    """Compare one op's result with the benchmark's own truncated-jet
    evaluator.  drop removes a term from a read result first (the sabotage
    self-test)."""
    reason = _raised(result)
    if reason:
        return reason
    ring = _reference_ring(case.ring)
    width = len(case.divisors[0])
    images = [
        reference.truncate({e: ring.value(v) for e, v in im.items()}, case.divisors)
        for im in case.images
    ]
    if case.poly is not None:
        got = _terms(result.rep)
        if drop and got:
            got.pop(next(iter(got)))
        want = reference.jet_evaluate(case.poly, images, case.divisors, ring, width)
        return None if got == want else "evaluation differs from the truncated-jet reference"
    got = [_terms(im.rep) for im in result.images]
    if got != images:
        return "map images differ from their truncated normal forms"
    for i in range(len(images)):
        exps = tuple(case.power * int(i == j) for j in range(len(images)))
        if reference.jet_evaluate({exps: 1}, images, case.divisors, ring, width):
            return f"accepted a map sending relation X{i + 1}^{case.power} to nonzero"
    return None


def jets_round(seed: int, sabotage: bool) -> Round:
    cases = jet_cases(seed)
    ops = []
    for label, case in cases:
        domain, codomain, images = _jet_algebras(case)
        if case.poly is None:
            ops.append((label, lambda d=domain, c=codomain, im=images: algebra.AlgebraMap(d, c, im)))
        else:
            m = algebra.AlgebraMap(domain, codomain, images)
            x = domain.element(Polynomial(domain.varset, case.ring, case.poly))
            ops.append((label, lambda m=m, x=x: m.apply(x)))

    def check(results: list) -> list:
        # the sabotage self-test tampers with the first nonzero read result
        target = next(
            (
                i
                for i, ((_, case), result) in enumerate(zip(cases, results))
                if case.poly is not None and not _raised(result) and not result.is_zero()
            ),
            None,
        )
        return [
            jet_problem(case, result, drop=sabotage and i == target)
            for i, ((_, case), result) in enumerate(zip(cases, results))
        ]

    return Round(ops, check)


ROUNDS = {
    "suite": suite_round,
    "presentations": presentations_round,
    "jets": jets_round,
}
