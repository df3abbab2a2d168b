"""Randomized plus exhaustive verification of the neighbour calculus.

The suite is a registry of named checks.  Each check either proves a small
universal instance exactly (generic matrices, formal weights) or samples a
deterministic corpus of algebras and map pairs driven entirely by the
configured seed, so a report is reproducible byte for byte from its
configuration.

Vacuousness guard: run_suite(config, sabotage=True) rebuilds the corpus with
one relation knocked out of the pinned square-zero algebra.  At least one
check must flip to "fail" under sabotage; fail_injection_flips packages that
comparison.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import __version__
from .arith import QQ, RingSpec
from .errors import (
    IllDefinedMap,
    InvalidArgument,
    NbhdError,
    NotInKernel,
    UnknownCheck,
    UnknownFormat,
    require_integer,
    require_names,
)
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    FpAlgebra,
    adjoin_variables,
    classifying_map,
    compose,
    diagonal_ideal,
    free_algebra,
    multiplication_map,
    tensor,
    universal_simplex,
)
from .neighbour import (
    CoefficientVector,
    SimplexMatrix,
    adjoin_weights,
    affine_combination,
    affine_combinations,
    canonical_map,
    decompose_difference,
    extend_matrix,
    generic_coefficients,
    in_dtilde,
    is_neighbour,
    is_neighbour_product_form,
    is_simplex,
    is_square_zero_pair,
    matrix_of_maps,
    pair_varset,
    rewrite_kernel_element,
    universal_dtilde,
    vectors_neighbour,
)
from .poly import Polynomial, VarSet

ALLOWED_RINGS = ("Q", "Z", "Z/2", "Z/3", "Z/5")


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of a verification run; defaults give the desk-scale suite."""

    seed: int = 0
    p_max: int = 2
    n_max: int = 3
    degree_bound: int = 3
    rings: tuple[str, ...] = ALLOWED_RINGS
    case_count: int = 200

    def __post_init__(self) -> None:
        # the corpus is seeded from the text of the seed, so True and 1
        # would draw different corpora: only an int is a seed
        for name in ("seed", "p_max", "n_max", "degree_bound", "case_count"):
            require_integer(name, getattr(self, name))
        if self.p_max < 1:
            raise InvalidArgument("p_max must be at least 1")
        if self.n_max < 1:
            raise InvalidArgument("n_max must be at least 1")
        if self.degree_bound < 2:
            raise InvalidArgument("degree_bound must be at least 2")
        if self.case_count < 1:
            raise InvalidArgument("case_count must be at least 1")
        object.__setattr__(self, "rings", require_names("rings", self.rings))
        if not self.rings:
            raise InvalidArgument("need at least one ring")
        unknown = [r for r in self.rings if r not in ALLOWED_RINGS]
        if unknown:
            raise InvalidArgument(f"unsupported rings {unknown}; allowed: {ALLOWED_RINGS}")
        if len(set(self.rings)) != len(self.rings):
            raise InvalidArgument("duplicate ring names")
        # parsed once and shared, so every corpus object over a ring holds
        # the same RingSpec and the arithmetic's identity tests succeed; not
        # a field, so == and as_dict ignore it
        object.__setattr__(self, "_specs", tuple(RingSpec.parse(name) for name in self.rings))

    def ring_specs(self) -> list[RingSpec]:
        return list(self._specs)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "p_max": self.p_max,
            "n_max": self.n_max,
            "degree_bound": self.degree_bound,
            "rings": list(self.rings),
            "case_count": self.case_count,
            "version": __version__,
        }


# ---------------------------------------------------------------------------
# deterministic corpus


def _rng(config: SuiteConfig, label: str) -> random.Random:
    # string seeding hashes via sha512, stable across runs and platforms
    return random.Random(f"{config.seed}:{label}")


def _ring_at(config: SuiteConfig, i: int) -> RingSpec:
    """The ring of case i when cases cycle through the rings."""
    return config._specs[i % len(config._specs)]


# (i - 4)/(j + 1) for i < 9 and j < 3 in the canonical raw form over Q: an
# int when integral, a Fraction otherwise
_Q_VALUES = tuple(
    tuple(QQ.normalize(Fraction(i - 4, j + 1)) for j in range(3)) for i in range(9)
)


def _below(getrandbits, n: int) -> int:
    """A uniform integer in [0, n) from the random bits randrange(n) takes
    (and randint(a, a + n - 1), less a): getrandbits(n.bit_length()), again
    while it is n or more.  n < 1 raises InvalidArgument, a ValueError, as
    randrange does, before any draw: getrandbits(0) is always 0."""
    if n < 1:
        raise InvalidArgument(f"empty range [0, {n}) for a draw")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_value(getrandbits, ring: RingSpec):
    """A random coefficient in the ring's canonical raw form: a residue in
    [0, m) over Z/m, an integer in [-4, 4] over Z, and (i - 4)/(j + 1) over Q
    with i drawn from 0..8 before j from 0..2."""
    if ring.kind == "Q":
        return _Q_VALUES[_below(getrandbits, 9)][_below(getrandbits, 3)]
    if ring.kind == "Z":
        return _below(getrandbits, 9) - 4
    return _below(getrandbits, ring.modulus)  # type: ignore[arg-type]


def _random_terms(
    getrandbits,
    n: int,
    ring: RingSpec,
    max_degree: int,
    max_terms: int,
    min_degree: int,
    deletes=None,
) -> tuple[dict, dict]:
    """The terms of a random polynomial in n variables, split by the test
    deletes (None keeps all) into (kept, deleted) terms dicts.

    Each term draws its degree, then the variable of each degree unit, then
    its coefficient, also when deleted.  A repeated exponent tuple adds its
    coefficient to the one before and a zero sum is dropped, as the
    validating constructor does, so kept is the constructor's dict, in its
    order, less the deleted monomials, and both are empty exactly when the
    drawn polynomial is zero.
    """
    add = ring.add
    kept: dict[tuple[int, ...], object] = {}
    deleted: dict[tuple[int, ...], object] = {}
    low = 0 if min_degree == 0 else 1
    for _ in range(low + _below(getrandbits, max_terms - low + 1)):
        exps = [0] * n
        if n:
            for _ in range(min_degree + _below(getrandbits, max_degree - min_degree + 1)):
                exps[_below(getrandbits, n)] += 1
        key = tuple(exps)
        terms = deleted if deletes is not None and deletes(key) else kept
        value = _random_value(getrandbits, ring)
        if key in terms:
            value = add(terms[key], value)
        if value == 0:
            terms.pop(key, None)
        else:
            terms[key] = value
    return kept, deleted


def _random_poly(
    rng: random.Random,
    varset: VarSet,
    ring: RingSpec,
    max_degree: int,
    max_terms: int = 3,
    min_degree: int = 0,
) -> Polynomial:
    """A random polynomial of at most max_terms terms (at least one when
    min_degree > 0), each of degree min_degree..max_degree with a random
    coefficient, drawn by _random_terms."""
    terms, _ = _random_terms(
        rng.getrandbits, len(varset), ring, max_degree, max_terms, min_degree
    )
    return Polynomial._raw(varset, ring, terms)


def _random_element(
    rng: random.Random,
    algebra: FpAlgebra,
    max_degree: int,
    max_terms: int = 3,
    min_degree: int = 0,
) -> AlgebraElement:
    """The normal form of what _random_poly draws on the algebra's generators,
    from the same bits.  Over the monomial engine each monomial is tested as
    it is drawn and a deleted one left out; the Groebner engine reduces."""
    varset, ring = algebra.varset, algebra.ring
    monomial = algebra.strategy == "monomial"
    kept, _ = _random_terms(
        rng.getrandbits, len(varset), ring, max_degree, max_terms, min_degree,
        algebra._deletes if monomial else None,
    )
    rep = Polynomial._raw(varset, ring, kept)
    return AlgebraElement(algebra, rep if monomial else algebra.normal_form(rep))


def square_zero_names(n: int) -> list[str]:
    return [f"e{i + 1}" for i in range(n)]


def square_zero_full(ring: RingSpec, n: int, drop_cross: bool = False) -> FpAlgebra:
    """k[e1..en] modulo all products of two generators.

    drop_cross removes the e1*e2 relation; that is the sabotage hook used by
    the fail-injection self-test and nothing else.
    """
    varset = VarSet(tuple(square_zero_names(n)))
    variables = Polynomial.variables(varset, ring)
    relations = []
    for i in range(n):
        for j in range(i, n):
            if drop_cross and (i, j) == (0, 1):
                continue
            relations.append(variables[i] * variables[j])
    return FpAlgebra(ring, varset, relations)


def squares_only(ring: RingSpec, n: int) -> FpAlgebra:
    """k[e1..en] modulo the squares of the generators (cross terms survive)."""
    varset = VarSet(tuple(square_zero_names(n)))
    variables = Polynomial.variables(varset, ring)
    return FpAlgebra(ring, varset, [v * v for v in variables])


def _mixed_weil_algebra(rng: random.Random, ring: RingSpec, n: int) -> FpAlgebra:
    """A random monomial quotient with nilpotent generators.

    Generator 1 always squares to zero (several corpus families lean on
    that); the others square or cube to zero, and each cross product is
    present with probability one half.
    """
    varset = VarSet(tuple(square_zero_names(n)))
    variables = Polynomial.variables(varset, ring)
    relations = []
    caps = [2] + [rng.choice([2, 3]) for _ in range(n - 1)]
    for i, cap in enumerate(caps):
        relations.append(variables[i] ** cap)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                relations.append(variables[i] * variables[j])
    return FpAlgebra(ring, varset, relations)


WEIL_PATTERNS = ("square-zero-full", "squares-only", "random-monomial")


def random_weil_algebra(
    seed: int, ring: RingSpec, n_vars: int, pattern: str
) -> FpAlgebra:
    """A deterministic Weil-style test algebra on e1..en.

    pattern selects the relation family: "square-zero-full" kills every
    product of two generators, "squares-only" kills only the squares, and
    "random-monomial" draws nilpotency degrees 2..3 plus a random subset of
    cross products from the seed.  Same (seed, ring, n_vars, pattern) always
    gives the same algebra.
    """
    if n_vars < 1:
        raise InvalidArgument("need at least one generator")
    if pattern == "square-zero-full":
        return square_zero_full(ring, n_vars)
    if pattern == "squares-only":
        return squares_only(ring, n_vars)
    if pattern == "random-monomial":
        rng = random.Random(f"{seed}:weil-pattern:{ring}:{n_vars}")
        return _mixed_weil_algebra(rng, ring, n_vars)
    raise InvalidArgument(f"unknown pattern {pattern!r}; expected one of {WEIL_PATTERNS}")


@dataclass(frozen=True)
class PairCase:
    """One corpus case: two parallel maps from a free domain into a Weil-type
    algebra, with the designed verdict when one exists."""

    index: int
    domain: FpAlgebra
    codomain: FpAlgebra
    f: AlgebraMap
    g: AlgebraMap
    expected: bool | None
    tag: str

    @property
    def ring_name(self) -> str:
        return str(self.codomain.ring)


@dataclass
class Corpus:
    """The algebras and map pairs the checks sample from.

    `algebras` holds the Weil algebras by (ring, pattern, n) for n up to
    max(n_max, 3), and `domains` the free domains on X1..Xn by (ring, n) for
    n up to one more, which precomposition's surjections start from; ring
    is the configuration's shared RingSpec.  Each is built once, by
    build_corpus alone, and the cases and every check share them instead of
    presenting their own copies.
    """

    config: SuiteConfig
    sabotaged: bool
    algebras: dict[tuple[RingSpec, str, int], FpAlgebra] = field(default_factory=dict)
    domains: dict[tuple[RingSpec, int], FpAlgebra] = field(default_factory=dict)
    pairs: list[PairCase] = field(default_factory=list)

    def weil(self, ring: RingSpec, pattern: str, n: int) -> FpAlgebra:
        return self.algebras[(ring, pattern, n)]

    def domain(self, ring: RingSpec, n: int) -> FpAlgebra:
        return self.domains[(ring, n)]


def _free_domain(ring: RingSpec, n: int) -> FpAlgebra:
    return free_algebra(ring, [f"X{i + 1}" for i in range(n)])


def _augmentation_delta(
    rng: random.Random, codomain: FpAlgebra, general: bool
):
    """A difference vector making any translate a neighbour pair.

    general=True: arbitrary constant-free elements (valid in the full
    square-zero algebra, where all products of two such vanish).
    general=False: all coordinates proportional to the first generator,
    whose square is a relation in every corpus pattern.
    Drawn straight into normal form, as _random_element draws: a general
    coordinate drawn as zero is e1 instead, one deleted to zero stays zero.
    """
    varset = codomain.varset
    ring = codomain.ring
    getrandbits = rng.getrandbits
    deletes = codomain._deletes
    n = len(varset)
    e1 = (1,) + (0,) * (n - 1)
    e1_kept = not deletes(e1)
    deltas = []
    for _ in varset:
        if general:
            terms, deleted = _random_terms(getrandbits, n, ring, 2, 2, 1, deletes)
            if not terms and not deleted and e1_kept:
                terms = {e1: ring.one()}
        else:
            scale = _random_value(getrandbits, ring)
            terms = {e1: scale} if scale != 0 and e1_kept else {}
        deltas.append(AlgebraElement(codomain, Polynomial._raw(varset, ring, terms)))
    return deltas


def build_corpus(config: SuiteConfig, sabotage: bool = False) -> Corpus:
    """The seeded corpus of config: per ring and n, the three Weil algebras
    and the free domain, each built once, then the pinned case and
    config.case_count drawn pair cases over them."""
    corpus = Corpus(config, sabotage)
    first = _ring_at(config, 0)
    # the row-extension and combination-pair checks deliberately reach n = 3
    # even under smaller configured bounds, so stock algebras up to there,
    # and precomposition's surjections need a free domain one wider
    top = max(config.n_max, 3)
    for ring in config.ring_specs():
        for n in range(1, top + 1):
            corpus.domains[(ring, n)] = _free_domain(ring, n)
            rng = _rng(config, f"weil:{ring}:{n}")
            drop = sabotage and ring is first and n == 2
            corpus.algebras[(ring, "full", n)] = square_zero_full(ring, n, drop_cross=drop)
            corpus.algebras[(ring, "squares", n)] = squares_only(ring, n)
            corpus.algebras[(ring, "mixed", n)] = _mixed_weil_algebra(rng, ring, n)
        corpus.domains[(ring, top + 1)] = _free_domain(ring, top + 1)

    # pinned case: (0,...) vs the generators in the full square-zero algebra;
    # exactly the case the sabotage hook breaks
    pinned_codomain = corpus.weil(first, "full", 2)
    pinned_domain = corpus.domain(first, 2)
    zero = pinned_codomain.zero()
    gens = pinned_codomain.generators()
    corpus.pairs.append(
        PairCase(
            0,
            pinned_domain,
            pinned_codomain,
            AlgebraMap(pinned_domain, pinned_codomain, [zero, zero]),
            AlgebraMap(pinned_domain, pinned_codomain, gens),
            True,
            "constructed",
        )
    )

    rng = _rng(config, "pairs")
    patterns = ("full", "squares", "mixed")
    for idx in range(1, config.case_count + 1):
        ring = _ring_at(config, idx - 1)
        kind = ("constructed", "random", "constructed", "random", "separated")[
            (idx - 1) // len(config.rings) % 5
        ]
        if kind == "separated" and config.n_max < 2:
            kind = "random"
        if kind == "separated":
            codomain = corpus.weil(ring, "squares", 2)
            domain = corpus.domain(ring, 2)
            base = [_random_element(rng, codomain, 1) for _ in range(2)]
            f = AlgebraMap(domain, codomain, [base[i] + codomain.generator(i) for i in range(2)])
            g = AlgebraMap(domain, codomain, base)
            corpus.pairs.append(
                PairCase(idx, domain, codomain, f, g, False, "separated")
            )
            continue
        n = rng.randint(1, config.n_max)
        pattern = patterns[idx % len(patterns)]
        codomain = corpus.weil(ring, pattern, n)
        domain = corpus.domain(ring, n)
        f_images = [_random_element(rng, codomain, 2) for _ in range(n)]
        f = AlgebraMap(domain, codomain, f_images)
        if kind == "constructed":
            deltas = _augmentation_delta(rng, codomain, general=(pattern == "full"))
            g = AlgebraMap(
                domain, codomain, [fi + di for fi, di in zip(f_images, deltas)]
            )
            corpus.pairs.append(
                PairCase(idx, domain, codomain, f, g, True, "constructed")
            )
        else:
            g_images = [_random_element(rng, codomain, 2) for _ in range(n)]
            g = AlgebraMap(domain, codomain, g_images)
            corpus.pairs.append(
                PairCase(idx, domain, codomain, f, g, None, "random")
            )
    return corpus


# ---------------------------------------------------------------------------
# witness shrinking


def shrink_failing_pair(case: PairCase) -> tuple[int, str]:
    """Smallest prefix of coordinates on which the pair already fails.

    Returns (width, witness text).  Used when a constructed neighbour pair
    unexpectedly fails, to report a minimal counterexample.
    """
    n = len(case.f.images)
    for width in range(1, n + 1):
        f_images, g_images = case.f.images[:width], case.g.images[:width]
        verdict = vectors_neighbour(f_images, g_images)
        if not verdict:
            f_text = ", ".join(str(x) for x in f_images)
            g_text = ", ".join(str(x) for x in g_images)
            return width, f"width {width}: f = ({f_text}), g = ({g_text}); {verdict.witness}"
    return n, "failure vanished while shrinking (unstable case)"


def shrink_failing_matrix(
    matrix: SimplexMatrix, fails: Callable[[SimplexMatrix], bool]
) -> SimplexMatrix:
    """Greedily drop trailing rows, then columns, keeping the failure alive."""
    current = matrix
    while current.rows > 1:
        candidate = SimplexMatrix(current.codomain, current.entries[:-1])
        if fails(candidate):
            current = candidate
        else:
            break
    while current.cols > 1:
        candidate = SimplexMatrix(
            current.codomain, [row[:-1] for row in current.entries]
        )
        if fails(candidate):
            current = candidate
        else:
            break
    return current


# ---------------------------------------------------------------------------
# check registry


@dataclass
class CheckOutcome:
    verdict: str  # "pass" | "fail" | "skipped"
    witness: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    ref: str
    fn: Callable[[SuiteConfig, Corpus], CheckOutcome]


def _fields(config: SuiteConfig) -> list[RingSpec]:
    return [ring for ring in config.ring_specs() if ring.is_field]


def _primary_field(config: SuiteConfig) -> RingSpec | None:
    """The first configured field with 2 invertible (Q preferred by order)."""
    return next((ring for ring in _fields(config) if ring.two_invertible), None)


def check_corpus_sanity(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    checked = 0
    for case in corpus.pairs:
        if case.expected is None:
            continue
        checked += 1
        verdict = is_neighbour(case.f, case.g)
        if verdict.ok != case.expected:
            if case.expected:
                _, text = shrink_failing_pair(case)
            else:
                text = "expected a separation but the maps are neighbours"
            return CheckOutcome(
                "fail",
                f"case {case.index} over {case.ring_name} ({case.tag}): {text}",
                {"checked": checked},
            )
    return CheckOutcome("pass", None, {"checked": checked, "cases": len(corpus.pairs)})


def check_criteria_agreement(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    for case in corpus.pairs:
        direct = is_neighbour(case.f, case.g)
        product_form = is_neighbour_product_form(case.f, case.g)
        symmetric = is_neighbour(case.g, case.f)
        if not (direct.ok == product_form.ok == symmetric.ok):
            return CheckOutcome(
                "fail",
                f"case {case.index}: difference test {direct.ok}, "
                f"product form {product_form.ok}, swapped {symmetric.ok}",
            )
        if not is_neighbour(case.f, case.f):
            return CheckOutcome("fail", f"case {case.index}: reflexivity broken")
    return CheckOutcome("pass", None, {"pairs": len(corpus.pairs)})


def check_square_zero_agreement(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    eligible = [
        case
        for case in corpus.pairs
        if case.codomain.ring.two_invertible
    ]
    if not eligible:
        return CheckOutcome("skipped", "no configured ring has 2 invertible")
    for case in eligible:
        squares = is_square_zero_pair(case.f, case.g)
        direct = is_neighbour(case.f, case.g)
        if squares.ok != direct.ok:
            return CheckOutcome(
                "fail",
                f"case {case.index} over {case.ring_name}: square test {squares.ok} "
                f"vs neighbour test {direct.ok}",
            )
    return CheckOutcome("pass", None, {"pairs": len(eligible)})


def check_char_two_separation(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    if "Z/2" not in config.rings:
        return CheckOutcome("skipped", "Z/2 not configured")
    ring = RingSpec.modular(2)
    codomain = corpus.weil(ring, "squares", 2)
    domain = corpus.domain(ring, 2)
    f = AlgebraMap(domain, codomain, [codomain.zero(), codomain.zero()])
    g = AlgebraMap(domain, codomain, codomain.generators())
    squares = is_square_zero_pair(f, g)
    direct = is_neighbour(f, g)
    if not squares.ok:
        return CheckOutcome("fail", f"square test rejected the pair: {squares.witness}")
    if direct.ok:
        return CheckOutcome("fail", "the pair must not be neighbours over Z/2")
    witness = direct.witness
    if witness is None:
        return CheckOutcome("fail", "the neighbour test rejected the pair without a witness")
    expected = codomain.generator(0) * codomain.generator(1)
    if witness.value != expected:
        return CheckOutcome("fail", f"unexpected witness {witness.value}")
    return CheckOutcome(
        "pass", None, {"witness": str(witness.value), "note": "bounded square test diverges"}
    )


def check_precomposition(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    rng = _rng(config, "precomposition")
    budget = min(len(corpus.pairs), 60)
    checked = 0
    for case in corpus.pairs[:budget]:
        n = len(case.domain.varset)
        wide = corpus.domain(case.codomain.ring, n + 1)
        # surjective: keep the generators, send the extra one anywhere
        images = [case.domain.generator(i) for i in range(n)]
        images.append(_random_element(rng, case.domain, 2))
        onto = AlgebraMap(wide, case.domain, images)
        before = is_neighbour(case.f, case.g).ok
        after = is_neighbour(compose(case.f, onto), compose(case.g, onto)).ok
        if before != after:
            return CheckOutcome(
                "fail",
                f"case {case.index}: verdict changed along a surjection "
                f"({before} -> {after})",
            )
        checked += 1
        if before:
            # arbitrary (not necessarily onto) precomposition preserves it
            narrow = corpus.domain(case.codomain.ring, max(1, n - 1))
            arbitrary = AlgebraMap(
                narrow,
                case.domain,
                [_random_element(rng, case.domain, 2) for _ in range(len(narrow.varset))],
            )
            if not is_neighbour(compose(case.f, arbitrary), compose(case.g, arbitrary)):
                return CheckOutcome(
                    "fail", f"case {case.index}: lost neighbours under precomposition"
                )
    return CheckOutcome("pass", None, {"cases": checked})


def check_postcomposition(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    rng = _rng(config, "postcomposition")
    checked = 0
    for case in corpus.pairs:
        if not is_neighbour(case.f, case.g):
            continue
        codomain = case.codomain
        ring = codomain.ring
        n = len(codomain.varset)
        # diagonal rescaling is a valid endomorphism of every monomial quotient
        scalars = [_random_value(rng.getrandbits, ring) for _ in range(n)]
        endo = AlgebraMap(
            codomain,
            codomain,
            [codomain.generator(i) * codomain.element(scalars[i]) for i in range(n)],
        )
        if not is_neighbour(compose(endo, case.f), compose(endo, case.g)):
            return CheckOutcome(
                "fail", f"case {case.index}: rescaling endomorphism broke the relation"
            )
        # collapsing into the full square-zero algebra also works
        collapse_target = corpus.weil(ring, "full", n)
        collapse = AlgebraMap(codomain, collapse_target, collapse_target.generators())
        if not is_neighbour(compose(collapse, case.f), compose(collapse, case.g)):
            return CheckOutcome(
                "fail", f"case {case.index}: collapse map broke the relation"
            )
        checked += 1
    return CheckOutcome("pass", None, {"neighbour_cases": checked})


def check_kernel_rewriting(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    """Kernel elements drawn over corpus bases (a free domain, or the
    squares-only Weil algebra) re-expand from their rewriting.  The tensor
    square tensor(base, base) the elements are drawn in is built once per
    base, keyed by the corpus algebra, in a dict that lives for the call;
    rewrite_kernel_element still builds its own copy."""
    rng = _rng(config, "kernel")
    done = 0
    squares = {}
    for i in range(config.case_count):
        ring = _ring_at(config, i)
        n = rng.randint(1, config.n_max)
        presented = rng.random() < 0.25
        base = corpus.weil(ring, "squares", n) if presented else corpus.domain(ring, n)
        if base not in squares:
            squares[base] = tensor(base, base)
        t_algebra, include0, include1 = squares[base]
        total = t_algebra.zero()
        for _ in range(rng.randint(1, 2)):
            a = _random_element(rng, base, 2)
            b = _random_element(rng, base, 2)
            total = total + include0.apply(a) * (include1.apply(b) - include0.apply(b))
        rewrite_kernel_element(base, total)  # raises ReexpansionFailed on a mismatch
        done += 1
    # non-kernel elements must be rejected with their multiplication image
    ring = _ring_at(config, 0)
    base = corpus.domain(ring, 1)
    try:  # copy 0 of the generator, whose multiplication image is the generator
        rewrite_kernel_element(base, Polynomial.variable(pair_varset(base.varset), ring, 0))
        return CheckOutcome("fail", "a non-kernel element was accepted")
    except NotInKernel:
        pass
    return CheckOutcome("pass", None, {"cases": done})


def check_diagonal_ideal_kernel(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    checked = 0
    for ring in config.ring_specs():
        for n in range(1, config.n_max + 1):
            for base in (corpus.domain(ring, n), corpus.weil(ring, "mixed", n)):
                mult = multiplication_map(base)
                for gen in diagonal_ideal(base, 1).generators:
                    image = mult.apply(gen)
                    if not image.is_zero():
                        return CheckOutcome(
                            "fail",
                            f"generator {gen} of the diagonal ideal of {base!r} "
                            f"maps to {image}",
                        )
                    checked += 1
    return CheckOutcome("pass", None, {"generators": checked})


def check_difference_decomposition(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    rng = _rng(config, "decompose")
    done = 0
    max_width = 0
    for i in range(config.case_count):
        ring = _ring_at(config, i)
        n = rng.randint(1, config.n_max)
        varset = VarSet(tuple(f"X{k + 1}" for k in range(n)))
        p = _random_poly(rng, varset, ring, 4, max_terms=4)
        qs = decompose_difference(p)  # raises ReexpansionFailed if it does not re-expand
        if len(qs) != n:
            return CheckOutcome("fail", f"case {i}: expected {n} cofactors, got {len(qs)}")
        max_width = max(max_width, n)
        done += 1
    return CheckOutcome("pass", None, {"cases": done, "max_vars": max_width})


def check_universal_property(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    """Each corpus pair factors through the universal pair on its domain
    exactly when it is a neighbour pair, and the factorization restores the
    maps.  universal_simplex(domain, 1) is built once per corpus domain,
    keyed by the domain, in a dict that lives for the call."""
    factored = 0
    rejected = 0
    simplices = {}
    for case in corpus.pairs:
        if case.domain not in simplices:
            simplices[case.domain] = universal_simplex(case.domain, 1)
        simplex = simplices[case.domain]
        expected = is_neighbour(case.f, case.g).ok
        try:
            mediating = classifying_map(simplex, [case.f, case.g])
        except IllDefinedMap:
            mediating = None
        if (mediating is not None) != expected:
            return CheckOutcome(
                "fail",
                f"case {case.index}: factorization "
                f"{'succeeded' if mediating else 'failed'} but the pair is "
                f"{'neighbours' if expected else 'not neighbours'}",
            )
        if mediating is None:
            rejected += 1
            continue
        for vertex, original in zip(simplex.maps, (case.f, case.g)):
            if compose(mediating, vertex) != original:
                return CheckOutcome(
                    "fail", f"case {case.index}: composite does not restore the map"
                )
        factored += 1
    return CheckOutcome("pass", None, {"factored": factored, "rejected": rejected})


def check_universal_simplex_neighbours(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    instances = 0
    # p = 1 works over every configured ring, including non-fields
    for ring in config.ring_specs():
        for n in range(1, config.n_max + 1):
            simplex = universal_simplex(corpus.domain(ring, n), 1)
            if not is_neighbour(simplex.maps[0], simplex.maps[1]):
                return CheckOutcome("fail", f"p=1 universal pair fails over {ring}, n={n}")
            instances += 1
    for ring in _fields(config):
        for p in range(2, config.p_max + 1):
            for n in range(1, config.n_max + 1):
                simplex = universal_simplex(corpus.domain(ring, n), p)
                for r in range(p + 1):
                    for s in range(r + 1, p + 1):
                        if not is_neighbour(simplex.maps[r], simplex.maps[s]):
                            return CheckOutcome(
                                "fail",
                                f"universal simplex p={p}, n={n} over {ring}: "
                                f"maps {r},{s}",
                            )
                instances += 1
        # presented base, tensor representation
        base = corpus.weil(ring, "squares", 2)
        simplex = universal_simplex(base, 1)
        if not is_neighbour(simplex.maps[0], simplex.maps[1]):
            return CheckOutcome(
                "fail",
                f"tensor-representation pair is not a neighbour pair over {ring}",
            )
        instances += 1
    ring = _primary_field(config)
    if ring is not None:
        # the two representations of the free-base neighbourhood are isomorphic:
        # each factors through the other, and the composites restore the maps
        free_base = corpus.domain(ring, 2)
        diff_rep = universal_simplex(free_base, 1, representation="difference")
        tens_rep = universal_simplex(free_base, 1, representation="tensor")
        to_diff = classifying_map(tens_rep, list(diff_rep.maps))
        to_tens = classifying_map(diff_rep, list(tens_rep.maps))
        for r in range(2):
            if compose(to_diff, tens_rep.maps[r]) != diff_rep.maps[r]:
                return CheckOutcome("fail", "representation comparison broke (to difference)")
            if compose(to_tens, diff_rep.maps[r]) != tens_rep.maps[r]:
                return CheckOutcome("fail", "representation comparison broke (to tensor)")
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def check_simplex_matrix_criterion(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    checked = 0
    for case in corpus.pairs:
        matrix = matrix_of_maps([case.f, case.g])
        by_matrix = is_simplex(matrix).ok
        # is_neighbour is vectors_neighbour on the image rows, so a separate
        # vector verdict could never differ from it; the independent second
        # answer is is_neighbour_product_form, which
        # neighbour-criteria-agreement compares with is_neighbour
        by_maps = is_neighbour(case.f, case.g).ok
        if by_matrix != by_maps:
            return CheckOutcome(
                "fail", f"case {case.index}: matrix {by_matrix}, maps {by_maps}"
            )
        checked += 1
    return CheckOutcome("pass", None, {"matrices": checked})


def check_squares_insufficient(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    results = {}
    for ring in config.ring_specs():
        codomain = corpus.weil(ring, "squares", 2)
        domain = corpus.domain(ring, 2)
        f = AlgebraMap(domain, codomain, [codomain.zero(), codomain.zero()])
        g = AlgebraMap(domain, codomain, codomain.generators())
        deltas = [gi - fi for fi, gi in zip(f.images, g.images)]
        squares_vanish = all((d * d).is_zero() for d in deltas)
        verdict = is_neighbour(f, g)
        if not squares_vanish:
            return CheckOutcome("fail", f"a generator square survived over {ring}")
        if verdict.ok:
            return CheckOutcome("fail", f"pair must not be neighbours over {ring}")
        witness = verdict.witness
        if witness is None:
            return CheckOutcome("fail", f"rejected without a witness over {ring}")
        if witness.value != codomain.generator(0) * codomain.generator(1):
            return CheckOutcome("fail", f"unexpected witness {witness.value} over {ring}")
        results[str(ring)] = str(witness.value)
    return CheckOutcome("pass", None, {"witness": results})


def check_not_transitive(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    for ring in config.ring_specs():
        codomain = corpus.weil(ring, "squares", 2)
        domain = corpus.domain(ring, 2)
        zero = codomain.zero()
        e1, e2 = codomain.generators()
        f = AlgebraMap(domain, codomain, [zero, zero])
        g = AlgebraMap(domain, codomain, [e1, zero])
        h = AlgebraMap(domain, codomain, [e1, e2])
        if not (is_neighbour(f, g) and is_neighbour(g, h)):
            return CheckOutcome("fail", f"chain links must be neighbours over {ring}")
        if is_neighbour(f, h):
            return CheckOutcome("fail", f"transitivity unexpectedly holds over {ring}")
    return CheckOutcome("pass", None, {"rings": list(config.rings)})


def _monomial_pairs(base: FpAlgebra, degree_bound: int):
    """All pairs (u, v) of monomials, constants included, with
    deg u + deg v <= degree_bound; exhaustive but tiny at desk scale.
    Monomials are ordered by degree, then by reversed exponent tuple, and
    each is built once."""
    exponents = itertools.product(range(degree_bound + 1), repeat=len(base.varset))
    monomials = sorted(
        (e for e in exponents if sum(e) <= degree_bound), key=lambda e: (sum(e), e[::-1])
    )
    built = {e: Polynomial._raw(base.varset, base.ring, {e: base.ring.one()}) for e in monomials}
    for u, v in itertools.product(monomials, repeat=2):
        if sum(u) + sum(v) <= degree_bound:
            yield built[u], built[v]


# Kept independent of neighbour._weighted_row_sum on purpose: the checks
# compare it with affine_combination.
def _pointwise_combination(
    maps: Sequence[AlgebraMap], weights: CoefficientVector, element
):
    total = weights.codomain.zero()
    for w, f in zip(weights, maps):
        total = total + w * f.apply(element)
    return total


def _displaced_images(
    rng: random.Random, corpus: Corpus, ring: RingSpec, p: int, n: int, base: bool = True
) -> tuple[FpAlgebra, list | None, list[list]]:
    """A corpus Weil algebra, n base images in it and p displacement rows.

    The base images and their sums with each displacement row are mutual
    neighbours, and the displacement rows lie in the difference variety.
    Returns (codomain, base images, displacement rows); base=False spends
    the base images' bits but builds None in their place.
    """
    pattern = "full" if rng.random() < 0.5 else "squares"
    codomain = corpus.weil(ring, pattern, n)
    if base:
        base_images = [_random_element(rng, codomain, 2) for _ in range(n)]
    else:
        base_images = None
        for _ in range(n):
            _random_terms(rng.getrandbits, n, ring, 2, 3, 0)
    displacements = [
        _augmentation_delta(rng, codomain, general=(pattern == "full")) for _ in range(p)
    ]
    return codomain, base_images, displacements


def _neighbour_tuple(
    rng: random.Random, corpus: Corpus, ring: RingSpec, p: int, n: int
) -> tuple[FpAlgebra, FpAlgebra, list[AlgebraMap]]:
    """p+1 mutually neighbouring maps into a corpus Weil algebra."""
    codomain, base_images, displacements = _displaced_images(rng, corpus, ring, p, n)
    domain = corpus.domain(ring, n)
    maps = [AlgebraMap(domain, codomain, base_images)]
    for deltas in displacements:
        maps.append(AlgebraMap(domain, codomain, [b + d for b, d in zip(base_images, deltas)]))
    return domain, codomain, maps


def _random_affine_weights(
    rng: random.Random, codomain: FpAlgebra, count: int
) -> CoefficientVector:
    getrandbits, ring = rng.getrandbits, codomain.ring
    return CoefficientVector.affine(
        codomain, [_random_value(getrandbits, ring) for _ in range(count - 1)]
    )


def check_affine_multiplicative(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    instances = 0
    ring = _primary_field(config)
    if ring is not None:
        for p in range(1, config.p_max + 1):
            for n in range(1, config.n_max + 1):
                base = corpus.domain(ring, n)
                simplex = universal_simplex(base, p)
                _, _, weights, lifted = generic_coefficients(simplex)
                combined = affine_combination(lifted, weights)
                values = {}  # the pointwise combination at each monomial, formed once
                mapped = set()  # the u on which the map has been compared
                for u, v in _monomial_pairs(base, config.degree_bound):
                    uv = u * v
                    for m in (u, v, uv):
                        if m not in values:
                            values[m] = _pointwise_combination(lifted, weights, base.element(m))
                    left = values[u]
                    if left * values[v] != values[uv]:
                        return CheckOutcome(
                            "fail",
                            f"universal p={p}, n={n}: pointwise combination is not "
                            f"multiplicative on {u}, {v}",
                        )
                    # a u that failed here returned at its first pair, so
                    # comparing each u once keeps the first failure's message
                    if u not in mapped:
                        mapped.add(u)
                        if combined.apply(base.element(u)) != left:
                            return CheckOutcome(
                                "fail",
                                f"universal p={p}, n={n}: map disagrees with the "
                                f"pointwise combination on {u}",
                            )
                instances += 1
    rng = _rng(config, "affine-multiplicative")
    budget = min(config.case_count, 40)
    for i in range(budget):
        ring = _ring_at(config, i)
        p = rng.randint(1, config.p_max)
        n = rng.randint(1, config.n_max)
        domain, codomain, maps = _neighbour_tuple(rng, corpus, ring, p, n)
        weights = _random_affine_weights(rng, codomain, p + 1)
        combined = affine_combination(maps, weights)
        for _ in range(2):
            a = _random_element(rng, domain, 2)
            b = _random_element(rng, domain, 2)
            left = _pointwise_combination(maps, weights, a)
            lhs = _pointwise_combination(maps, weights, a * b)
            if lhs != left * _pointwise_combination(maps, weights, b):
                return CheckOutcome(
                    "fail", f"corpus instance {i}: pointwise combination not multiplicative"
                )
            if combined.apply(a) != left:
                return CheckOutcome(
                    "fail", f"corpus instance {i}: map disagrees with pointwise values"
                )
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def check_affine_postcomposition(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    rng = _rng(config, "affine-post")
    budget = min(config.case_count, 30)
    done = 0
    for i in range(budget):
        ring = _ring_at(config, i)
        p = rng.randint(1, config.p_max)
        n = rng.randint(1, config.n_max)
        _, codomain, maps = _neighbour_tuple(rng, corpus, ring, p, n)
        weights = _random_affine_weights(rng, codomain, p + 1)
        combined = affine_combination(maps, weights)
        target = corpus.weil(ring, "full", n)
        post = AlgebraMap(codomain, target, target.generators())
        lhs = compose(post, combined)
        pushed_weights = CoefficientVector(target, [post.apply(w) for w in weights])
        pushed_maps = [compose(post, f) for f in maps]
        rhs = affine_combination(pushed_maps, pushed_weights)
        if lhs != rhs:
            return CheckOutcome("fail", f"instance {i}: postcomposition does not distribute")
        done += 1
    return CheckOutcome("pass", None, {"instances": done})


def check_bracket_identity(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    """f(a)g(b) + g(a)f(b) = f(ab) + g(ab) for neighbours f, g: on every
    pair of the universal simplex's maps at every pair of monomials, then on
    corpus pairs.  In the universal part every map is applied to each
    monomial once, keyed by the monomial, as the values of
    check_affine_multiplicative are."""
    instances = 0
    ring = _primary_field(config)
    if ring is not None:
        p = min(config.p_max, 2)
        n = min(config.n_max, 2)
        base = corpus.domain(ring, n)
        simplex = universal_simplex(base, p)
        values = {}
        for r in range(p + 1):
            for s in range(r + 1, p + 1):
                for u, v in _monomial_pairs(base, config.degree_bound):
                    uv = u * v
                    for m in (u, v, uv):
                        if m not in values:
                            element = base.element(m)
                            values[m] = [f.apply(element) for f in simplex.maps]
                    fu, fv, fuv = values[u], values[v], values[uv]
                    lhs = fu[r] * fv[s] + fu[s] * fv[r]
                    rhs = fuv[r] + fuv[s]
                    if lhs != rhs:
                        return CheckOutcome(
                            "fail", f"universal bracket identity fails on {u}, {v}"
                        )
                instances += 1
    rng = _rng(config, "bracket")
    for i in range(min(config.case_count, 30)):
        n = rng.randint(1, config.n_max)
        domain, _, maps = _neighbour_tuple(rng, corpus, _ring_at(config, i), 1, n)
        f, g = maps[0], maps[1]
        a = _random_element(rng, domain, 2)
        b = _random_element(rng, domain, 2)
        lhs = f.apply(a) * g.apply(b) + g.apply(a) * f.apply(b)
        rhs = f.apply(a * b) + g.apply(a * b)
        if lhs != rhs:
            return CheckOutcome("fail", f"corpus bracket identity fails on instance {i}")
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def _two_generic_combinations(simplex) -> list[AlgebraMap]:
    """F = sum t_r f_r and G = sum s_r f_r with independent formal weights."""
    extended, _, t_weights, lifted = adjoin_weights(simplex.algebra, simplex.maps, "t")
    wider, inclusion, s_weights, lifted2 = adjoin_weights(extended, lifted, "s")
    t_weights2 = CoefficientVector(wider, [inclusion.apply(w) for w in t_weights])
    return affine_combinations(lifted2, (t_weights2, s_weights))


def check_combinations_neighbours(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    instances = 0
    ring = _primary_field(config)
    if ring is not None:
        for p in range(1, config.p_max + 1):
            for n in range(1, config.n_max + 1):
                simplex = universal_simplex(corpus.domain(ring, n), p)
                first, second = _two_generic_combinations(simplex)
                verdict = is_neighbour(first, second)
                if not verdict:
                    return CheckOutcome(
                        "fail", f"universal p={p}, n={n}: {verdict.witness}"
                    )
                instances += 1
    rng = _rng(config, "combo-pairs")
    p_top = max(config.p_max, 3)
    n_top = max(config.n_max, 3)
    for p in range(1, p_top + 1):
        for n in range(1, n_top + 1):
            for i in range(config.case_count):
                _, codomain, maps = _neighbour_tuple(rng, corpus, _ring_at(config, i), p, n)
                w1 = _random_affine_weights(rng, codomain, p + 1)
                w2 = _random_affine_weights(rng, codomain, p + 1)
                first, second = affine_combinations(maps, (w1, w2))
                if not is_neighbour(first, second):
                    return CheckOutcome(
                        "fail", f"corpus combination pair fails at p={p}, n={n}, case {i}"
                    )
                instances += 1
    return CheckOutcome(
        "pass", None, {"instances": instances, "p_max": p_top, "n_max": n_top}
    )


def check_combination_of_combinations(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    instances = 0
    ring = _primary_field(config)
    if ring is not None:
        n = min(config.n_max, 2)
        simplex = universal_simplex(corpus.domain(ring, n), 1)
        extended, _, _, lifted = generic_coefficients(simplex, "u")
        wider, inclusion = adjoin_variables(extended, ("v", "w"))
        maps = tuple(compose(inclusion, f) for f in lifted)
        u = wider.generator(len(simplex.algebra.varset))
        v = wider.generator(len(extended.varset))
        w = wider.generator(len(extended.varset) + 1)
        one = wider.one()
        inner_weight = (one - w) * u + w * v
        g0, g1, direct = affine_combinations(
            maps,
            [CoefficientVector(wider, [one - x, x]) for x in (u, v, inner_weight)],
        )
        outer = affine_combination([g0, g1], CoefficientVector(wider, [one - w, w]))
        if outer != direct:
            return CheckOutcome("fail", "universal composed weights disagree")
        instances += 1
    rng = _rng(config, "combo-combo")
    for i in range(min(config.case_count, 25)):
        ring = _ring_at(config, i)
        p = rng.randint(1, config.p_max)
        n = rng.randint(1, config.n_max)
        _, codomain, maps = _neighbour_tuple(rng, corpus, ring, p, n)
        rows = [_random_affine_weights(rng, codomain, p + 1) for _ in range(2)]
        outer_weights = _random_affine_weights(rng, codomain, 2)
        merged = []
        for r in range(p + 1):
            acc = codomain.zero()
            for l in range(2):
                acc = acc + outer_weights[l] * rows[l][r]
            merged.append(acc)
        *combos, rhs = affine_combinations(maps, [*rows, CoefficientVector(codomain, merged)])
        lhs = affine_combination(combos, outer_weights)
        if lhs != rhs:
            return CheckOutcome("fail", f"instance {i}: composed weights disagree")
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def check_generic_classifier(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    instances = 0
    # p = 1 on a free base works over every ring, and has a known shape
    for ring in config.ring_specs():
        base = corpus.domain(ring, min(config.n_max, 2))
        generic = canonical_map(base, 1)
        expected_names = [f"d_{v}" for v in base.varset.names]
        codomain = generic.codomain
        t = codomain.generator("t")
        for i, name in enumerate(base.varset.names):
            image = generic.images[i]
            shaped = codomain.generator(name) + t * codomain.generator(expected_names[i])
            if image != shaped:
                return CheckOutcome(
                    "fail", f"generic image over {ring} is {image}, wanted {shaped}"
                )
        instances += 1
    for ring in _fields(config):
        for p in range(1, config.p_max + 1):
            canonical_map(corpus.domain(ring, config.n_max), p)  # IllDefinedMap = bug
            instances += 1
        canonical_map(corpus.weil(ring, "squares", 2), 1)
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def _random_dtilde_matrix(
    rng: random.Random, corpus: Corpus, ring: RingSpec, p: int, n: int
) -> SimplexMatrix:
    """A member of the difference variety: the anchored differences of the
    simplex _neighbour_tuple would draw, which are its displacement rows."""
    codomain, _, displacements = _displaced_images(rng, corpus, ring, p, n, base=False)
    return SimplexMatrix(codomain, displacements)


def _dtilde_candidate(
    rng: random.Random, corpus: Corpus, ring: RingSpec, p: int, n: int, member: bool
) -> SimplexMatrix:
    """A constructed member of the difference variety, or a random p x n
    matrix over the mixed Weil algebra."""
    if member:
        return _random_dtilde_matrix(rng, corpus, ring, p, n)
    codomain = corpus.weil(ring, "mixed", n)
    return SimplexMatrix(
        codomain, [[_random_element(rng, codomain, 2) for _ in range(n)] for _ in range(p)]
    )


def check_zero_anchored_criterion(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    # universal instances: the generic matrix is a member by construction,
    # and prepending a zero row must give a simplex (exact normal forms)
    universal = 0
    for ring in _fields(config):
        for p, n in ((2, 2), (1, 2)):
            _, matrix = universal_dtilde(p, n, ring)
            if not in_dtilde(matrix).ok:
                return CheckOutcome(
                    "fail", f"generic {p}x{n} matrix rejected over {ring}"
                )
            if not is_simplex(matrix.prepend_zero_row()).ok:
                return CheckOutcome(
                    "fail", f"anchored generic {p}x{n} matrix fails over {ring}"
                )
            universal += 1
    rng = _rng(config, "anchored")
    members = 0
    others = 0
    for i in range(min(config.case_count, 80)):
        p = rng.randint(1, config.p_max)
        n = rng.randint(1, config.n_max)
        matrix = _dtilde_candidate(rng, corpus, _ring_at(config, i), p, n, member=i % 2 == 0)
        direct = in_dtilde(matrix).ok
        anchored = is_simplex(matrix.prepend_zero_row()).ok
        if direct != anchored:
            bad = shrink_failing_matrix(
                matrix,
                lambda m: in_dtilde(m).ok != is_simplex(m.prepend_zero_row()).ok,
            )
            return CheckOutcome(
                "fail",
                f"instance {i}: membership {direct} but anchored simplex {anchored}; "
                f"minimal matrix:\n{bad}",
            )
        if direct and i % 2 == 0:
            members += 1
        else:
            others += 1
    if members == 0:
        return CheckOutcome("fail", "no constructed member exercised the criterion")
    return CheckOutcome(
        "pass", None, {"members": members, "others": others, "universal": universal}
    )


def check_determinant_identity(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    ring = _primary_field(config)
    if ring is None:
        return CheckOutcome("skipped", "no configured field has 2 invertible")
    algebra, matrix = universal_dtilde(2, 2, ring)
    det = matrix.entry(0, 0) * matrix.entry(1, 1) - matrix.entry(0, 1) * matrix.entry(1, 0)
    doubled = matrix.entry(0, 0) * matrix.entry(1, 1) * algebra.element(2)
    if det != doubled:
        return CheckOutcome("fail", f"determinant is {det}, not {doubled}")
    if det.is_zero():
        return CheckOutcome("fail", "determinant collapsed to zero (vacuous identity)")
    if "Z/2" in config.rings:
        algebra2, matrix2 = universal_dtilde(2, 2, RingSpec.modular(2))
        det2 = (
            matrix2.entry(0, 0) * matrix2.entry(1, 1)
            - matrix2.entry(0, 1) * matrix2.entry(1, 0)
        )
        if not det2.is_zero():
            return CheckOutcome(
                "fail", f"over Z/2 the determinant must vanish, got {det2}"
            )
    return CheckOutcome("pass", None, {"field": str(ring), "determinant": str(det)})


def _symmetric_equations_hold(matrix: SimplexMatrix) -> bool:
    """Whether the transposition-invariant part of the in_dtilde equations
    vanishes: the cross products, the doubled off-diagonal row products and
    the squares a_ri^2.  Transposition maps this family onto itself (a
    cross product with i = j is twice a column product), and every member
    of the difference variety satisfies it, in any characteristic."""
    a = matrix.entry
    rows, cols = matrix.rows, matrix.cols
    for r in range(rows):
        for i in range(cols):
            if not (a(r, i) * a(r, i)).is_zero():
                return False
            for j in range(i + 1, cols):
                if not (a(r, i) * a(r, j) * 2).is_zero():
                    return False
            for s in range(r + 1, rows):
                for j in range(i, cols):
                    if not (a(r, i) * a(s, j) + a(s, i) * a(r, j)).is_zero():
                        return False
    return True


def check_transposition(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    """Transposition keeps membership in the difference variety when 2 is a
    non-zero-divisor: over Q and Z/m with m odd (2 invertible) and over Z
    (the corpus algebras over Z are monomial quotients, free Z-modules).
    Otherwise a cross product with i = j only gives 2*a_ri*a_si = 0, so
    membership can change (see SimplexMatrix.transpose); there the check asks
    that a member or a transposed member satisfies the transposition-invariant
    equations, and that a matrix and its transpose agree on them."""
    ring = _primary_field(config)
    instances = 0
    if ring is not None:
        shapes = [(2, 2)] + [(1, n) for n in range(1, config.n_max + 1)] + [
            (n, 1) for n in range(2, config.n_max + 1)
        ]
        for p, n in shapes:
            _, matrix = universal_dtilde(p, n, ring)
            verdict = in_dtilde(matrix.transpose())
            if not verdict:
                return CheckOutcome(
                    "fail", f"universal {p}x{n} transpose fails: {verdict.witness}"
                )
            instances += 1
    rng = _rng(config, "transpose")
    for i in range(min(config.case_count, 40)):
        ring = _ring_at(config, i)
        p = rng.randint(1, config.p_max)
        n = rng.randint(1, config.n_max)
        matrix = _dtilde_candidate(rng, corpus, ring, p, n, member=i % 2 == 0)
        flipped = matrix.transpose()
        direct, transposed = in_dtilde(matrix).ok, in_dtilde(flipped).ok
        if ring.two_invertible or ring.kind == "Z":
            if direct != transposed:
                return CheckOutcome("fail", f"instance {i}: transpose changed the verdict")
        else:
            symmetric = _symmetric_equations_hold(matrix)
            if symmetric != _symmetric_equations_hold(flipped):
                return CheckOutcome(
                    "fail", f"instance {i}: transpose changed the symmetric equations"
                )
            if (direct or transposed) and not symmetric:
                return CheckOutcome(
                    "fail", f"instance {i}: a member violates the symmetric equations"
                )
        instances += 1
    return CheckOutcome("pass", None, {"instances": instances})


def check_row_extension(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    rng = _rng(config, "extension")
    p_top = max(config.p_max, 3)
    n_top = max(config.n_max, 3)
    instances = 0
    for p in range(1, p_top + 1):
        for n in range(1, n_top + 1):
            for i in range(config.case_count):
                matrix = _random_dtilde_matrix(rng, corpus, _ring_at(config, i), p, n)
                weights = [_random_element(rng, matrix.codomain, 1) for _ in range(p)]
                extended = extend_matrix(matrix, weights)
                verdict = in_dtilde(extended)
                if not verdict:
                    bad = shrink_failing_matrix(
                        extended, lambda m: not in_dtilde(m).ok
                    )
                    return CheckOutcome(
                        "fail",
                        f"extension failed at p={p}, n={n}, case {i}: "
                        f"{verdict.witness}; minimal matrix:\n{bad}",
                    )
                instances += 1
    ring = _primary_field(config)
    if ring is not None:
        # fully generic instance: extend the universal 2x2 matrix by formal weights
        algebra, matrix = universal_dtilde(2, 2, ring)
        wider, inclusion = adjoin_variables(algebra, ("c1", "c2"))
        lifted = SimplexMatrix(
            wider, [[inclusion.apply(x) for x in row] for row in matrix.entries]
        )
        weights = [wider.generator("c1"), wider.generator("c2")]
        verdict = in_dtilde(extend_matrix(lifted, weights))
        if not verdict:
            return CheckOutcome("fail", f"generic extension fails: {verdict.witness}")
        instances += 1
    return CheckOutcome(
        "pass", None, {"instances": instances, "p_max": p_top, "n_max": n_top}
    )


def check_meta(config: SuiteConfig, corpus: Corpus) -> CheckOutcome:
    ids = [spec.check_id for spec in CHECKS]
    if len(set(ids)) != len(ids):
        return CheckOutcome("fail", "duplicate check ids in the registry")
    return CheckOutcome("pass", None, {"registered": len(ids)})


CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec(
        "corpus-construction-sanity",
        "pinned corpus families have their designed neighbour verdicts",
        check_corpus_sanity,
    ),
    CheckSpec(
        "neighbour-criteria-agreement",
        "the difference-product and subtraction-free neighbour tests agree, "
        "and the relation is symmetric and reflexive",
        check_criteria_agreement,
    ),
    CheckSpec(
        "square-zero-agreement-when-two-invertible",
        "vanishing squares of differences is equivalent to the neighbour "
        "relation when 2 is invertible",
        check_square_zero_agreement,
    ),
    CheckSpec(
        "square-zero-char-two-separation",
        "over a characteristic-2 field the bounded square test is strictly "
        "weaker than the neighbour relation",
        check_char_two_separation,
    ),
    CheckSpec(
        "precomposition-and-reflection",
        "the neighbour verdict is preserved by precomposition and reflected "
        "along surjections",
        check_precomposition,
    ),
    CheckSpec(
        "postcomposition-stability",
        "the neighbour relation is stable under postcomposition",
        check_postcomposition,
    ),
    CheckSpec(
        "kernel-rewriting-reconstruction",
        "multiplication-kernel elements decompose over the standard kernel "
        "generators with copy-0 coefficients",
        check_kernel_rewriting,
    ),
    CheckSpec(
        "diagonal-ideal-inside-kernel",
        "every generator of the diagonal ideal is killed by the "
        "multiplication map",
        check_diagonal_ideal_kernel,
    ),
    CheckSpec(
        "difference-decomposition-reexpansion",
        "the difference of the two renamed copies of a polynomial expands "
        "over the variable differences with computed cofactors",
        check_difference_decomposition,
    ),
    CheckSpec(
        "first-neighbourhood-universal-property",
        "neighbour pairs factor through the first neighbourhood of the "
        "diagonal and non-neighbour pairs do not",
        check_universal_property,
    ),
    CheckSpec(
        "universal-simplex-mutual-neighbours",
        "the universal simplex maps are mutually neighbouring, in both "
        "representations, which factor through each other",
        check_universal_simplex_neighbours,
    ),
    CheckSpec(
        "simplex-matrix-criterion",
        "a matrix is an infinitesimal simplex exactly when its rows are "
        "pairwise neighbouring vectors (equivalently, its row maps are "
        "mutual neighbours)",
        check_simplex_matrix_criterion,
    ),
    CheckSpec(
        "per-generator-squares-insufficient",
        "vanishing per-generator squares do not imply the neighbour relation "
        "(two square-zero variables, witness is the cross product)",
        check_squares_insufficient,
    ),
    CheckSpec(
        "neighbour-not-transitive",
        "the neighbour relation is not transitive",
        check_not_transitive,
    ),
    CheckSpec(
        "affine-combination-multiplicative",
        "affine combinations of mutual neighbours act multiplicatively, so "
        "they are algebra maps",
        check_affine_multiplicative,
    ),
    CheckSpec(
        "affine-combination-postcomposition",
        "postcomposition distributes over affine combinations",
        check_affine_postcomposition,
    ),
    CheckSpec(
        "pairwise-bracket-identity",
        "mutual neighbours satisfy the symmetric product identity on all "
        "monomial pairs",
        check_bracket_identity,
    ),
    CheckSpec(
        "affine-combinations-pairwise-neighbours",
        "any two affine combinations of the same mutual neighbours are "
        "neighbours",
        check_combinations_neighbours,
    ),
    CheckSpec(
        "combination-of-combinations",
        "an affine combination of affine combinations is the affine "
        "combination with composed weights",
        check_combination_of_combinations,
    ),
    CheckSpec(
        "generic-affine-classifier",
        "the generic affine combination with formal weights is a well-defined "
        "map of the expected shape",
        check_generic_classifier,
    ),
    CheckSpec(
        "zero-anchored-criterion",
        "a matrix satisfies the difference-variety equations exactly when "
        "prepending a zero row yields a simplex",
        check_zero_anchored_criterion,
    ),
    CheckSpec(
        "dtilde-determinant-identity",
        "the generic 2x2 difference matrix has determinant equal to twice "
        "its diagonal product",
        check_determinant_identity,
    ),
    CheckSpec(
        "dtilde-transposition-stability",
        "the difference-variety equations are stable under transposition",
        check_transposition,
    ),
    CheckSpec(
        "dtilde-row-extension",
        "appending any weighted sum of rows preserves the difference-variety "
        "equations",
        check_row_extension,
    ),
    CheckSpec(
        "verification-meta",
        "the registry is well formed and every check reported a verdict",
        check_meta,
    ),
)


# ---------------------------------------------------------------------------
# running and reporting


@dataclass
class CheckRecord:
    check_id: str
    ref: str
    params: dict
    verdict: str
    witness: str | None
    ms: int


@dataclass
class VerificationReport:
    config: SuiteConfig
    records: list[CheckRecord]
    sabotaged: bool = False

    def passed(self) -> bool:
        return all(r.verdict != "fail" for r in self.records)

    def verdicts(self) -> dict[str, str]:
        return {r.check_id: r.verdict for r in self.records}

    def record(self, check_id: str) -> CheckRecord:
        """The record of one check, by id; UnknownCheck (a KeyError) for an
        id not run."""
        for r in self.records:
            if r.check_id == check_id:
                return r
        raise UnknownCheck(check_id)


def run_suite(config: SuiteConfig, sabotage: bool = False) -> VerificationReport:
    """Run every registered check against a fresh deterministic corpus."""
    corpus = build_corpus(config, sabotage)
    records = []
    for spec in CHECKS:
        started = time.perf_counter()
        try:
            outcome = spec.fn(config, corpus)
        except NbhdError as exc:
            outcome = CheckOutcome("fail", f"{type(exc).__name__}: {exc}")
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        records.append(
            CheckRecord(
                spec.check_id,
                spec.ref,
                outcome.params,
                outcome.verdict,
                outcome.witness,
                elapsed_ms,
            )
        )
    records.sort(key=lambda r: r.check_id)
    return VerificationReport(config, records, sabotage)


def emit_report(
    report: VerificationReport, format: str = "json", timings: bool = False
) -> str:
    """Render a report.

    JSON output zeroes the per-check milliseconds unless timings=True, so
    that two runs with the same configuration agree byte for byte; the text
    format is for humans and always shows wall-clock times.
    """
    if format == "json":
        checks = []
        for r in report.records:
            entry: dict = {
                "id": r.check_id,
                "paper_ref": r.ref,
                "params": r.params,
                "verdict": r.verdict,
                "ms": r.ms if timings else 0,
            }
            if r.witness is not None:
                entry["witness"] = r.witness
            checks.append(entry)
        doc = {"config": report.config.as_dict(), "checks": checks}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if format == "text":
        lines = []
        width = max(len(r.check_id) for r in report.records)
        for r in report.records:
            line = (
                f"[{r.verdict:>7}] {r.check_id:<{width}}  {r.ms:>6} ms  -- {r.ref}"
            )
            if r.witness:
                line += f"\n          {r.witness}"
            lines.append(line)
        failed = sum(1 for r in report.records if r.verdict == "fail")
        skipped = sum(1 for r in report.records if r.verdict == "skipped")
        passed = len(report.records) - failed - skipped
        lines.append(
            f"{passed} passed, {failed} failed, {skipped} skipped"
            + (" [sabotaged corpus]" if report.sabotaged else "")
        )
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown report format {format!r}; expected json or text")


def fail_injection_flips(config: SuiteConfig) -> tuple[bool, list[str]]:
    """Self-test: knocking a relation out of the pinned corpus algebra must
    flip at least one verdict to fail.  Returns (flipped?, which ids)."""
    honest = run_suite(config).verdicts()
    sabotaged = run_suite(config, sabotage=True).verdicts()
    flipped = sorted(
        check_id
        for check_id, verdict in sabotaged.items()
        if verdict == "fail" and honest.get(check_id) != "fail"
    )
    return bool(flipped), flipped
