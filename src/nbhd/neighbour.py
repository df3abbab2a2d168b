"""The first-order neighbour relation and its calculus.

Two algebra maps f, g with a common presented domain are neighbours when all
products (g(a) - f(a)) * (g(b) - f(b)) vanish.  It is enough to test the
finitely many pairs of generator differences; precomposing with the
presentation surjection of the domain shows the generator-level test is
sound and complete for presented domains as well.

On top of the pair decision the module provides: matrices of mutual
neighbours (infinitesimal simplices), the zero-anchored difference matrices
with their cross-product and row-product equations, affine combinations of
mutual neighbours, the rewriting of multiplication-kernel elements in terms
of the standard kernel generators, the generic affine combination with
formal coefficients, and row extensions of difference matrices.

The difference products are enumerated in one place,
algebra._difference_products, which over a free algebra's generators also
gives the relations of the universal simplices; vectors_neighbour (and so
is_neighbour), is_simplex and the precondition of the affine combinations
all scan it.  affine_combinations forms several combinations of the same
maps after one scan; affine_combination is its one-vector case.  The
equations of the difference variety are enumerated in _dtilde_equations,
which in_dtilde scans and universal_dtilde runs over a free algebra's
generators for its relations.  Weighted row sums (affine combinations, row
extensions) are formed by _weighted_row_sum.  All three sum products
through one kernel, FpAlgebra._sum_of_products, which accumulates the
normal-form terms of a sum of products in one dict.  The scans decide
without building: an equation's factor pairs go to the kernel, and an
element is built only for an equation that does not vanish, which is the
witness; a passing scan builds none.  The scans trust their rows;
vectors_neighbour, the one entry taking raw rows, coerces them.  Before
either scan forms a product, algebra._vanish_by_support asks whether the
product table deletes every product of two monomials of the factors'
supports; when it does, every equation vanishes and the scan forms none,
and otherwise it runs in full.  A row sum builds each column once, from
the kernel's terms.  All three skip the products with a zero factor, which
are zero: they are never formed, and a zero value is never a defect, so
every verdict and witness is the one the full scan would give.
The product form, the square test and in_dtilde stay off
_difference_products, and the first two off the kernel: they are second
implementations, kept so that the verification suite can compare answers.

Decision functions return a CheckResult, which is truthy on success and
carries an explicit nonzero witness on failure: each yields its own
equations, lazily, to _first_defect, the one scan that reports the first
nonzero value and the one builder of results: a pass is shared by every
scan with the same notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Sequence

from .arith import RingSpec
from .errors import (
    ArityMismatch,
    CoefficientsNotAffine,
    DomainMismatch,
    InvalidArgument,
    NotInDtilde,
    NotInKernel,
    NotNeighbours,
    ReexpansionFailed,
    ShapeMismatch,
    UninterpretableValue,
    require_integer,
)
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    FpAlgebra,
    UniversalSimplex,
    _codiagonal,
    _difference_products,
    _free_generators,
    _universal_quotient,
    _vanish_by_support,
    adjoin_variables,
    compose,
    free_algebra,
    tensor,
    universal_simplex,
)
from .ideal import DEFAULT_DEGREE_CAP
from .poly import DEFAULT_ORDER, MonomialOrder, Polynomial, VarSet


@dataclass(frozen=True)
class Witness:
    """A concrete nonzero element violating an equation, with its location."""

    indices: tuple[int, ...]
    value: AlgebraElement
    label: str = ""

    def __str__(self) -> str:
        where = ", ".join(str(i) for i in self.indices)
        prefix = f"{self.label} " if self.label else ""
        return f"{prefix}at ({where}): {self.value}"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a decision procedure; truthy iff the property holds.

    Results are immutable and built only by _first_defect, which returns one
    shared pass per notes tuple: a passing result equals, but need not be, a
    fresh CheckResult(True, None, notes).
    """

    ok: bool
    witness: Witness | None = None
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "true"
        return f"false ({self.witness})"


# The pass results _first_defect has handed out, by notes tuple.  The notes
# are a few fixed sentences, one naming a ring in which 2 is not invertible,
# so there are only a few; the dict is cleared should it ever fill up.
_PASSES: dict[tuple[str, ...], CheckResult] = {}


def _first_defect(equations, notes: tuple[str, ...] = ()) -> CheckResult:
    """Fail with the first nonzero value among (indices, label, value) triples.

    The triples are read lazily, so no equation after the first nonzero one
    is formed.  Over elements the two enumerations of equations yield only
    the values that do not vanish, so for them the first triple read is the
    witness; the product form and the square test yield every value.  When
    every value is zero, or none is yielded, the result passes; either way
    it carries the notes.  This is the one builder of CheckResults: each
    failure is built with its witness, and a pass is the one immutable pass
    result with these notes, built on first use and shared after.
    """
    for indices, label, value in equations:
        if not value.is_zero():
            return CheckResult(False, Witness(indices, value, label), notes)
    passed = _PASSES.get(notes)
    if passed is None:
        if len(_PASSES) >= 64:
            _PASSES.clear()
        passed = _PASSES[notes] = CheckResult(True, None, notes)
    return passed


def _require_parallel(f: AlgebraMap, g: AlgebraMap) -> None:
    if f.domain != g.domain:
        raise DomainMismatch(f"domains differ: {f.domain!r} vs {g.domain!r}")
    if f.codomain != g.codomain:
        raise DomainMismatch(f"codomains differ: {f.codomain!r} vs {g.codomain!r}")


def is_neighbour(f: AlgebraMap, g: AlgebraMap) -> CheckResult:
    """Decide the neighbour relation on generator images.

    f ~ g iff every product of two differences (g - f on a generator)
    vanishes in the codomain.  The relation is reflexive and symmetric but
    not transitive.
    """
    _require_parallel(f, g)
    return vectors_neighbour(f.images, g.images)


def is_neighbour_product_form(f: AlgebraMap, g: AlgebraMap) -> CheckResult:
    """The subtraction-free form of the neighbour condition.

    Checks f(a)g(b) + g(a)f(b) = f(ab) + g(ab) on all generator pairs; this
    is equivalent to is_neighbour over every ring, and meaningful even when
    the ring has no subtraction-free presentation issues at all (it is kept
    as an independent implementation for cross-checking).
    """
    _require_parallel(f, g)
    gens = f.domain.generators()

    def defects():
        for i, a in enumerate(gens):
            for j in range(i, len(gens)):
                ab = a * gens[j]
                lhs = f.images[i] * g.images[j] + g.images[i] * f.images[j]
                yield (i + 1, j + 1), "product form defect", lhs - (f.apply(ab) + g.apply(ab))

    return _first_defect(defects())


def is_square_zero_pair(f: AlgebraMap, g: AlgebraMap) -> CheckResult:
    """Test squares of generator differences and of their two-term sums.

    When 2 is invertible this is equivalent to the neighbour relation (a
    polarization argument turns the vanishing of all squares into the
    vanishing of all products).  When 2 is not invertible it is a strictly
    weaker, bounded test and the result carries a note saying so.
    """
    _require_parallel(f, g)
    deltas = [gi - fi for fi, gi in zip(f.images, g.images)]
    ring = f.codomain.ring
    if ring.two_invertible:
        notes = ("equivalent to the neighbour relation since 2 is invertible",)
    else:
        notes = (
            "bounded square test only: 2 is not invertible over "
            f"{ring}, so vanishing squares need not imply the neighbour relation",
        )

    def squares():
        for i, d in enumerate(deltas):
            yield (i + 1,), "difference square", d * d
        for i in range(len(deltas)):
            for j in range(i + 1, len(deltas)):
                yield (i + 1, j + 1), "square of difference sum", (deltas[i] + deltas[j]) ** 2

    return _first_defect(squares(), notes)


def vectors_neighbour(a: Sequence[AlgebraElement], b: Sequence[AlgebraElement]) -> CheckResult:
    """Neighbour test for coordinate vectors (rows of a would-be simplex).

    The one scan entry taking raw rows: they are read through the _elements
    of the algebra of the first element in a, then b, so a number or
    polynomial is coerced and another algebra's element raises
    ParentMismatch; entries with no element raise UninterpretableValue."""
    if len(a) != len(b):
        raise ShapeMismatch(f"vector lengths {len(a)} vs {len(b)}")
    if a:
        algebra = next((x.parent for x in (*a, *b) if isinstance(x, AlgebraElement)), None)
        if algebra is None:
            raise UninterpretableValue("no entry of the rows is an algebra's element")
        a, b = algebra._elements(a), algebra._elements(b)
    return _first_defect(
        ((i + 1, j + 1), "difference product", product)
        for (_, _, i, j), product in _difference_products((a, b))
    )


class SimplexMatrix:
    """A rectangular matrix of elements of one algebra.

    Rows play the role of coordinate vectors of maps into the algebra; the
    same container serves both (p+1)-row simplices and p-row zero-anchored
    difference matrices.  The constructor checks the shape and reads each
    entry through FpAlgebra._elements: the codomain's own elements as they
    are, anything else through codomain.element.  Matrices built from the
    entries of a checked one (transpose, prepend_zero_row, extend_matrix)
    skip those checks through _raw.
    """

    __slots__ = ("codomain", "entries")

    def __init__(self, codomain: FpAlgebra, rows: Sequence[Sequence]):
        if not rows:
            raise ShapeMismatch("a matrix needs at least one row")
        entries = tuple(map(codomain._elements, rows))
        width = len(entries[0])
        if width == 0:
            raise ShapeMismatch("a matrix needs at least one column")
        if any(len(row) != width for row in entries):
            raise ShapeMismatch("rows have unequal lengths")
        self.codomain = codomain
        self.entries = entries

    @classmethod
    def _raw(cls, codomain: FpAlgebra, entries: tuple) -> "SimplexMatrix":
        # trusted: entries already a nonempty tuple of nonempty, equally long
        # tuples of elements of codomain
        matrix = object.__new__(cls)
        matrix.codomain = codomain
        matrix.entries = entries
        return matrix

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[AlgebraElement, ...]:
        return self.entries[i]

    def entry(self, i: int, j: int) -> AlgebraElement:
        return self.entries[i][j]

    def transpose(self) -> "SimplexMatrix":
        """Matrix transpose.

        Membership in the difference variety is preserved when 2 is a
        non-zero-divisor in the codomain, not in general.  The cross-product
        equations with i < j and the squares a_ri^2 map onto themselves, but
        a cross-product equation with i = j only says 2*a_ri*a_si = 0, while
        the transpose needs the column product a_ri*a_si = 0 itself.  Over
        Z/2[e1,e2]/(e1^2,e2^2) the matrix [[e1+e2, e1*e2+e1], [0, 0]] is not
        in the variety (its row product is e1*e2), but its transpose is.
        """
        return SimplexMatrix._raw(self.codomain, tuple(zip(*self.entries)))

    def prepend_zero_row(self) -> "SimplexMatrix":
        zero_row = tuple(self.codomain.zero() for _ in range(self.cols))
        return SimplexMatrix._raw(self.codomain, (zero_row,) + self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexMatrix):
            return NotImplemented
        return self.codomain == other.codomain and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.codomain, self.entries))

    def __iter__(self) -> Iterator[tuple[AlgebraElement, ...]]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "\n".join(", ".join(str(x) for x in row) for row in self.entries)

    def __repr__(self) -> str:
        return f"SimplexMatrix({self.rows}x{self.cols} over {self.codomain!r})"


def matrix_of_maps(maps: Sequence[AlgebraMap]) -> SimplexMatrix:
    """Stack the generator images of parallel maps as matrix rows."""
    if not maps:
        raise ShapeMismatch("need at least one map")
    for f in maps[1:]:
        _require_parallel(maps[0], f)
    return SimplexMatrix(maps[0].codomain, [list(f.images) for f in maps])


def maps_of_matrix(
    matrix: SimplexMatrix, domain: FpAlgebra | None = None
) -> list[AlgebraMap]:
    """Read matrix rows back as maps from a free domain (default k[X1..Xn])."""
    if domain is None:
        domain = free_algebra(
            matrix.codomain.ring, [f"X{j + 1}" for j in range(matrix.cols)]
        )
    elif len(domain.varset) != matrix.cols:
        raise ShapeMismatch(
            f"domain has {len(domain.varset)} generators, matrix has {matrix.cols} columns"
        )
    return [AlgebraMap(domain, matrix.codomain, row) for row in matrix.entries]


def is_simplex(matrix: SimplexMatrix) -> CheckResult:
    """Whether all rows are pairwise neighbours as coordinate vectors.

    The witness on failure names rows (r, s) and columns (i, j), 1-based.
    """
    return _first_defect(
        ((r + 1, s + 1, i + 1, j + 1), "rows r,s columns i,j", product)
        for (r, s, i, j), product in _difference_products(matrix.entries)
    )


# Kept independent of _difference_products on purpose: the suite compares
# it with is_simplex on the matrix with a zero row prepended.
def in_dtilde(matrix: SimplexMatrix) -> CheckResult:
    """Membership in the zero-anchored difference variety.

    Checks the cross-product equations (for rows r < s and columns i <= j:
    a_ri * a_sj + a_si * a_rj = 0) and the row-product equations (within a
    row: a_ri * a_rj = 0).  Equivalent to: prepending a zero row yields a
    simplex.  When 2 is invertible the row products already follow from the
    cross products; they are checked regardless and a note records the
    implication.
    """
    notes: tuple[str, ...] = ()
    if matrix.codomain.ring.two_invertible:
        notes = (
            "row-product equations are implied by the cross-product equations "
            "here (2 is invertible); both families checked anyway",
        )
    return _first_defect(_dtilde_equations(matrix.entries), notes)


def _dtilde_equations(rows: Sequence[Sequence]):
    """Yield (indices, label, value) for the equations of the difference
    variety, with 1-based indices: the cross products
    a_ri * a_sj + a_si * a_rj for rows r < s and columns i <= j, then the row
    products a_ri * a_rj for columns i <= j, in that nesting order; a cross
    product with i = j is a_ri * a_si + a_si * a_ri, both products formed,
    as the relation is written.  The rows are trusted, as by
    algebra._difference_products: each equation's factor pairs go to the
    algebra's _sum_of_products, and only an equation that does not vanish
    is yielded, as an element.  Only the products of two nonzero entries
    are formed, and an equation whose products all have a zero factor is
    zero, so it is not yielded.  When algebra._vanish_by_support finds that
    every equation vanishes, none is formed.
    """
    if not any(rows) or _vanish_by_support(rows):
        return
    algebra = rows[0][0].parent
    kernel, build = algebra._sum_of_products, algebra._element
    rows = [[x.rep._terms for x in row] for row in rows]
    cross, row = "cross products, rows r,s columns i,j", "row products, row r columns i,j"
    for r, x in enumerate(rows):
        for s in range(r + 1, len(rows)):
            y = rows[s]
            for i, (a, b) in enumerate(zip(x, y)):
                for j in range(i, len(x)):
                    c, d = y[j], x[j]
                    if a and c:
                        pairs = ((a, c), (b, d)) if b and d else ((a, c),)
                    elif b and d:
                        pairs = ((b, d),)
                    else:
                        continue
                    terms = kernel(pairs)
                    if terms:
                        yield (r + 1, s + 1, i + 1, j + 1), cross, build(terms)
    for r, x in enumerate(rows):
        for i, u in enumerate(x):
            if u:
                for j in range(i, len(x)):
                    if x[j]:
                        terms = kernel(((u, x[j]),))
                        if terms:
                            yield (r + 1, i + 1, j + 1), row, build(terms)


# the exact number types CoefficientVector.affine reads in ring arithmetic;
# a bool, an int or Fraction subclass, or anything else takes element()
_EXACT_NUMBERS = frozenset((int, Fraction))


class CoefficientVector:
    """A tuple of weights in an algebra, used for (affine) combinations.

    The private _affine is True when the weights sum to 1 by construction:
    False unless affine() built the vector.
    """

    __slots__ = ("codomain", "entries", "_affine")

    def __init__(self, codomain: FpAlgebra, entries: Sequence):
        self.codomain = codomain
        self.entries = codomain._elements(entries)
        if not self.entries:
            raise ShapeMismatch("need at least one coefficient")
        self._affine = False

    @classmethod
    def affine(cls, codomain: FpAlgebra, tail: Sequence) -> "CoefficientVector":
        """The weights (1 - sum(tail), *tail), affine by construction.

        A tail of exact ints and Fractions (no bool, no subclass) is read in
        ring arithmetic: each value is normalised once, with normalize()'s
        errors, the head weight is ring.sub(1, Σ) of their plain sum Σ, and
        each weight is the unit's normal form times its value, through
        FpAlgebra._number, the helper element() uses for a number; the
        entries are the ones element() and element arithmetic would give.
        Any other tail is read once through FpAlgebra._elements, and the
        head is the unit minus the elements' sum.  Either way no second
        pass is made over the weights."""
        tail = tuple(tail)
        if set(map(type, tail)) <= _EXACT_NUMBERS:
            ring = codomain.ring
            values = list(map(ring.normalize, tail))
            weights = map(codomain._number, (ring.sub(ring.one(), sum(values)), *values))
            entries = tuple(map(AlgebraElement, repeat(codomain), weights))
        else:
            tail = codomain._elements(tail)
            entries = (codomain.one() - sum(tail, codomain.zero()), *tail)
        vector = object.__new__(cls)
        vector.codomain = codomain
        vector.entries = entries
        vector._affine = True
        return vector

    def total(self) -> AlgebraElement:
        return sum(self.entries, self.codomain.zero())

    def is_affine(self) -> bool:
        return self.total() == self.codomain.one()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[AlgebraElement]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> AlgebraElement:
        return self.entries[i]

    def __str__(self) -> str:
        return ", ".join(str(x) for x in self.entries)


def _weighted_row_sum(
    codomain: FpAlgebra,
    weights: Sequence[AlgebraElement],
    rows: Sequence[Sequence[AlgebraElement]],
) -> tuple[AlgebraElement, ...]:
    """The row sum of t_r * row_r, column by column, in the codomain: each
    column is one _sum_of_products, built as one element.  A product with a
    zero factor is zero, so it is not formed, and a column with no other
    product sums to zero."""
    kernel, ts = codomain._sum_of_products, [t.rep._terms for t in weights]
    columns = zip(*([x.rep._terms for x in row] for row in rows))
    return tuple(
        codomain._element(kernel([(t, x) for t, x in zip(ts, column) if t and x]))
        for column in columns
    )


def affine_combination(
    maps: Sequence[AlgebraMap], coefficients
) -> AlgebraMap:
    """Sum of t_r * f_r for mutually neighbouring maps and weights summing to 1.

    The result is again an algebra map (not just a module map); its
    construction validates the certificate, and the preconditions are
    checked explicitly first: NotNeighbours carries a witness pair, and
    CoefficientsNotAffine reports a weight sum different from 1.
    """
    return affine_combinations(maps, (coefficients,))[0]


def affine_combinations(maps: Sequence[AlgebraMap], weight_vectors) -> list[AlgebraMap]:
    """affine_combination of the same maps for each weight vector, in order.

    The maps are checked to be mutual neighbours once, not once per vector.
    The errors and their precedence are affine_combination's: parallelism,
    then each vector's coercion and arity, then the neighbour scan, then each
    vector's weight sum.
    """
    if not maps:
        raise ShapeMismatch("need at least one map")
    for f in maps[1:]:
        _require_parallel(maps[0], f)
    domain, codomain = maps[0].domain, maps[0].codomain
    sums = _affine_row_sums(codomain, [f.images for f in maps], weight_vectors, "maps")
    return [AlgebraMap(domain, codomain, images) for images in sums]


def affine_combination_rows(matrix: SimplexMatrix, coefficients) -> tuple[AlgebraElement, ...]:
    """The same combination at the level of coordinate vectors.

    Rows must be pairwise neighbouring vectors and the weights must sum
    to 1; returns the combined row.
    """
    return _affine_row_sums(matrix.codomain, matrix.entries, (coefficients,), "rows")[0]


def _affine_row_sums(
    codomain: FpAlgebra, rows: Sequence[Sequence[AlgebraElement]], weight_vectors, noun: str
) -> list[tuple[AlgebraElement, ...]]:
    """The checks and the row sums of the affine combinations, one per weight
    vector; noun names the rows in messages.  Rows, not a SimplexMatrix:
    maps out of an algebra with no generators have empty image rows, which
    a matrix does not allow.
    """
    vectors = []
    for coefficients in weight_vectors:
        if not isinstance(coefficients, CoefficientVector):
            coefficients = CoefficientVector(codomain, coefficients)
        elif coefficients.codomain != codomain:
            raise DomainMismatch("coefficients live in a different algebra")
        if len(coefficients) != len(rows):
            raise ArityMismatch(f"{len(coefficients)} weights for {len(rows)} {noun}")
        vectors.append(coefficients)
    defect = _first_defect((at, "", d) for at, d in _difference_products(rows))
    if not defect:  # the failing pair's own scan numbers its witness in the pair
        r, s = defect.witness.indices[:2]
        pair = vectors_neighbour(rows[r], rows[s]).witness
        raise NotNeighbours(f"{noun} {r + 1} and {s + 1} are not neighbours: {pair}")
    for coefficients in vectors:
        if not coefficients._affine and not coefficients.is_affine():
            raise CoefficientsNotAffine(f"weights sum to {coefficients.total()}, not 1")
    return [_weighted_row_sum(codomain, coefficients, rows) for coefficients in vectors]


# ---------------------------------------------------------------------------
# difference decomposition and kernel rewriting


def pair_varset(varset: VarSet) -> VarSet:
    """Two renamed copies side by side: (v_0 for all v, then v_1 for all v)."""
    return VarSet(varset.suffixed("_0").names + varset.suffixed("_1").names)


def decompose_difference(p: Polynomial) -> tuple[Polynomial, ...]:
    """Write P(copy 1) - P(copy 0) as sum of Q_i * (v_i_1 - v_i_0).

    Works over any coefficient ring.  The Q_i live over pair_varset(P's
    variables), with Y the copy-0 and Z the copy-1 variables, and are given
    in closed form.  Changing the variables of the term c*X^a one at a time,
    X_i from Y_i to Z_i with the earlier ones at Y and the later ones at Z,
    and telescoping

        Z_i^s - Y_i^s = (Z_i - Y_i) * (Z_i^(s-1) + Z_i^(s-2)*Y_i + ... + Y_i^(s-1)),

    gives Q_i its a_i terms c*Y^(a_<i)*Y_i^(a_i-1-u)*Z_i^u*Z^(a_>i), u < a_i.
    Their exponents determine (a, u), so no two terms of Q_i collide.  The
    expansion is re-checked before returning, so the output is
    self-verifying.
    """
    n = len(p.varset)
    pvs = pair_varset(p.varset)
    ring = p.ring
    cofactors: list[dict] = [{} for _ in range(n)]
    gap = (0,) * (n - 1)
    for a, c in p._terms.items():
        for i, s in enumerate(a):
            for u in range(s):
                cofactors[i][a[:i] + (s - 1 - u,) + gap + (u,) + a[i + 1 :]] = c
    qs = tuple(Polynomial._raw(pvs, ring, terms) for terms in cofactors)

    copy0 = [Polynomial.variable(pvs, ring, i) for i in range(n)]
    copy1 = [Polynomial.variable(pvs, ring, n + i) for i in range(n)]
    expected = p.substitute(copy1) - p.substitute(copy0)
    actual = sum((q * (b - a) for q, a, b in zip(qs, copy0, copy1)), Polynomial.zero(pvs, ring))
    if actual != expected:
        raise ReexpansionFailed(
            f"difference decomposition of {p} re-expands to {actual}, not {expected}"
        )
    return qs


def rewrite_kernel_element(
    base: FpAlgebra, element
) -> list[tuple[AlgebraElement, AlgebraElement]]:
    """Express a multiplication-kernel element via the standard generators.

    Input: an element t of the two-fold tensor power of `base` with
    multiplication image zero (otherwise NotInKernel, carrying the image).
    Output: pairs (c, k) with k of the form (copy1 - copy0 of a monomial b)
    and c supported on copy 0, such that t equals the sum of c * k.  The
    construction splits every term a (x) b into a*b (x) 1 plus
    (a (x) 1) * (1 (x) b - b (x) 1) and groups by b; the reconstruction is
    re-checked before returning.
    """
    tensor_algebra, include0, include1 = tensor(base, base)
    t = tensor_algebra.element(element)
    image = _codiagonal(base, tensor_algebra).apply(t)
    if not image.is_zero():
        raise NotInKernel(f"multiplication image is {image}, not zero")
    ring = base.ring
    n = len(base.varset)
    groups: dict[tuple[int, ...], dict] = {}
    for exps, value in t.rep._terms.items():
        left, right = exps[:n], exps[n:]
        if all(e == 0 for e in right):
            continue  # pure copy-0 terms are absorbed by the a*b (x) 1 parts
        groups.setdefault(right, {})[left + (0,) * n] = value
    pairs: list[tuple[AlgebraElement, AlgebraElement]] = []
    order_key = DEFAULT_ORDER.key
    for right in sorted(groups, key=order_key, reverse=True):
        coefficient = AlgebraElement(
            tensor_algebra, Polynomial._raw(tensor_algebra.varset, ring, groups[right])
        )
        monomial = Polynomial._raw(base.varset, ring, {right: ring.one()})
        b = base.element(monomial)
        generator = include1.apply(b) - include0.apply(b)
        pairs.append((coefficient, generator))
    total = sum((c * k for c, k in pairs), tensor_algebra.zero())
    if total != t:
        raise ReexpansionFailed(f"kernel rewriting of {t} re-expands to {total}")
    return pairs


# ---------------------------------------------------------------------------
# generic affine combinations


def generic_coefficients(
    simplex: UniversalSimplex, prefix: str = "t"
) -> tuple[FpAlgebra, AlgebraMap, CoefficientVector, tuple[AlgebraMap, ...]]:
    """Adjoin formal weights to a universal simplex.

    Adds fresh variables t (p = 1) or t1..tp, sets the zeroth weight to
    1 - (t1 + ... + tp) so the tuple is affine by construction, and lifts
    the simplex maps along the inclusion.  Returns (extended algebra,
    inclusion, weights, lifted maps).
    """
    return adjoin_weights(simplex.algebra, simplex.maps, prefix)


def adjoin_weights(
    algebra: FpAlgebra, maps: Sequence[AlgebraMap], prefix: str
) -> tuple[FpAlgebra, AlgebraMap, CoefficientVector, tuple[AlgebraMap, ...]]:
    """Adjoin formal affine weights for p + 1 maps into algebra, as
    generic_coefficients does for the simplex maps."""
    p = len(maps) - 1
    names = (prefix,) if p == 1 else tuple(f"{prefix}{r}" for r in range(1, p + 1))
    extended, inclusion = adjoin_variables(algebra, names)
    offset = len(algebra.varset)
    weights = CoefficientVector.affine(extended, extended.generators()[offset:])
    lifted = tuple(compose(inclusion, f) for f in maps)
    return extended, inclusion, weights, lifted


def canonical_map(
    base: FpAlgebra,
    p: int = 1,
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> AlgebraMap:
    """The generic affine combination of the universal simplex maps.

    For the universal p-simplex on `base`, adjoin formal weights and form
    the affine combination with weight 1 - sum on the zeroth map.  For a
    free base at p = 1 this is the map  g  ->  g + t * d_g.  Well-definedness
    is re-validated during construction.
    """
    simplex = universal_simplex(base, p, order=order, degree_cap=degree_cap)
    _, _, weights, lifted = generic_coefficients(simplex)
    return affine_combination(lifted, weights)


# ---------------------------------------------------------------------------
# zero-anchored difference matrices


def extend_matrix(matrix: SimplexMatrix, coefficients) -> SimplexMatrix:
    """Append the weighted row sum to a difference matrix.

    The input must satisfy in_dtilde (otherwise NotInDtilde, carrying the
    witness); the weights are arbitrary elements, one per existing row,
    read through FpAlgebra._elements, so the codomain's own elements are
    taken as they are.  The extended matrix satisfies in_dtilde again,
    which is what makes the difference variety stable under taking affine
    combinations of the anchored points.  Its entries are the input's,
    already checked, and the row the kernel built in the codomain, so it is
    assembled by SimplexMatrix._raw; it equals SimplexMatrix(codomain, rows)
    on the same rows.
    """
    verdict = in_dtilde(matrix)
    if not verdict:
        raise NotInDtilde(str(verdict.witness))
    codomain = matrix.codomain
    weights = codomain._elements(coefficients)
    if len(weights) != matrix.rows:
        raise ArityMismatch(f"{len(weights)} weights for {matrix.rows} rows")
    new_row = _weighted_row_sum(codomain, weights, matrix.entries)
    return SimplexMatrix._raw(codomain, matrix.entries + (new_row,))


def universal_dtilde(
    p: int,
    n: int,
    ring: RingSpec,
    order: MonomialOrder = DEFAULT_ORDER,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[FpAlgebra, SimplexMatrix]:
    """The generic p x n difference matrix and its coordinate algebra.

    The algebra has one generator per matrix entry.  Its relations are the
    cross-product and row-product equations of the matrix of the free
    algebra's generators, as _dtilde_equations yields them, the enumeration
    in_dtilde scans: the equations that do not vanish, in order.  The
    returned matrix of generators therefore satisfies in_dtilde
    tautologically, and any difference matrix over any algebra arises from
    it by specialization.
    For p = 1 the equations are the row products, unit monomials, so the
    algebra works over any ring; for p >= 2 the cross products need a
    Groebner basis and field coefficients (NonFieldCoefficients otherwise).
    That basis is the equations made monic, in either order and every
    characteristic: they are quadrics and no two share a monomial, so they
    are their own row-echelon form and nothing is divided.  buchberger
    certifies them by the algebra's Hilbert series (README, "Hilbert
    series certify the universal bases"): no S-polynomial is formed and no
    intermediate exceeds degree 2.
    """
    require_integer("p", p)
    require_integer("n", n)
    if p < 1 or n < 1:
        raise InvalidArgument("matrix dimensions must be at least 1 x 1")
    compact = p <= 9 and n <= 9
    names = tuple(
        f"a{i + 1}{j + 1}" if compact else f"a{i + 1}_{j + 1}"
        for i in range(p)
        for j in range(n)
    )
    varset = VarSet(names)
    variables = _free_generators(FpAlgebra(ring, varset))
    generic = [variables[i * n : (i + 1) * n] for i in range(p)]
    relations = [value.rep for _, _, value in _dtilde_equations(generic)]
    algebra = _universal_quotient(ring, varset, relations, order, degree_cap, p, n, 0)
    # not algebra.generators(): its _gens slot would keep these normal
    # forms alive for as long as the algebra, also for a caller that keeps
    # the algebra and drops the matrix
    gens = [algebra.element(v) for v in Polynomial.variables(varset, ring)]
    rows = [gens[i * n : (i + 1) * n] for i in range(p)]
    return algebra, SimplexMatrix(algebra, rows)
