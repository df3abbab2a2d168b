"""The support test never changes a verdict or a witness.

Before the difference scan and the difference-variety scan form any
product, algebra._vanish_by_support asks whether the product table deletes
every product of two monomials of one support that holds every factor; when
it does, the scan yields nothing.  Each procedure that scans those
equations must answer exactly as it does with the test declining every
time: the same CheckResult (verdict, witness indices, label, value and
notes, and its text), the same value, or the same error.
"""

from contextlib import contextmanager

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nbhd.algebra  # noqa: E402
import nbhd.neighbour  # noqa: E402
from nbhd.algebra import AlgebraMap, FpAlgebra, _vanish_by_support, free_algebra  # noqa: E402
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.errors import NbhdError  # noqa: E402
from nbhd.neighbour import (  # noqa: E402
    CoefficientVector,
    SimplexMatrix,
    affine_combinations,
    extend_matrix,
    in_dtilde,
    is_neighbour,
    is_simplex,
    vectors_neighbour,
)
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra, square_zero_full, squares_only  # noqa: E402

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4"))
FIELDS = tuple(ring for ring in RINGS if ring.is_field)
KINDS = ("square-zero-full", *WEIL_PATTERNS, "free", "groebner")


def square_zero_by_groebner(ring, n):
    """square_zero_full's quotient with one more relation, e1^2 + e1^3: it
    lies in the ideal but is not a monomial, so the same algebra takes the
    Groebner engine."""
    full = square_zero_full(ring, n)
    return FpAlgebra(ring, full.varset, [*full.relations, "e1^2 + e1^3"])


@st.composite
def codomains(draw):
    """A kind of algebra and an algebra of that kind on e1..en."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 3))
    if kind == "groebner":
        return kind, square_zero_by_groebner(draw(st.sampled_from(FIELDS)), n)
    ring = draw(st.sampled_from(RINGS))
    if kind == "square-zero-full":
        return kind, square_zero_full(ring, n)
    if kind == "free":
        return kind, free_algebra(ring, [f"e{i + 1}" for i in range(n)])
    return kind, random_weil_algebra(draw(st.integers(0, 999)), ring, n, kind)


def elements(codomain, constant_free=False):
    """Sums of at most three terms of degree at most one in each variable."""
    ring, varset = codomain.ring, codomain.varset
    exponents = st.tuples(*[st.integers(0, 1)] * len(varset))
    if constant_free:
        exponents = exponents.filter(any)
    term = st.tuples(exponents, st.integers(-3, 3))
    return st.lists(term, max_size=3).map(lambda ts: codomain.element(Polynomial(varset, ring, ts)))


def small(kind, codomain):
    """Elements any two of which multiply to zero: constant-free ones where
    every product of two generators is a relation, zero in a free algebra,
    and otherwise multiples of e1, whose square is a relation in every Weil
    pattern."""
    if kind in ("square-zero-full", "groebner"):
        return elements(codomain, constant_free=True)
    if kind == "free":
        return st.just(codomain.zero())
    return st.integers(-3, 3).map(lambda c: c * codomain.generator(0))


@st.composite
def near(draw, codomain, rows):
    """rows as they are, or with one entry moved off: plus a constant, a
    monomial the relations keep, or an arbitrary element."""
    rows = [list(row) for row in rows]
    how = draw(st.sampled_from(("member", "constant", "monomial", "monomial", "any")))
    if how == "member":
        return rows
    r, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    if how == "constant":
        shift = codomain.element(draw(st.integers(1, 3)))
    elif how == "monomial":
        shift = codomain.generator(draw(st.integers(0, len(codomain.varset) - 1)))
        if draw(st.booleans()):
            shift = shift * codomain.generator(draw(st.integers(0, len(codomain.varset) - 1)))
    else:
        shift = draw(elements(codomain))
    rows[r][j] = rows[r][j] + shift
    return rows


@st.composite
def cases(draw):
    """A codomain, p + 1 rows of a would-be simplex (a base row moved by
    small elements) and p rows of a would-be difference matrix (small
    elements), each perhaps moved off."""
    kind, codomain = draw(codomains())
    n, p = len(codomain.varset), draw(st.integers(1, 3))
    base = [draw(elements(codomain)) for _ in range(n)]
    simplex = [base] + [[b + draw(small(kind, codomain)) for b in base] for _ in range(p)]
    dtilde = [[draw(small(kind, codomain)) for _ in range(n)] for _ in range(p)]
    return codomain, draw(near(codomain, simplex)), draw(near(codomain, dtilde))


@contextmanager
def declining():
    """The scans with the support test declining every time."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (nbhd.algebra, nbhd.neighbour):
            patch.setattr(module, "_vanish_by_support", lambda rows, differences=False: False)
        yield


def outcome(call):
    """call()'s value and its text, or the type and message of the NbhdError
    it raises."""
    try:
        value = call()
    except NbhdError as error:
        return type(error), str(error)
    return value, str(value)


def procedures(codomain, simplex, dtilde, weights, extension):
    domain = free_algebra(codomain.ring, [f"X{j + 1}" for j in range(len(simplex[0]))])
    maps = [AlgebraMap(domain, codomain, row) for row in simplex]

    def extended_in_dtilde():
        # extend_matrix's own precondition, then in_dtilde of the extension
        extended = extend_matrix(SimplexMatrix(codomain, dtilde), extension)
        return extended, in_dtilde(extended)

    return {
        "is_simplex": lambda: is_simplex(SimplexMatrix(codomain, simplex)),
        "is_neighbour": lambda: is_neighbour(maps[0], maps[-1]),
        "vectors_neighbour": lambda: vectors_neighbour(simplex[0], simplex[-1]),
        "in_dtilde": lambda: in_dtilde(SimplexMatrix(codomain, dtilde)),
        "extend_matrix, in_dtilde": extended_in_dtilde,
        "affine_combinations": lambda: affine_combinations(maps, [weights]),
        "difference products": lambda: list(nbhd.algebra._difference_products(simplex)),
        "difference-variety equations": lambda: list(nbhd.neighbour._dtilde_equations(dtilde)),
    }


@PROPERTY
@given(st.data())
def test_the_support_test_changes_no_verdict_and_no_witness(data):
    codomain, simplex, dtilde = data.draw(cases())
    tail = [data.draw(elements(codomain)) for _ in range(len(simplex) - 1)]
    weights = CoefficientVector.affine(codomain, tail)
    extension = [data.draw(elements(codomain)) for _ in dtilde]
    ours = {k: outcome(f) for k, f in procedures(codomain, simplex, dtilde, weights, extension).items()}
    with declining():
        theirs = {k: outcome(f) for k, f in procedures(codomain, simplex, dtilde, weights, extension).items()}
    assert ours == theirs


@PROPERTY
@given(st.data())
def test_foreign_entries_are_read_as_the_full_scans_read_them(data):
    # a number, a polynomial or an element of an equal but separate algebra
    # or of another algebra among the entries of the public scans: they
    # coerce or raise at the boundary, vectors_neighbour and SimplexMatrix,
    # and the scans then answer as they do with the support test declining
    codomain, simplex, dtilde = data.draw(cases())
    twin = FpAlgebra(codomain.ring, codomain.varset, codomain.relations)
    others = (
        lambda x: 1,
        lambda x: x.rep,
        lambda x: twin.element(x.rep),
        lambda x: square_zero_full(codomain.ring, len(codomain.varset) + 1).zero(),
    )
    foreign = data.draw(st.sampled_from(others))
    for rows in (simplex, dtilde):
        r, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows[0]) - 1))
        rows[r][j] = foreign(rows[r][j])
    scans = {
        "vectors_neighbour": lambda: vectors_neighbour(simplex[0], simplex[-1]),
        "is_simplex": lambda: is_simplex(SimplexMatrix(codomain, simplex)),
        "in_dtilde": lambda: in_dtilde(SimplexMatrix(codomain, dtilde)),
    }
    ours = {k: outcome(f) for k, f in scans.items()}
    with declining():
        theirs = {k: outcome(f) for k, f in scans.items()}
    assert ours == theirs


def test_the_support_test_decides_members_and_declines_the_rest():
    full = square_zero_full(QQ, 2)
    e1, e2 = full.generators()
    member = [[e1, 2 * e2], [e1 - e2, e1]]
    assert _vanish_by_support(member)
    # the differences of equal rows moved by square-zero elements
    base = [full.element("1 + e1"), full.element(3)]
    assert _vanish_by_support([base, [base[0] + e2, base[1] - e1]], differences=True)
    assert not _vanish_by_support([base, base], differences=False)
    # a constant survives any product table but the zero algebra's
    assert not _vanish_by_support([[e1, e2 + 1]])
    assert _vanish_by_support([[FpAlgebra(QQ, ("e1",), ["1"]).element("e1 + 1")]])
    # over Z/2 modulo the squares (e1 + e2)^2 vanishes, by cancellation only
    thin = squares_only(RingSpec.parse("Z/2"), 2)
    total = thin.element("e1 + e2")
    assert not (total * total) and not _vanish_by_support([[total, total]])
    # empty rows and the Groebner engine
    assert not _vanish_by_support([]) and not _vanish_by_support([[]])
    groebner = square_zero_by_groebner(QQ, 2)
    assert groebner.strategy == "groebner"
    assert not _vanish_by_support([[groebner.generator(0)]])
