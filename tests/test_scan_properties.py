"""Property tests for the one witness scan of the decision procedures.

vectors_neighbour, is_simplex, in_dtilde, is_square_zero_pair and
is_neighbour_product_form each hand their equations to one scan.  Each must
agree with a reference that lists every equation of the procedure, in the
documented order, eagerly: the verdict holds exactly when every value
vanishes, a failure names the first nonzero one with its indices, label and
value, and the notes are those of the procedure.  The relations of
universal_dtilde are the difference-variety equations of the matrix of
variables, in the same order, and those of multi_diagonal_ideal and the
difference representation of universal_simplex are the products of
differences of its variables.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from nbhd.algebra import (  # noqa: E402
    AlgebraMap,
    free_algebra,
    multi_diagonal_ideal,
    tensor_power,
    universal_simplex,
)
from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.neighbour import (  # noqa: E402
    CheckResult,
    SimplexMatrix,
    Witness,
    in_dtilde,
    is_neighbour_product_form,
    is_simplex,
    is_square_zero_pair,
    universal_dtilde,
    vectors_neighbour,
)
from nbhd.poly import Polynomial  # noqa: E402
from nbhd.verify import WEIL_PATTERNS, random_weil_algebra, squares_only  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/3", "Z/4"))
Z2 = RingSpec.modular(2)
DTILDE_NOTE = (
    "row-product equations are implied by the cross-product equations "
    "here (2 is invertible); both families checked anyway"
)


def expected(equations, notes=()):
    """The result the documented order prescribes for a list of equations."""
    for indices, label, value in equations:
        if not value.is_zero():
            return CheckResult(False, Witness(indices, value, label), notes)
    return CheckResult(True, None, notes)


def square_notes(ring):
    if ring.two_invertible:
        return ("equivalent to the neighbour relation since 2 is invertible",)
    return (
        f"bounded square test only: 2 is not invertible over {ring}, "
        "so vanishing squares need not imply the neighbour relation",
    )


def difference_products(low, high):
    """(i, j, value) for columns i <= j, 0-based, of two rows."""
    d = [y - x for x, y in zip(low, high)]
    return [(i, j, d[i] * d[j]) for i in range(len(d)) for j in range(i, len(d))]


def dtilde_equations(rows):
    """The cross products for rows r < s, then the row products, columns i <= j."""
    p, n = len(rows), len(rows[0])
    columns = [(i, j) for i in range(n) for j in range(i, n)]
    cross, row = "cross products, rows r,s columns i,j", "row products, row r columns i,j"
    out = []
    for r in range(p):
        for s in range(r + 1, p):
            for i, j in columns:
                value = rows[r][i] * rows[s][j] + rows[s][i] * rows[r][j]
                out.append(((r + 1, s + 1, i + 1, j + 1), cross, value))
    for r in range(p):
        for i, j in columns:
            out.append(((r + 1, i + 1, j + 1), row, rows[r][i] * rows[r][j]))
    return out


@st.composite
def codomains(draw):
    ring = draw(st.sampled_from(RINGS))
    pattern = draw(st.sampled_from(WEIL_PATTERNS))
    return random_weil_algebra(draw(st.integers(0, 999)), ring, draw(st.integers(1, 3)), pattern)


def elements(codomain, single=False):
    """Sums of at most three terms of degree at most one in each variable,
    a constant now and then, so that both verdicts come up; with single,
    multiples of one generator, whose squares vanish more often."""
    ring, varset = codomain.ring, codomain.varset
    coefficient = st.integers(-3, 3)
    if single:
        return st.builds(
            lambda c, k: c * codomain.generator(k), coefficient, st.integers(0, len(varset) - 1)
        )
    term = st.tuples(st.tuples(*[st.integers(0, 1)] * len(varset)), coefficient)
    return st.lists(term, max_size=3).map(lambda ts: codomain.element(Polynomial(varset, ring, ts)))


@st.composite
def matrices(draw):
    codomain = draw(codomains())
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(elements(codomain)) for _ in range(n)] for _ in range(p)]
    return SimplexMatrix(codomain, rows)


@st.composite
def map_pairs(draw):
    codomain = draw(codomains())
    domain = free_algebra(codomain.ring, ("X1", "X2", "X3")[: draw(st.integers(1, 3))])
    size = len(domain.varset)
    images = [draw(elements(codomain)) for _ in range(size)]
    single = draw(st.booleans())  # lets a square of a sum of differences fail alone
    moves = [draw(elements(codomain, single)) for _ in range(size)]
    f = AlgebraMap(domain, codomain, images)
    g = AlgebraMap(domain, codomain, [a + d for a, d in zip(images, moves)])
    return f, g


@PROPERTY
@given(matrices())
def test_matrix_procedures_report_the_first_nonzero_equation(matrix):
    rows = matrix.entries
    pairs = [
        ((r + 1, s + 1, i + 1, j + 1), "rows r,s columns i,j", value)
        for r in range(len(rows))
        for s in range(r + 1, len(rows))
        for i, j, value in difference_products(rows[r], rows[s])
    ]
    assert is_simplex(matrix) == expected(pairs)
    notes = (DTILDE_NOTE,) if matrix.codomain.ring.two_invertible else ()
    assert in_dtilde(matrix) == expected(dtilde_equations(rows), notes)
    if len(rows) >= 2:
        first = difference_products(rows[0], rows[1])
        first = [((i + 1, j + 1), "difference product", value) for i, j, value in first]
        assert vectors_neighbour(rows[0], rows[1]) == expected(first)


def unit_displacements(ring):
    """0 and (e1, e2) into R[e1, e2]/(e1^2, e2^2): every difference squares to
    zero, and the square of their sum is 2*e1*e2."""
    codomain = squares_only(ring, 2)
    domain = free_algebra(ring, ("X1", "X2"))
    return AlgebraMap(domain, codomain, [0, 0]), AlgebraMap(domain, codomain, ["e1", "e2"])


@PROPERTY
@given(map_pairs())
@example(unit_displacements(QQ))
@example(unit_displacements(Z2))
def test_map_procedures_report_the_first_nonzero_equation(pair):
    f, g = pair
    gens = f.domain.generators()
    size = len(gens)
    defects = []
    for i in range(size):
        for j in range(i, size):
            ab = gens[i] * gens[j]
            lhs = f.images[i] * g.images[j] + g.images[i] * f.images[j]
            defects.append(((i + 1, j + 1), "product form defect", lhs - f.apply(ab) - g.apply(ab)))
    assert is_neighbour_product_form(f, g) == expected(defects)
    d = [y - x for x, y in zip(f.images, g.images)]
    squares = [((i + 1,), "difference square", d[i] * d[i]) for i in range(size)]
    squares += [
        ((i + 1, j + 1), "square of difference sum", (d[i] + d[j]) * (d[i] + d[j]))
        for i in range(size)
        for j in range(i + 1, size)
    ]
    assert is_square_zero_pair(f, g) == expected(squares, square_notes(f.codomain.ring))


@pytest.mark.parametrize("ring", [QQ, Z2], ids=str)
@pytest.mark.parametrize("p, n", [(p, n) for p in (1, 2, 3) for n in (1, 2, 3)])
def test_universal_dtilde_relations_are_the_equations_in_order(ring, p, n):
    algebra, _ = universal_dtilde(p, n, ring)
    variables = Polynomial.variables(algebra.varset, ring)
    rows = [variables[r * n : (r + 1) * n] for r in range(p)]
    # the Z/2 cross products with i = j are 2*a_ri*a_si = 0, which the
    # presentation drops with the other zero relations
    reference = [value for _, _, value in dtilde_equations(rows) if not value.is_zero()]
    assert list(algebra.relations) == reference


def in_dict_order(polys):
    """Each polynomial's terms in dict order, the coefficients' types included."""
    return [[(e, type(c), c) for e, c in q._terms.items()] for q in polys]


def nonzero_difference_products(rows):
    """The products of two differences for rows r < s, columns i <= j, formed
    with Polynomial - and *, less the zero ones."""
    return [
        value
        for r, low in enumerate(rows)
        for high in rows[r + 1 :]
        for _, _, value in difference_products(low, high)
        if not value.is_zero()
    ]


@PROPERTY
@given(
    st.sampled_from(RINGS),
    st.sampled_from(("free",) + WEIL_PATTERNS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 999),
)
def test_the_simplex_relations_are_the_products_of_differences(ring, pattern, p, n, seed):
    if pattern == "free":
        base = free_algebra(ring, [f"x{i + 1}" for i in range(n)])
    else:
        base = random_weil_algebra(seed, ring, n, pattern)
    # the p + 1 copies of the variables, then the copies' relations
    ideal = multi_diagonal_ideal(base, p)
    variables = Polynomial.variables(ideal.varset, ring)
    copies = [variables[r * n : (r + 1) * n] for r in range(p + 1)]
    reference = nonzero_difference_products(copies) + list(tensor_power(base, p + 1)[0].relations)
    assert in_dict_order(ideal.generators) == in_dict_order(reference)
    # the zero row and the p blocks of displacements; at p >= 2 the
    # quotient needs a Groebner basis, so a field
    if pattern == "free" and (p == 1 or ring.is_field):
        algebra = universal_simplex(base, p, "difference").algebra
        variables = Polynomial.variables(algebra.varset, ring)
        zero = Polynomial.zero(algebra.varset, ring)
        anchored = [[zero] * n, *(variables[r * n : (r + 1) * n] for r in range(1, p + 1))]
        assert in_dict_order(algebra.relations) == in_dict_order(nonzero_difference_products(anchored))
