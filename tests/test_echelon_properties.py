"""Property test for the row-echelon form of generators of one total degree.

_row_echelon finds that form by Gauss-Jordan elimination on the
coefficients.  The oracle finds it by division, with reduce_full: each
generator is divided by the monic remainders kept so far, and then each
kept remainder's tail (every term but its lead) by all of them.  Generators
that share no monomial are only made monic.  Both must give the same rows,
in the same order, each with its terms in the same dict order.
"""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.arith import QQ, RingSpec  # noqa: E402
from nbhd.ideal import DEFAULT_DEGREE_CAP, _row_echelon, reduce_full  # noqa: E402
from nbhd.poly import MonomialOrder, Polynomial, VarSet  # noqa: E402

XYZ = VarSet(("X", "Y", "Z"))
RINGS = (QQ, RingSpec.modular(2), RingSpec.modular(3), RingSpec.modular(5))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _monic(p, order):
    return p.scale(p.ring.invert(p.leading(order)[1]))


def divided_echelon(gens, order):
    """The reduced row-echelon form of gens, found by division."""
    monomials = [e for g in gens for e in g._terms]
    if len(set(monomials)) == len(monomials):
        return [_monic(g, order) for g in gens]
    kept = []
    for g in gens:
        r = reduce_full(g, kept, order)
        if not r.is_zero():
            kept.append(_monic(r, order))
    rows = []
    for g in kept:
        lead, value = g.leading(order)
        tail = Polynomial(XYZ, g.ring, {e: v for e, v in g._terms.items() if e != lead})
        rows.append(Polynomial(XYZ, g.ring, {lead: value, **reduce_full(tail, kept, order)._terms}))
    return rows


@st.composite
def one_degree_generators(draw):
    """Nonzero generators whose terms share one total degree and a few
    monomials, with copies, multiples and sums of each other mixed in; or
    generators on disjoint supports.  Terms come in a drawn order."""
    ring = draw(st.sampled_from(RINGS))
    order = draw(st.sampled_from(list(MonomialOrder)))
    degree = draw(st.integers(0, 3))
    monomials = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    columns = draw(st.permutations(monomials))[: draw(st.integers(1, 6))]
    if ring.kind == "Q":
        nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    else:
        nonzero = st.integers(1, ring.modulus - 1)

    def generator(support):
        return Polynomial(XYZ, ring, [(e, draw(nonzero)) for e in support])

    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, len(columns)), max_size=3)))
        bounds = [0, *cuts, len(columns)]
        return [generator(columns[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b], order
    support = st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True)
    gens = [generator(draw(support)) for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 4))):
        i, j = (draw(st.integers(0, len(gens) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(("copy", "multiple", "sum")))
        if kind == "copy":
            new = gens[i]
        elif kind == "multiple":
            new = gens[i].scale(draw(nonzero))
        else:
            new = gens[i].scale(draw(nonzero)) + gens[j].scale(draw(nonzero))
        if not new.is_zero():
            gens.insert(draw(st.integers(0, len(gens))), new)
    return gens, order


@PROPERTY
@given(one_degree_generators())
def test_elimination_gives_the_rows_division_gives(problem):
    gens, order = problem
    expected = divided_echelon(gens, order)
    echelon = _row_echelon(gens, order, len(XYZ), DEFAULT_DEGREE_CAP)
    assert [list(g._terms.items()) for g in echelon.polys] == [
        list(g._terms.items()) for g in expected
    ]
    assert [row[0] for row in echelon.rows] == [g.leading(order)[0] for g in expected]
