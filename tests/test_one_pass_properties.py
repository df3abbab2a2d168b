"""Property tests for the two single-pass constructions.

parse_poly reads any text in one pass over its tokens: it returns a
Polynomial or raises ParseError at a position inside the text, never another
exception.  decompose_difference writes each cofactor in closed form: the
term c*X^a gives Q_i exactly a_i terms, each with the coefficient c, and no
two of them collide.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbhd.arith import RingSpec  # noqa: E402
from nbhd.errors import ParseError  # noqa: E402
from nbhd.neighbour import decompose_difference  # noqa: E402
from nbhd.poly import Polynomial, VarSet, parse_poly  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
VARSET = VarSet(("x", "y", "X1", "e_2"))
PARSE_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/5", "Z/12"))
COFACTOR_RINGS = tuple(RingSpec.parse(name) for name in ("Q", "Z", "Z/2", "Z/4"))

_PIECES = st.one_of(
    st.sampled_from(VARSET.names),  # known identifiers
    st.sampled_from(("z", "foo", "X3", "xy", "Y")),  # unknown identifiers
    st.text("0123456789", min_size=1, max_size=30),  # digit runs
    st.sampled_from(tuple("+-*/^")),
    st.sampled_from((" ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", " ", "　")),
    st.sampled_from(("$", "(", ")", ".", ",", "=", "²", "é", "٣", "_", ";")),
)


@PROPERTY
@given(st.lists(_PIECES, max_size=14).map("".join), st.sampled_from(PARSE_RINGS))
def test_parse_returns_a_polynomial_or_a_positioned_parse_error(text, ring):
    try:
        p = parse_poly(text, VARSET, ring)
    except ParseError as exc:
        assert exc.position is not None and 0 <= exc.position <= len(text)
    else:
        assert isinstance(p, Polynomial) and p.varset == VARSET and p.ring == ring


def _coefficients(ring):
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    if ring.kind == "Z":
        return st.integers(-4, 4)
    return st.integers(0, ring.modulus - 1)


@st.composite
def _polynomials(draw):
    ring = draw(st.sampled_from(COFACTOR_RINGS))
    n = draw(st.integers(0, 4))
    varset = VarSet(tuple(f"X{i + 1}" for i in range(n)))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.lists(st.tuples(exps, _coefficients(ring)), max_size=5))
    return Polynomial(varset, ring, terms)


@PROPERTY
@given(_polynomials())
def test_each_cofactor_has_one_term_per_telescoped_power(p):
    terms = p.sorted_terms()
    values = {value for _, value in terms}
    cofactors = decompose_difference(p)
    assert len(cofactors) == len(p.varset)
    for i, q in enumerate(cofactors):
        assert len(q) == sum(exps[i] for exps, _ in terms)
        assert all(value in values for _, value in q.sorted_terms())
