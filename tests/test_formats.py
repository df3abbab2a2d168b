import pytest

from nbhd.algebra import FpAlgebra, free_algebra
from nbhd.arith import QQ, RingSpec
from nbhd.errors import DegreeGuardExceeded, ParseError, UnknownFormat
from nbhd.formats import (
    dump_algebra,
    dump_matrix,
    load_algebra,
    load_map,
    load_matrix,
    parse_algebra,
    parse_matrix,
)
from nbhd.neighbour import SimplexMatrix


WEIL_TEXT = """\
ring: Q
vars: e1 e2
rels: e1^2 ; e2^2 ; e1*e2
"""


def test_parse_algebra_basic():
    A = parse_algebra(WEIL_TEXT)
    assert A.ring == QQ
    assert A.varset.names == ("e1", "e2")
    assert len(A.relations) == 3
    assert A.strategy == "monomial"  # guessed: all relations are unit monomials


def test_parse_algebra_guesses_groebner():
    A = parse_algebra("ring: Q\nvars: X\nrels: X^2 - X\n")
    assert A.strategy == "groebner"
    assert A.element("X^3") == A.generator(0)


def test_parse_algebra_explicit_strategy_and_comments():
    text = """\
# a two-variable algebra
ring: Z/5     # a field
vars: a b
strategy: groebner
"""
    A = parse_algebra(text)
    assert A.ring == RingSpec.modular(5)
    assert A.is_free
    assert A.strategy == "monomial"  # the relations (none) pick the engine


def test_parse_algebra_errors():
    with pytest.raises(UnknownFormat):
        parse_algebra("vars: X\n")  # no ring line
    with pytest.raises(UnknownFormat):
        parse_algebra("ring: Q\n")  # no vars line
    with pytest.raises(UnknownFormat):
        parse_algebra("ring: Q\nvars: X\nring: Z\n")  # duplicate key
    with pytest.raises(UnknownFormat):
        parse_algebra("ring: Q\nvars: X\ncolor: red\n")  # unknown key
    with pytest.raises(UnknownFormat):
        parse_algebra("ring: Q\nvars: X\njust text\n")  # not key: value
    with pytest.raises(UnknownFormat):
        parse_algebra("ring: Q\nvars: X\nstrategy: magic\n")
    with pytest.raises(ParseError):
        parse_algebra("ring: GF(9)\nvars: X\n")
    with pytest.raises(ParseError):
        parse_algebra("ring: Q\nvars: X\nrels: X^2 +\n")


def test_algebra_round_trip():
    A = parse_algebra(WEIL_TEXT)
    again = parse_algebra(dump_algebra(A))
    assert again == A
    free = free_algebra(QQ, ("X", "Y"))
    assert parse_algebra(dump_algebra(free)) == free


def test_strategy_line_is_accepted_but_the_relations_decide():
    A = parse_algebra(WEIL_TEXT + "strategy: groebner\n")
    assert A == parse_algebra(WEIL_TEXT)
    assert A.strategy == "monomial"


def test_groebner_algebra_round_trip():
    A = parse_algebra("ring: Z/5\nvars: X Y\nrels: X^2 - Y ; X*Y - 1\n")
    dumped = dump_algebra(A)
    assert dumped.endswith("strategy: groebner\n")
    assert parse_algebra(dumped) == A


def test_load_algebra(tmp_path):
    path = tmp_path / "weil.alg"
    path.write_text(WEIL_TEXT, encoding="utf-8")
    assert load_algebra(str(path)) == parse_algebra(WEIL_TEXT)


def test_degree_cap_reaches_the_basis(tmp_path):
    text = "ring: Q\nvars: X Y\nrels: X^3 - Y ; X*Y^2 - 1\n"
    with pytest.raises(DegreeGuardExceeded, match="exceeds cap 2"):
        parse_algebra(text, degree_cap=2)
    path = tmp_path / "cubic.alg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DegreeGuardExceeded, match="exceeds cap 2"):
        load_algebra(str(path), degree_cap=2)
    assert load_algebra(str(path), degree_cap=30).degree_cap == 30


def test_load_map_with_relative_paths(tmp_path):
    (tmp_path / "dom.alg").write_text("ring: Q\nvars: X1 X2\n", encoding="utf-8")
    (tmp_path / "cod.alg").write_text(WEIL_TEXT, encoding="utf-8")
    map_path = tmp_path / "f.map"
    map_path.write_text(
        "domain: dom.alg  codomain: cod.alg\nimages: e1 ; e2\n",
        encoding="utf-8",
    )
    f = load_map(str(map_path))
    assert f.domain.varset.names == ("X1", "X2")
    assert f.images[0] == f.codomain.generator("e1")


def test_load_map_multiline_images(tmp_path):
    (tmp_path / "dom.alg").write_text("ring: Q\nvars: X1 X2 X3\n", encoding="utf-8")
    (tmp_path / "cod.alg").write_text(WEIL_TEXT, encoding="utf-8")
    map_path = tmp_path / "g.map"
    map_path.write_text(
        "domain: dom.alg\ncodomain: cod.alg\nimages: e1 ;\n  e2 ;\n  e1 + e2\n",
        encoding="utf-8",
    )
    g = load_map(str(map_path))
    assert len(g.images) == 3
    assert g.images[2] == g.codomain.element("e1 + e2")


def test_load_map_errors(tmp_path):
    (tmp_path / "dom.alg").write_text("ring: Q\nvars: X\n", encoding="utf-8")
    (tmp_path / "cod.alg").write_text("ring: Q\nvars: Y\n", encoding="utf-8")

    missing = tmp_path / "missing.map"
    missing.write_text("domain: dom.alg codomain: cod.alg\n", encoding="utf-8")
    with pytest.raises(UnknownFormat):
        load_map(str(missing))

    no_domain = tmp_path / "nodomain.map"
    no_domain.write_text("codomain: cod.alg\nimages: Y\n", encoding="utf-8")
    with pytest.raises(UnknownFormat):
        load_map(str(no_domain))

    stray = tmp_path / "stray.map"
    stray.write_text(
        "domain: dom.alg codomain: cod.alg junk\nimages: Y\n", encoding="utf-8"
    )
    with pytest.raises(UnknownFormat):
        load_map(str(stray))

    dup = tmp_path / "dup.map"
    dup.write_text(
        "domain: dom.alg\ndomain: dom.alg\ncodomain: cod.alg\nimages: Y\n",
        encoding="utf-8",
    )
    with pytest.raises(UnknownFormat):
        load_map(str(dup))

    empty = tmp_path / "empty.map"
    empty.write_text("domain: dom.alg codomain: cod.alg\nimages: ;\n", encoding="utf-8")
    with pytest.raises(UnknownFormat, match="^map file: malformed image list$"):
        load_map(str(empty))


def test_matrix_round_trip():
    A = parse_algebra(WEIL_TEXT)
    matrix = parse_matrix("e1, 0\n0, e2  # second row\n", A)
    assert matrix.rows == 2 and matrix.cols == 2
    assert matrix.entry(0, 0) == A.generator("e1")
    again = parse_matrix(dump_matrix(matrix), A)
    assert again == matrix


def test_matrix_files(tmp_path):
    A = parse_algebra(WEIL_TEXT)
    path = tmp_path / "m.mat"
    path.write_text("e1, e2\n", encoding="utf-8")
    matrix = load_matrix(str(path), A)
    assert matrix == SimplexMatrix(A, [["e1", "e2"]])


def test_matrix_errors():
    A = parse_algebra(WEIL_TEXT)
    with pytest.raises(UnknownFormat):
        parse_matrix("# only comments\n", A)
    with pytest.raises(ParseError):
        parse_matrix("e1, what^", A)


def test_dump_matrix_text_shape():
    A = parse_algebra(WEIL_TEXT)
    matrix = SimplexMatrix(A, [["e1", "0"], ["0", "e2"]])
    assert dump_matrix(matrix) == "e1, 0\n0, e2\n"
