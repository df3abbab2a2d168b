import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbhd
from nbhd.cli import build_parser, main
from nbhd.verify import SuiteConfig

WEIL = ["--ring", "Q", "--vars", "e1,e2", "--rels", "e1^2 ; e2^2 ; e1*e2"]
THIN = ["--ring", "Q", "--vars", "e1,e2", "--rels", "e1^2 ; e2^2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


# -- nf / gb -----------------------------------------------------------------


def test_nf_inline(capsys):
    code, out, _ = run(
        capsys, ["nf", "--ring", "Q", "--vars", "X", "--rels", "X^2", "--poly", "X^2 + X + 1"]
    )
    assert code == 0
    assert out.strip() == "X + 1"


def test_nf_json(capsys):
    code, doc, _ = run_json(
        capsys, ["nf", "--ring", "Q", "--vars", "X", "--rels", "X^2", "--poly", "3*X^2 - X"]
    )
    assert code == 0
    assert doc == {"normal_form": "-X"}


def test_gb_lex_example(capsys):
    code, doc, _ = run_json(
        capsys,
        [
            "gb",
            "--ring",
            "Q",
            "--vars",
            "X,Y",
            "--gens",
            "X^2 - Y ; X*Y - 1",
            "--order",
            "lex",
        ],
    )
    assert code == 0
    assert doc == {"basis": ["-Y^2 + X", "Y^3 - 1"], "order": "lex"}


def test_gb_defaults_to_relations(capsys):
    code, out, _ = run(capsys, ["gb", "--ring", "Q", "--vars", "X", "--rels", "X^2 - X"])
    assert code == 0
    assert out.strip() == "X^2 - X"


def test_gb_degree_bound_guard(capsys):
    code, _, err = run(
        capsys,
        [
            "gb",
            "--ring",
            "Q",
            "--vars",
            "X,Y",
            "--gens",
            "X^2 - Y ; X*Y - 1",
            "--order",
            "lex",
            "--degree-bound",
            "1",
        ],
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "ring, rels, basis",
    [
        ("Z", "X^2;X*Y;-X^3", ["X^2", "X*Y"]),
        ("Z/4", "X^2;X*Y;-X^3;3*Y^2", ["X^2", "X*Y", "Y^2"]),
    ],
    ids=["Z", "Z/4"],
)
def test_gb_of_unit_monomials_over_a_non_field(capsys, ring, rels, basis):
    code, out, _ = run(capsys, ["gb", "--ring", ring, "--vars", "X,Y", "--rels", rels])
    assert code == 0
    assert out.splitlines() == basis


CUBIC = ["--ring", "Q", "--vars", "x,y", "--rels", "x^3 - y; x*y^2 - 1"]


def test_nf_degree_bound_guards_the_relations_basis(capsys):
    code, out, err = run(capsys, ["nf"] + CUBIC + ["--degree-bound", "2", "--poly", "x^5"])
    assert code == 2
    assert "exceeds cap 2" in err
    assert out == ""


def test_nf_degree_bound_reaches_an_algebra_file(capsys, tmp_path):
    path = tmp_path / "cubic.alg"
    path.write_text("ring: Q\nvars: x y\nrels: x^3 - y ; x*y^2 - 1\n", encoding="utf-8")
    argv = ["nf", "--algebra", str(path), "--poly", "x^5"]
    code, _, err = run(capsys, argv + ["--degree-bound", "2"])
    assert code == 2
    assert "exceeds cap 2" in err
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.strip() == "x^2*y"


def test_gb_degree_bound_lifts_the_relations_cap(capsys):
    rels = ["--ring", "Q", "--vars", "x,y", "--rels", "x^30 - y; x*y - 1"]
    code, _, err = run(capsys, ["gb"] + rels)
    assert code == 2
    assert "exceeds cap 24" in err
    code, out, _ = run(capsys, ["gb"] + rels + ["--degree-bound", "40"])
    assert code == 0
    assert out.splitlines() == ["x^16 - y^15", "y^16 - x^15", "x*y - 1"]


# -- neighbour ----------------------------------------------------------------


def test_neighbour_true(capsys):
    code, out, _ = run(capsys, ["neighbour"] + WEIL + ["--a", "0, 0", "--b", "e1, e2"])
    assert code == 0
    assert out.strip() == "true"


def test_neighbour_false_with_witness(capsys):
    code, doc, _ = run_json(
        capsys, ["neighbour"] + THIN + ["--a", "0, 0", "--b", "e1, e2"]
    )
    assert code == 1
    assert doc["neighbours"] is False
    assert doc["witness"]["indices"] == [1, 2]
    assert doc["witness"]["value"] == "e1*e2"


def test_neighbour_all_criteria_char_two(capsys):
    code, out, _ = run(
        capsys,
        [
            "neighbour",
            "--ring",
            "Z/2",
            "--vars",
            "e1,e2",
            "--rels",
            "e1^2 ; e2^2",
            "--a",
            "0, 0",
            "--b",
            "e1, e2",
            "--all-criteria",
            "--json",
        ],
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["neighbours"] is False
    assert doc["product_form"] is False
    assert doc["square_form"] is True  # the bounded square test diverges here
    assert any("2 is not invertible" in note for note in doc["square_form_notes"])
    # the maps of the rows run from the default free domain k[X1..Xn]; the
    # whole document is pinned byte for byte
    assert out == (
        "{\n"
        '  "neighbours": false,\n'
        '  "product_form": false,\n'
        '  "square_form": true,\n'
        '  "square_form_notes": [\n'
        '    "bounded square test only: 2 is not invertible over Z/2, so vanishing '
        'squares need not imply the neighbour relation"\n'
        "  ],\n"
        '  "witness": {\n'
        '    "indices": [\n'
        "      1,\n"
        "      2\n"
        "    ],\n"
        '    "label": "difference product",\n'
        '    "value": "e1*e2"\n'
        "  }\n"
        "}\n"
    )


# -- simplex / dtilde -----------------------------------------------------------


def test_simplex_inline_rows(capsys):
    code, out, _ = run(capsys, ["simplex"] + WEIL + ["--rows", "e1, 0; 0, e2"])
    assert code == 0 and out.strip() == "true"
    code, _, _ = run(capsys, ["simplex"] + THIN + ["--rows", "e1, 0; 0, e2"])
    assert code == 1


def test_simplex_from_files(capsys, tmp_path):
    alg = tmp_path / "weil.alg"
    alg.write_text("ring: Q\nvars: e1 e2\nrels: e1^2 ; e2^2 ; e1*e2\n", encoding="utf-8")
    mat = tmp_path / "rows.mat"
    mat.write_text("e1, 0\n0, e2\n", encoding="utf-8")
    code, out, _ = run(
        capsys, ["simplex", "--algebra", str(alg), "--matrix", str(mat)]
    )
    assert code == 0
    assert out.strip() == "true"


def test_dtilde_membership(capsys):
    code, doc, _ = run_json(capsys, ["dtilde"] + WEIL + ["--rows", "e1, 0; 0, e2"])
    assert code == 0
    assert doc["member"] is True
    assert any("2 is invertible" in note for note in doc["notes"])

    code, doc, err = run_json(capsys, ["dtilde"] + THIN + ["--rows", "e1, 0; 0, e2"])
    assert code == 1
    assert doc["member"] is False
    assert doc["witness"]["value"] == "e1*e2"


def test_dtilde_universal(capsys):
    code, doc, _ = run_json(capsys, ["dtilde", "--universal", "--p", "2", "--n", "2"])
    assert code == 0
    assert "a11" in doc["algebra"]
    assert doc["matrix"] == "a11, a12\na21, a22\n"

    code, _, err = run(
        capsys, ["dtilde", "--universal", "--ring", "Z", "--p", "2", "--n", "2"]
    )
    assert code == 2  # no field coefficients: unusable input, not a verdict
    assert "error:" in err


def test_dtilde_universal_within_degree_bound_two(capsys):
    # the basis is the row-reduced relations: no intermediate above degree 2
    argv = ["dtilde", "--universal", "--p", "2", "--n", "2"]
    code, out, _ = run(capsys, argv + ["--degree-bound", "2"])
    assert code == 0
    assert out == run(capsys, argv)[1]


def test_dtilde_universal_one_row_over_z(capsys):
    code, out, _ = run(capsys, ["dtilde", "--universal", "--ring", "Z", "--p", "1"])
    assert code == 0
    assert "rels: a11^2 ; a11*a12 ; a12^2\nstrategy: monomial\n" in out


@pytest.mark.parametrize(
    "flag",
    [
        ["--algebra", "/nonexistent"],
        ["--vars", "X"],
        ["--rels", "X^2"],
        ["--rows", "1,2"],
        ["--matrix", "/nonexistent"],
    ],
    ids=["algebra", "vars", "rels", "rows", "matrix"],
)
def test_dtilde_universal_rejects_the_flags_it_does_not_read(capsys, flag):
    argv = ["dtilde", "--universal", "--p", "1", "--n", "1"] + flag
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"dtilde --universal does not read {flag[0]}" in err
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out.splitlines()[-1])["kind"] == "UsageError"


@pytest.mark.parametrize("flag", [["--p", "7"], ["--n", "9"]], ids=["p", "n"])
def test_dtilde_membership_rejects_the_sizes_it_does_not_read(capsys, flag):
    argv = ["dtilde"] + WEIL + ["--rows", "e1, 0 ; 0, e2"] + flag
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"dtilde without --universal does not read {flag[0]}" in err
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out.splitlines()[-1])["kind"] == "UsageError"


def test_dtilde_universal_defaults_to_two_by_two(capsys):
    code, out, _ = run(capsys, ["dtilde", "--universal"])
    assert code == 0
    assert out == run(capsys, ["dtilde", "--universal", "--p", "2", "--n", "2"])[1]


# -- affine / extend / decompose ---------------------------------------------------


def test_affine_midpoint(capsys):
    code, out, _ = run(
        capsys,
        ["affine"] + WEIL + ["--rows", "e1, 0; 0, e2", "--coeffs", "1/2, 1/2"],
    )
    assert code == 0
    assert out.strip() == "1/2*e1, 1/2*e2"


def test_affine_rejects_bad_weights(capsys):
    code, doc, err = run_json(
        capsys,
        ["affine"] + WEIL + ["--rows", "e1, 0; 0, e2", "--coeffs", "1, 1"],
    )
    assert code == 1
    assert doc["kind"] == "CoefficientsNotAffine"
    assert "error:" in err

    code, doc, _ = run_json(
        capsys,
        ["affine"] + THIN + ["--rows", "0, 0; e1, e2", "--coeffs", "1, 0"],
    )
    assert code == 1
    assert doc["kind"] == "NotNeighbours"


def test_extend(capsys):
    code, out, _ = run(
        capsys,
        ["extend"] + WEIL + ["--rows", "e1, 0; 0, e2", "--coeffs", "5, 7"],
    )
    assert code == 0
    assert out.splitlines()[-1] == "5*e1, 7*e2"

    code, doc, _ = run_json(
        capsys,
        ["extend"] + THIN + ["--rows", "e1, e2", "--coeffs", "1"],
    )
    assert code == 1
    assert doc["kind"] == "NotInDtilde"


def test_decompose(capsys):
    code, out, _ = run(
        capsys, ["decompose", "--ring", "Q", "--vars", "X", "--poly", "X^2"]
    )
    assert code == 0
    assert out.strip() == "X: X_0 + X_1"

    code, doc, _ = run_json(
        capsys, ["decompose", "--ring", "Z", "--vars", "X1,X2", "--poly", "X1^2*X2"]
    )
    assert code == 0
    assert doc["cofactors"] == {
        "X1": "X1_0*X2_1 + X1_1*X2_1",
        "X2": "X1_0^2",
    }


# -- universal ----------------------------------------------------------------


def test_universal_simplex_output(capsys):
    code, out, _ = run(capsys, ["universal", "--ring", "Q", "--vars", "X"])
    assert code == 0
    assert "vars: X d_X" in out
    assert "rels: d_X^2" in out
    assert "map 0: X" in out
    assert "map 1: X + d_X" in out


def test_universal_json(capsys):
    code, doc, _ = run_json(capsys, ["universal", "--ring", "Q", "--vars", "X", "--p", "2"])
    assert code == 0
    assert doc["representation"] == "difference"
    assert doc["maps"] == [["X"], ["X + d_X_1"], ["X + d_X_2"]]


# -- verify ----------------------------------------------------------------------


VERIFY_SMALL = [
    "verify",
    "--rings",
    "Q",
    "--cases",
    "5",
    "--p-max",
    "1",
    "--n-max",
    "2",
    "--degree-bound",
    "2",
]


def test_verify_text(capsys):
    code, out, _ = run(capsys, VERIFY_SMALL)
    assert code == 0
    assert "0 failed" in out
    assert "corpus-construction-sanity" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, VERIFY_SMALL + ["--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "checks"}
    assert doc["config"]["rings"] == ["Q"]
    assert all(entry["ms"] == 0 for entry in doc["checks"])


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, doc, _ = run_json(capsys, VERIFY_SMALL + ["--out", str(target)])
    assert code == 0
    assert doc["passed"] is True
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    assert {"config", "checks"} == set(on_disk)


def test_verify_sabotage_fails(capsys):
    code, out, _ = run(capsys, VERIFY_SMALL + ["--sabotage"])
    assert code == 1
    assert "[sabotaged corpus]" in out


def test_verify_defaults_are_the_suite_defaults():
    args = build_parser().parse_args(["verify"])
    config = SuiteConfig(
        seed=args.seed,
        p_max=args.p_max,
        n_max=args.n_max,
        degree_bound=args.degree_bound,
        rings=tuple(args.rings.split(",")),
        case_count=args.cases,
    )
    assert config == SuiteConfig()


# -- exit code contract ------------------------------------------------------------


def test_missing_source_is_exit_two(capsys):
    code, out, err = run(capsys, ["nf", "--poly", "X"])
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_parse_error_is_exit_two(capsys):
    code, _, err = run(
        capsys, ["nf", "--ring", "Q", "--vars", "X", "--poly", "X +"]
    )
    assert code == 2
    assert "error:" in err


def test_overlong_number_is_a_parse_error(capsys):
    argv = ["nf", "--ring", "Q", "--vars", "X", "--poly", "X + " + "1" * 5000]
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc["kind"] == "ParseError"
    assert "(at position 4)" in doc["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simplex", *WEIL], "provide --matrix FILE or --rows 'a,b; c,d'"),
        (["neighbour", *WEIL, "--a", "", "--b", "e1"], "missing --a"),
    ],
    ids=["no-matrix", "empty-vector"],
)
def test_missing_operands_are_exit_two(capsys, argv, message):
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc == {"error": message, "kind": "NbhdError"}


@pytest.mark.parametrize(
    "names, message",
    [("1x,y", "invalid variable name '1x'"), ("x,x", "duplicate variable names: x")],
    ids=["invalid", "duplicate"],
)
def test_bad_variable_names_are_typed_errors(capsys, names, message):
    argv = ["decompose", "--ring", "Q", "--vars", names, "--poly", "y"]
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc == {"error": message, "kind": "InvalidVariableName"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["universal", "--ring", "Q", "--vars", "X", "--p", "0"], "p must be at least 1"),
        (["verify", "--p-max", "0"], "p_max must be at least 1"),
        (["dtilde", "--universal", "--p", "0"], "matrix dimensions must be at least 1 x 1"),
    ],
    ids=["universal", "verify", "dtilde"],
)
def test_out_of_range_sizes_are_typed_errors(capsys, argv, message):
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc == {"error": message, "kind": "InvalidArgument"}


@pytest.mark.parametrize(
    "rels", ["X^2 - 1", "X^2 - Y;X*Y - 1", "X^2"], ids=["basis", "guard", "monomial"]
)
def test_negative_degree_bound_is_a_typed_error(capsys, rels):
    # it used to exit 0, or 2 with DegreeGuardExceeded, depending on the relations
    argv = ["gb", "--ring", "Q", "--vars", "X,Y", "--rels", rels, "--degree-bound", "-1"]
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc == {
        "error": "degree cap must be a non-negative integer, got -1",
        "kind": "InvalidArgument",
    }


def test_usage_error(capsys):
    code, out, _ = run(capsys, ["frobnicate"])
    assert code == 2

    code, out, _ = run(capsys, ["frobnicate", "--json"])
    assert code == 2
    doc = json.loads(out.splitlines()[-1])
    assert doc["kind"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--ring", "Q", "--vars", "X", "--poly", "X", "--seed", "1"],
        ["decompose", "--ring", "Q", "--vars", "X", "--poly", "X^2", "--order", "lex"],
        ["decompose", "--ring", "Q", "--vars", "X", "--poly", "X^2", "--degree-bound", "5"],
    ],
    ids=["nf-seed", "decompose-order", "decompose-degree-bound"],
)
def test_flags_no_handler_reads_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "unrecognized arguments" in err
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out.splitlines()[-1])["kind"] == "UsageError"


def test_json_error_document(capsys):
    code, doc, _ = run_json(capsys, ["nf", "--poly", "X"])
    assert code == 2
    assert set(doc) == {"error", "kind"}
    assert doc["kind"] == "NbhdError"


def test_version(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("nbhd ")


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["neighbour", "--help"])[0] == 0


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["universal", "--ring", "Q", "--vars", "X,Y", "--p", "2"], 0),
        (["neighbour", *THIN, "--a", "e1, e2", "--b", "0, 0"], 1),
        (["verify", "--json", "--cases", "2", "--p-max", "1", "--n-max", "1", "--rings", "Q"], 0),
        (["nf", "--poly", "X", "--json"], 2),
    ],
    ids=["holds", "fails", "verify-report", "json-error"],
)
def test_a_closed_pipe_keeps_the_exit_code(argv, expected, unbuffered):
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(nbhd.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nbhd.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr
