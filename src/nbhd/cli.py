"""Command-line front end.

Exit codes: 0 when the command succeeds and any verdict is positive, 1 when
a computation ran to completion but the mathematical answer is negative
(a pair is not neighbours, a matrix fails the equations, a verification run
has failures), 2 for unusable input (parse errors, mismatched shapes,
unsupported coefficient rings, missing files).

With --json every command writes a single JSON document to stdout, even on
failure ({"error": ..., "kind": ...}); human diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .arith import RingSpec
from .errors import (
    CoefficientsNotAffine,
    IllDefinedMap,
    NbhdError,
    NotInDtilde,
    NotInKernel,
    NotNeighbours,
)
from .algebra import FpAlgebra, universal_simplex
from .formats import (
    dump_algebra,
    dump_matrix,
    load_algebra,
    load_matrix,
    parse_algebra,
    parse_matrix,
)
from .ideal import DEFAULT_DEGREE_CAP, Ideal, buchberger
from .neighbour import (
    SimplexMatrix,
    Witness,
    affine_combination_rows,
    decompose_difference,
    extend_matrix,
    in_dtilde,
    is_neighbour_product_form,
    is_simplex,
    is_square_zero_pair,
    maps_of_matrix,
    universal_dtilde,
    vectors_neighbour,
)
from .poly import MonomialOrder, VarSet, parse_poly, parse_poly_list
from .verify import SuiteConfig, emit_report, run_suite

# negative mathematical verdicts, as opposed to unusable input
_VERDICT_ERRORS = (
    NotNeighbours,
    CoefficientsNotAffine,
    NotInDtilde,
    NotInKernel,
    IllDefinedMap,
)


def _order_of(args) -> MonomialOrder:
    return MonomialOrder.parse(args.order)


def _algebra_of(args) -> FpAlgebra:
    """Build the working algebra from --algebra or the inline flags, with
    the command's --order and --degree-bound."""
    order = _order_of(args)
    if getattr(args, "algebra", None):
        return load_algebra(args.algebra, order, args.degree_bound)
    if getattr(args, "ring", None) and getattr(args, "vars", None):
        names = args.vars.replace(",", " ")
        lines = [f"ring: {args.ring}", f"vars: {names}"]
        if getattr(args, "rels", None):
            lines.append(f"rels: {args.rels}")
        return parse_algebra("\n".join(lines) + "\n", order, args.degree_bound)
    raise NbhdError("provide --algebra FILE or --ring and --vars")


def _matrix_of(args, algebra: FpAlgebra) -> SimplexMatrix:
    if getattr(args, "matrix", None):
        return load_matrix(args.matrix, algebra)
    if getattr(args, "rows", None):
        return parse_matrix(args.rows.replace(";", "\n"), algebra)
    raise NbhdError("provide --matrix FILE or --rows 'a,b; c,d'")


def _witness_json(witness: Witness | None):
    if witness is None:
        return None
    return {
        "indices": list(witness.indices),
        "value": str(witness.value),
        "label": witness.label,
    }


def _vector_of(args, attr: str, algebra: FpAlgebra):
    text = getattr(args, attr, None)
    if not text:
        raise NbhdError(f"missing --{attr}")
    polys = parse_poly_list(text, algebra.varset, algebra.ring)
    return [algebra.element(p) for p in polys]


# --------------------------------------------------------------------------
# handlers: each returns (exit code, json payload, text output)


def _cmd_nf(args):
    algebra = _algebra_of(args)
    poly = parse_poly(args.poly, algebra.varset, algebra.ring)
    reduced = algebra.normal_form(poly)
    return 0, {"normal_form": str(reduced)}, str(reduced)


def _cmd_gb(args):
    order = _order_of(args)
    algebra = _algebra_of(args)
    gb = algebra._gb  # the basis of the relations, unless they are monomial
    if args.gens or gb is None:
        gens = algebra.relations
        if args.gens:
            gens = parse_poly_list(args.gens, algebra.varset, algebra.ring, sep=";")
        gb = buchberger(Ideal(algebra.varset, algebra.ring, gens), order, args.degree_bound)
    basis = [str(p) for p in gb.basis]
    return (
        0,
        {"basis": basis, "order": order.value},
        "\n".join(basis) if basis else "0",
    )


def _cmd_neighbour(args):
    algebra = _algebra_of(args)
    a = _vector_of(args, "a", algebra)
    b = _vector_of(args, "b", algebra)
    verdict = vectors_neighbour(a, b)
    payload = {"neighbours": verdict.ok, "witness": _witness_json(verdict.witness)}
    if args.all_criteria:
        maps = maps_of_matrix(SimplexMatrix(algebra, [a, b]))
        product_form = is_neighbour_product_form(maps[0], maps[1])
        squares = is_square_zero_pair(maps[0], maps[1])
        payload["product_form"] = product_form.ok
        payload["square_form"] = squares.ok
        payload["square_form_notes"] = list(squares.notes)
    return (0 if verdict.ok else 1), payload, str(verdict)


def _cmd_simplex(args):
    algebra = _algebra_of(args)
    matrix = _matrix_of(args, algebra)
    verdict = is_simplex(matrix)
    payload = {"simplex": verdict.ok, "witness": _witness_json(verdict.witness)}
    return (0 if verdict.ok else 1), payload, str(verdict)


def _cmd_dtilde(args):
    if args.universal:
        ring = RingSpec.parse(args.ring or "Q")
        p = 2 if args.p is None else args.p
        n = 2 if args.n is None else args.n
        algebra, matrix = universal_dtilde(p, n, ring, _order_of(args), args.degree_bound)
        payload = {"algebra": dump_algebra(algebra), "matrix": dump_matrix(matrix)}
        text = dump_algebra(algebra) + "\n" + dump_matrix(matrix).rstrip("\n")
        return 0, payload, text
    algebra = _algebra_of(args)
    matrix = _matrix_of(args, algebra)
    verdict = in_dtilde(matrix)
    payload = {
        "member": verdict.ok,
        "witness": _witness_json(verdict.witness),
        "notes": list(verdict.notes),
    }
    for note in verdict.notes:
        print(note, file=sys.stderr)
    return (0 if verdict.ok else 1), payload, str(verdict)


def _cmd_affine(args):
    algebra = _algebra_of(args)
    matrix = _matrix_of(args, algebra)
    coefficients = _vector_of(args, "coeffs", algebra)
    row = affine_combination_rows(matrix, coefficients)
    text = ", ".join(str(x) for x in row)
    return 0, {"row": [str(x) for x in row]}, text


def _cmd_extend(args):
    algebra = _algebra_of(args)
    matrix = _matrix_of(args, algebra)
    coefficients = _vector_of(args, "coeffs", algebra)
    extended = extend_matrix(matrix, coefficients)
    payload = {"matrix": [[str(x) for x in row] for row in extended.entries]}
    return 0, payload, dump_matrix(extended).rstrip("\n")


def _cmd_decompose(args):
    ring = RingSpec.parse(args.ring)
    varset = VarSet(tuple(args.vars.replace(",", " ").split()))
    poly = parse_poly(args.poly, varset, ring)
    cofactors = decompose_difference(poly)
    pairs = list(zip(varset.names, cofactors))
    payload = {"cofactors": {name: str(q) for name, q in pairs}}
    text = "\n".join(f"{name}: {q}" for name, q in pairs)
    return 0, payload, text


def _cmd_universal(args):
    base = _algebra_of(args)
    simplex = universal_simplex(
        base,
        args.p,
        representation=args.representation,
        order=_order_of(args),
        degree_cap=args.degree_bound,
    )
    maps_out = [[str(x) for x in f.images] for f in simplex.maps]
    payload = {
        "representation": simplex.representation,
        "algebra": dump_algebra(simplex.algebra),
        "maps": maps_out,
    }
    lines = [dump_algebra(simplex.algebra).rstrip("\n"), ""]
    for r, images in enumerate(maps_out):
        lines.append(f"map {r}: " + ", ".join(images))
    return 0, payload, "\n".join(lines)


def _cmd_verify(args):
    config = SuiteConfig(
        seed=args.seed,
        p_max=args.p_max,
        n_max=args.n_max,
        degree_bound=args.degree_bound,
        rings=tuple(name.strip() for name in args.rings.split(",")),
        case_count=args.cases,
    )
    report = run_suite(config, sabotage=args.sabotage)
    fmt = "json" if args.json else "text"
    rendered = emit_report(report, fmt, timings=args.timings)
    code = 0 if report.passed() else 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        summary = f"report written to {args.out}"
        return code, {"out": args.out, "passed": report.passed()}, summary
    # emit_report already produced the requested format; hand it through
    if args.json:
        _write(rendered, end="")
        return code, None, None
    return code, None, rendered.rstrip("\n")


# the input flags dtilde shares with the membership test; the generic
# matrix of --universal reads none of them, and the membership test reads
# neither of the generic matrix's sizes
_UNIVERSAL_UNREAD = ("algebra", "vars", "rels", "rows", "matrix")
_MEMBERSHIP_UNREAD = ("p", "n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbhd",
        description="exact neighbour calculus for finitely presented algebras",
    )
    parser.add_argument("--version", action="version", version=f"nbhd {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--order",
        default="degrevlex",
        choices=("degrevlex", "lex"),
        help="monomial order for normal forms",
    )
    engine.add_argument(
        "--degree-bound",
        type=int,
        default=DEFAULT_DEGREE_CAP,
        dest="degree_bound",
        help="degree guard for every basis the command computes (an integer, 0 or more)",
    )

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--algebra", help="algebra file")
    source.add_argument("--ring", help="inline ring: Q, Z or Z/m")
    source.add_argument("--vars", help="inline comma-separated variable names")
    source.add_argument("--rels", help="inline semicolon-separated relations")

    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--matrix", help="matrix file")
    matrix.add_argument("--rows", help="inline rows 'a,b; c,d'")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common, engine, source], help="normal form of a polynomial")
    p.add_argument("--poly", required=True, help="polynomial to reduce")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser(
        "gb", parents=[common, engine, source], help="reduced deterministic basis of an ideal"
    )
    p.add_argument(
        "--gens", help="semicolon-separated generators (default: the relations)"
    )
    p.set_defaults(handler=_cmd_gb)

    p = sub.add_parser(
        "neighbour",
        parents=[common, engine, source],
        help="test whether two coordinate vectors are neighbours",
    )
    p.add_argument("--a", required=True, help="comma-separated first vector")
    p.add_argument("--b", required=True, help="comma-separated second vector")
    p.add_argument(
        "--all-criteria",
        action="store_true",
        help="also evaluate the product-form and square-form tests",
    )
    p.set_defaults(handler=_cmd_neighbour)

    p = sub.add_parser(
        "simplex",
        parents=[common, engine, source, matrix],
        help="test whether matrix rows are pairwise neighbours",
    )
    p.set_defaults(handler=_cmd_simplex)

    p = sub.add_parser(
        "dtilde",
        parents=[common, engine, source, matrix],
        help="zero-anchored difference-matrix membership, or the generic matrix",
    )
    p.add_argument(
        "--universal",
        action="store_true",
        help="print the generic matrix and its coordinate algebra instead",
    )
    p.add_argument("--p", type=int, help="rows of the generic matrix (default 2)")
    p.add_argument("--n", type=int, help="columns of the generic matrix (default 2)")
    p.set_defaults(handler=_cmd_dtilde)

    p = sub.add_parser(
        "affine",
        parents=[common, engine, source, matrix],
        help="affine combination of the rows of a simplex matrix",
    )
    p.add_argument("--coeffs", required=True, help="comma-separated weights, sum 1")
    p.set_defaults(handler=_cmd_affine)

    p = sub.add_parser(
        "extend",
        parents=[common, engine, source, matrix],
        help="append a weighted row sum to a difference matrix",
    )
    p.add_argument("--coeffs", required=True, help="comma-separated weights")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser(
        "decompose",
        parents=[common],
        help="expand the difference of two renamed copies of a polynomial",
    )
    p.add_argument("--ring", required=True, help="Q, Z or Z/m")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--poly", required=True, help="polynomial to decompose")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "universal",
        parents=[common, engine, source],
        help="universal simplex algebra of a base algebra, with its maps",
    )
    p.add_argument("--p", type=int, default=1, help="simplex dimension")
    p.add_argument(
        "--representation",
        default="auto",
        choices=("auto", "difference", "tensor"),
    )
    p.set_defaults(handler=_cmd_universal)

    suite = SuiteConfig()
    p = sub.add_parser(
        "verify", parents=[common], help="run the verification suite"
    )
    p.add_argument("--seed", type=int, default=suite.seed, help="random seed")
    p.add_argument("--p-max", type=int, default=suite.p_max)
    p.add_argument("--n-max", type=int, default=suite.n_max)
    p.add_argument("--degree-bound", type=int, default=suite.degree_bound)
    p.add_argument("--rings", default=",".join(suite.rings))
    p.add_argument("--cases", type=int, default=suite.case_count)
    p.add_argument(
        "--timings",
        action="store_true",
        help="keep wall-clock milliseconds in JSON output",
    )
    p.add_argument(
        "--sabotage",
        action="store_true",
        help="run against the deliberately broken corpus (self-test)",
    )
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "dtilde":
            names = _UNIVERSAL_UNREAD if args.universal else _MEMBERSHIP_UNREAD
            unread = [f"--{name}" for name in names if getattr(args, name) is not None]
            if unread:
                mode = "--universal" if args.universal else "without --universal"
                parser.error(f"dtilde {mode} does not read {', '.join(unread)}")
    except SystemExit as exc:
        if exc.code not in (0, None) and "--json" in argv:
            _write(json.dumps({"error": "unusable arguments", "kind": "UsageError"}))
            return 2
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        code, payload, text = args.handler(args)
    except _VERDICT_ERRORS as exc:
        return _emit_error(args, exc, 1)
    except NbhdError as exc:
        return _emit_error(args, exc, 2)
    except (ValueError, OSError) as exc:
        return _emit_error(args, exc, 2)
    if args.json:
        if payload is not None:
            _write(json.dumps(payload, indent=2, sort_keys=True))
    elif text is not None:
        _write(text)
    return code


def _write(text: str, end: str = "\n") -> None:
    """Print to stdout.  When the reader has closed the pipe, the output is
    dropped and stdout goes to devnull, so neither a later write nor the
    flush at interpreter exit raises, and the exit code stays the outcome's."""
    try:
        print(text, end=end)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_error(args, exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "json", False):
        _write(json.dumps({"error": str(exc), "kind": type(exc).__name__}))
    return code


if __name__ == "__main__":
    sys.exit(main())
