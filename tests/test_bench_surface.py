"""What the benchmark under bench/ reads from the library.

The benchmark imports library names, reads a few attributes of the
algebras it builds and wraps library functions by name.  A refactor that
renames or drops one of them breaks a benchmark row without failing a
library test: a name the tracer wraps that no longer exists just reads 0.
These tests read bench/ as source text and import none of it.
"""

import ast
import importlib
from pathlib import Path

from nbhd.algebra import FpAlgebra
from nbhd.arith import QQ
from nbhd.ideal import Ideal, buchberger
from nbhd.poly import MonomialOrder, Polynomial

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    path = BENCH / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_library_name_the_workloads_use_exists():
    tree = _tree("workloads.py")
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nbhd")
        for alias in node.names
    }
    from_verify = {name for module, name in imported if module == "nbhd.verify"}
    assert len(from_verify) == 9, sorted(from_verify)
    # `from nbhd import algebra, neighbour`, then algebra.FpAlgebra and so on
    modules = {name for module, name in imported if module == "nbhd"}
    read = {
        (f"nbhd.{node.value.id}", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert read, "the workloads no longer read the library through its modules"
    missing = []
    for module, name in sorted(imported | read):
        try:
            _resolve(module, name)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{name}")
    assert not missing, f"bench/workloads.py uses names the library lacks: {missing}"


def _assigned(tree, name):
    """The value of the module-level assignment to name."""
    return next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    )


def test_every_function_the_tracer_names_exists():
    tree = _tree("tracing.py")
    functions = ast.literal_eval(_assigned(tree, "FUNCTIONS")).values()
    observed = [ast.literal_eval(key) for key in _assigned(tree, "OBSERVERS").keys]
    neighbour = ast.literal_eval(_assigned(tree, "NEIGHBOUR_FUNCTIONS"))
    keys = {*functions, *observed, *(f"neighbour.{name}" for name in neighbour)}
    missing = set()
    for key in keys:
        layer, _, qualname = key.partition(".")
        try:
            _resolve(f"nbhd.{layer}", qualname)
        except AttributeError:
            missing.add(key)
    # the library dropped monomial_reduce while the benchmark still traces
    # it, so its rows read 0; this pin goes when bench/tracing.py drops it
    assert missing == {"ideal.monomial_reduce"}, sorted(missing)


def test_the_attributes_the_benchmark_reads():
    algebra = FpAlgebra(QQ, ("x", "y"), ["x^2 - y", "x*y"])
    assert algebra.strategy == "groebner"
    assert algebra.order is MonomialOrder.DEGREVLEX
    assert algebra.varset.names == ("x", "y")
    assert len(algebra.relations) == 2
    assert all(isinstance(r, Polynomial) for r in algebra.relations)
    basis = algebra._gb.basis
    assert isinstance(basis, tuple) and basis
    assert all(isinstance(g, Polynomial) for g in basis)
    # the tracer's buchberger observer takes len() of its input and result
    ideal = Ideal(algebra.varset, QQ, algebra.relations)
    assert len(buchberger(ideal)) == len(basis) and len(ideal) == 2
    assert FpAlgebra(QQ, ("x",), ["x^2"]).strategy == "monomial"
