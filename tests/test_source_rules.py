"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nbhd"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no self-check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def _imported_names(tree):
    """Names bound by module-level imports, except __future__ imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # __init__.py imports only to re-export, so it is left out
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_true_division_outside_arith():
    # over Q integral values are ints, and int / int is a float: exact
    # division belongs to the coefficient layer alone
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "arith.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert not found, f"true division at {found}"


def test_no_bare_value_errors_outside_arith():
    # the library raises typed NbhdErrors, arith.py included: RingSpec
    # refuses a value with InvalidArgument or UninterpretableValue
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ValueError"
        ]
    assert not found, f"bare ValueError raised at {found}"


def test_check_results_are_built_only_by_first_defect():
    # one witness scan and one pass: every decision procedure hands its
    # equations to neighbour._first_defect, which builds each failure and
    # shares one pass per notes tuple, so no hand-written witness loop, and
    # no fresh pass per scan, grows back
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and path.name == "neighbour.py"
            and function.name == "_first_defect"
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
            and id(node) not in inside
        ]
    assert not found, f"CheckResult built outside neighbour._first_defect at {found}"


def test_witnesses_are_built_only_by_first_defect():
    # every negative verdict, and every NotNeighbours message, takes its
    # witness from the one scan rather than from a hand-built Witness
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and path.name == "neighbour.py"
            and function.name == "_first_defect"
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Witness"
            and id(node) not in inside
        ]
    assert not found, f"Witness built outside neighbour._first_defect at {found}"


def test_groebner_bases_are_built_only_by_buchberger():
    # one Groebner entry point: every GroebnerBasis the library builds comes
    # out of ideal.buchberger, so no second basis builder grows back; a call
    # of any of its class methods counts as building one
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        inside = {
            id(node)
            for function in functions
            if path.name == "ideal.py" and function.name == "buchberger"
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "GroebnerBasis"
            in (
                getattr(node.func, "id", getattr(node.func, "attr", None)),
                getattr(getattr(node.func, "value", None), "id", None),
            )
            and id(node) not in inside
        ]
    assert not found, f"GroebnerBasis built outside ideal.buchberger at {found}"


def test_monomial_divisibility_is_tested_only_by_the_product_table():
    # one deletion test for monomial quotients: normal forms, products and
    # draws all read algebra._ProductTable, so outside ideal.py (whose
    # division and pair criteria use the bitsets) only the table reaches
    # _Divisors.dividing, and no separate deletion pass grows back
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} defines monomial_reduce"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "monomial_reduce"
        ]
        if path.name == "ideal.py":
            continue
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and path.name == "algebra.py"
            and cls.name == "_ProductTable"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno} reads .dividing"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "dividing" and id(node) not in inside
        ]
    assert not found, f"monomial divisibility tested outside algebra._ProductTable at {found}"


def _parameters(function):
    args = function.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None]


def test_every_parameter_is_read():
    # a parameter no body reads is threaded through every caller for
    # nothing; self and cls are the method protocol, and the check_*
    # functions keep the (config, corpus) signature of the CHECKS registry
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if function.name.startswith("check_"):
                continue
            read = {
                node.id
                for statement in function.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{function.lineno} {function.name}({name})"
                for name in _parameters(function)
                if name not in read and name not in ("self", "cls")
            ]
    assert not found, f"parameters never read: {found}"


DRAW_HELPERS = (
    "_random_value",
    "_random_poly",
    "_random_element",
    "_augmentation_delta",
    "_displaced_images",
    "_random_affine_weights",
)


def test_draw_helpers_draw_through_the_one_kernel():
    # the suite's draw helpers take their random numbers from getrandbits
    # through verify._below, which spends the bits randrange would; a
    # randrange, randint or choice call among them is a second way to draw
    path = SOURCE / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    helpers = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in DRAW_HELPERS
    }
    assert sorted(helpers) == sorted(DRAW_HELPERS)
    found = [
        f"{name}:{node.lineno} {_called_name(node)}"
        for name, function in helpers.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _called_name(node) in ("randrange", "randint", "choice")
    ]
    assert not found, f"draw helpers calling the random module's samplers: {found}"


def _called_name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


# the enumerations of equations and the weighted row sums:
# FpAlgebra._sum_of_products is the one place that multiplies the factors of
# an equation, and the relation builders enumerate theirs over a free
# algebra's generators
SUMS_OF_PRODUCTS = {
    "algebra.py": ("_difference_products",),
    "neighbour.py": ("_dtilde_equations", "_weighted_row_sum"),
}
RELATION_BUILDERS = {
    "algebra.py": ("multi_diagonal_ideal", "_difference_representation"),
    "neighbour.py": ("universal_dtilde",),
}


def test_scans_and_row_sums_sum_products_only_through_the_kernel():
    # one sum-of-products path: the two enumerations, like the weighted row
    # sums, hand the factor pairs to FpAlgebra._sum_of_products; none of
    # them multiplies, or reduce()s or sum()s element products, by hand,
    # and no second sum of products is defined beside the kernel
    found, reads = [], {}
    for name, names in SUMS_OF_PRODUCTS.items():
        path = SOURCE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for function in map(functions.__getitem__, names):
            nodes = list(ast.walk(function))
            found += [
                f"{name}:{node.lineno} {function.name} multiplies"
                for node in nodes
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult)
            ]
            found += [
                f"{name}:{node.lineno} {function.name} calls {_called_name(node)}"
                for node in nodes
                if isinstance(node, ast.Call) and _called_name(node) in ("reduce", "sum")
            ]
            reads[function.name] = {getattr(node, "attr", getattr(node, "id", None)) for node in nodes}
        if name == "neighbour.py":
            found += [
                f"{name}:{node.lineno} names reduce"
                for node in ast.walk(tree)
                if getattr(node, "id", None) == "reduce" or getattr(node, "name", None) == "reduce"
            ]
    assert not found, f"products summed outside FpAlgebra._sum_of_products at {found}"
    for function in ("_difference_products", "_dtilde_equations", "_weighted_row_sum"):
        assert "_sum_of_products" in reads[function], f"{function} does not use the kernel"
    algebra = _functions("algebra.py")
    assert not {"_free_sum", "_as_is", "_summation"} & set(algebra), "a second sum of products is defined"


def test_the_scans_trust_their_rows():
    # the scans and the support test read their rows as one algebra's
    # elements: coercion and type tests happen before, at the boundary
    # (vectors_neighbour, SimplexMatrix, AlgebraMap), never again in them
    scans = {"algebra.py": ("_difference_products", "_vanish_by_support"), "neighbour.py": ("_dtilde_equations",)}
    found = []
    for name, functions in scans.items():
        for function in functions:
            for node in ast.walk(_functions(name)[function]):
                if isinstance(node, ast.Call) and _called_name(node) in ("element", "_elements", "isinstance"):
                    found.append(f"{name}:{node.lineno} {function} calls {_called_name(node)}")
                elif isinstance(node, ast.Attribute) and node.attr == "__class__":
                    found.append(f"{name}:{node.lineno} {function} reads __class__")
    assert not found, f"a scan checks or coerces its entries: {found}"


def test_the_relation_builders_enumerate_over_free_generators():
    # the universal objects take their relations from the two enumerations
    # run over a free algebra's generators, so the kernel forms every
    # product of a relation, as it forms every product a scan tests
    enumerations = {"_difference_products", "_dtilde_equations"}
    for name, names in RELATION_BUILDERS.items():
        functions = _functions(name)
        for function in map(functions.__getitem__, names):
            called = {_called_name(node) for node in ast.walk(function) if isinstance(node, ast.Call)}
            assert called & enumerations, f"{function.name} does not enumerate its relations"
            assert "_free_generators" in called, f"{function.name} does not enumerate over elements"


# what the support test may not do: form a product, build an element, or
# learn that a monomial is deleted anywhere but in the product table
SUPPORT_TEST_FORBIDDEN = {
    "_sum_of_products", "_product", "_element", "element", "AlgebraElement",
    "_deletes", "normal_form", "dividing", "mono_mul", "mono_divides",
}


def _functions(name):
    path = SOURCE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_support_test_multiplies_nothing_and_precedes_the_scans():
    # algebra._vanish_by_support decides a scan from the supports of its
    # factors: it reads deletion from the product table's rows, filling a
    # missing entry, and never multiplies or builds
    helper = _functions("algebra.py")["_vanish_by_support"]
    nodes = list(ast.walk(helper))
    found = [
        f"algebra.py:{node.lineno} multiplies"
        for node in nodes
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult)
    ]
    found += [
        f"algebra.py:{node.lineno} calls {_called_name(node)}"
        for node in nodes
        if isinstance(node, ast.Call) and _called_name(node) in SUPPORT_TEST_FORBIDDEN
    ]
    assert not found, f"the support test forms products or reads deletion elsewhere: {found}"
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert {"_table", "rows", "fill"} <= attributes, "the support test does not read the product table"
    # each enumeration asks it before its first loop
    for name, function in (("algebra.py", "_difference_products"), ("neighbour.py", "_dtilde_equations")):
        body = _functions(name)[function].body
        asks = [
            k for k, statement in enumerate(body)
            for node in ast.walk(statement)
            if isinstance(node, ast.Call) and _called_name(node) == "_vanish_by_support"
        ]
        loops = [
            k for k, statement in enumerate(body)
            if any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(statement))
        ]
        assert asks and loops and asks[0] < loops[0], f"{function} does not ask the support test first"


def test_ideal_divides_only_in_the_pair_loop_interreduction_and_normal_forms():
    # one row reduction of buchberger's input, Gauss-Jordan elimination:
    # reduce_full is called only in buchberger's pair loop, in _interreduce
    # and in GroebnerBasis.normal_form, so no division pre-pass grows back
    path = SOURCE / "ideal.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = {
        node.name: node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "GroebnerBasis"
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    allowed = [
        *(loop for loop in functions["buchberger"].body if isinstance(loop, ast.While)),
        functions["_interreduce"],
        methods["normal_form"],
    ]
    inside = {id(node) for scope in allowed for node in ast.walk(scope)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "reduce_full"
    ]
    found = [f"ideal.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert calls and not found, f"reduce_full called outside the pair loop, _interreduce and normal_form at {found}"


# calls that change a list in place
MUTATING_METHODS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _base(node):
    """The object a chain of subscripts and method lookups starts from."""
    while isinstance(node, (ast.Subscript, ast.Attribute)) and not (
        isinstance(node, ast.Attribute) and node.attr == "excluded"
    ):
        node = node.value
    return node


def _exclusion_writes(function):
    """The lines of a function that write into the exclusion bitsets: a
    store, an augmented assignment or a mutating call on `.excluded`, on a
    subscript of it, or on a name bound to it or to a subscript of it."""
    nodes = list(ast.walk(function))
    aliases = set()

    def is_bitsets(node):
        base = _base(node)
        return (isinstance(base, ast.Attribute) and base.attr == "excluded") or (
            isinstance(base, ast.Name) and base.id in aliases
        )

    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = (
                zip(target.elts, node.value.elts)
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                else [(target, node.value)]
            )
            aliases |= {t.id for t, value in pairs if isinstance(t, ast.Name) and is_bitsets(value)}
    lines = []
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            lines += [
                node.lineno
                for t in targets
                if isinstance(t, ast.Subscript) or (isinstance(t, ast.Attribute) and t.attr == "excluded")
                if is_bitsets(t)
            ]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS and is_bitsets(node.func.value):
                lines.append(node.lineno)
    return lines


def _lead_degree_writes(function):
    """The lines of a function that store `.lead_degree`, by assignment or
    by a setattr call naming it or a name not written out."""
    lines = []
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            lines += [
                node.lineno
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and t.attr == "lead_degree"
            ]
        elif isinstance(node, ast.Call) and _called_name(node) in ("setattr", "__setattr__"):
            lines += [
                node.lineno
                for arg in node.args[1:2]
                if not (isinstance(arg, ast.Constant) and arg.value != "lead_degree")
            ]
    return lines


def test_only_one_helper_writes_the_exclusion_bitsets():
    # one place sets a divisor's bits and lowers the smallest lead degree
    # that lets division return at once: _Divisors._push, which append and
    # _gauss_jordan both push their rows through, so that code exists once;
    # __init__ only creates the empty lists and the degree of no lead
    for writes, what in ((_exclusion_writes, "exclusion bitsets"), (_lead_degree_writes, "lead_degree")):
        writers = {}
        for path in sorted(SOURCE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for cls in [None, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
                body = tree.body if cls is None else cls.body
                for function in (n for n in body if isinstance(n, ast.FunctionDef)):
                    name = function.name if cls is None else f"{cls.name}.{function.name}"
                    lines = writes(function)
                    if lines:
                        writers[f"{path.name}:{name}"] = lines
        init = writers.pop("ideal.py:_Divisors.__init__", [])
        assert len(init) == 1, f"_Divisors.__init__ does more than create the {what}"
        assert list(writers) == ["ideal.py:_Divisors._push"], f"{what} written by {writers}"


def test_only_build_corpus_presents_free_domains():
    # the corpus holds the free domain on X1..Xn for every n a check
    # reaches, so a check reads corpus.domain(ring, n) instead of
    # presenting a copy of its own through verify._free_domain
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {
            id(node)
            for function in tree.body
            if isinstance(function, ast.FunctionDef)
            and path.name == "verify.py"
            and function.name == "build_corpus"
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "_free_domain" and id(node) not in inside
        ]
    assert not found, f"_free_domain called outside verify.build_corpus at {found}"
