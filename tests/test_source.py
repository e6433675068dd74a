"""Source-level rules for the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import braidedforms

PACKAGE = Path(braidedforms.__file__).parent


def _trees(skip=()):
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in skip:
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_statements():
    # invariants raise exceptions: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_matrix_layout_stays_in_matrix_module():
    # only matrix.py knows the storage (sparse row maps in _nz, with entries
    # a derived dense view); other modules use m[r, c], m.nonzeros(),
    # hstack/vstack and the constructors
    found = [f"{name}:{node.lineno}" for name, tree in _trees(skip=("matrix.py",))
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("entries", "_raw", "_nz")]
    assert found == []


def test_scalar_constructor_stays_in_scalar_and_parse_modules():
    # arithmetic and parsed rationals come from cyclotomic's factory, which
    # returns the shared ZERO/ONE/MINUS_ONE; the bare Scalar(n, coeffs)
    # constructor builds a new object, so only io.py's conductor form uses it
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees(skip=("cyclotomic.py", "io.py"))
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Scalar"]
    assert found == []


def test_scalar_coordinates_stay_in_scalar_and_parse_modules():
    # only cyclotomic.py and io.py see a Scalar's coordinates (.c) and their
    # Fraction type; matrix.py divides pivot rows through Scalar methods
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees(skip=("cyclotomic.py", "io.py"))
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "c")
             or (isinstance(node, ast.alias) and node.name in ("Fraction", "fractions"))
             or (isinstance(node, ast.Name) and node.id == "Fraction")]
    assert found == []


def _names(node, ctx):
    return [n for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)]


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {n.id for n in _names(tree, ast.Load)}
    return [(name, line) for name, line in bound.items() if name not in read]


def _own_scope(fn):
    """The nodes of a function body outside its nested functions and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree):
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {n.id for n in _names(fn, ast.Load)}  # nested closures read too
            found += [(n.id, n.lineno) for n in _own_scope(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                      and n.id not in read]
    return found


def test_no_unused_names():
    # `_`-prefixed locals are deliberate placeholders
    found = []
    for name, tree in _trees():
        unused = _unused_locals(tree)
        if name != "__init__.py":  # its imports are the package's public names
            unused += _unused_imports(tree)
        found += [f"{name}:{line} {n}" for n, line in unused if not n.startswith("_")]
    assert found == []


def test_reports_have_one_writer():
    # every report is written by io.py's own writer: no module writes JSON
    # through json.dump/json.dumps or names JSONEncoder, io.py included
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "json" and node.attr in ("dump", "dumps"))
             or (isinstance(node, ast.Attribute) and node.attr == "JSONEncoder")
             or (isinstance(node, ast.Name) and node.id == "JSONEncoder")
             or (isinstance(node, ast.alias) and node.name in ("dump", "dumps", "JSONEncoder"))]
    assert found == []


def test_traced_functions_exist():
    # perfbench/layertrace.py wraps its SPANS targets by name when a run is
    # traced; a renamed or moved function would only fail there. Load the
    # tracer's table without installing it.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_spans", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for name, module, cls, attr in layertrace.SPANS:
        owner = vars(importlib.import_module(f"braidedforms.{module}"))
        if cls is not None:
            owner = vars(owner.get(cls, object))
        if not callable(owner.get(attr)):
            missing.append(f"{name}: {module}.{cls + '.' if cls else ''}{attr}")
    assert layertrace.SPANS and missing == []


def _is_kron_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("kron", "kron_all"))


def test_tensor_products_are_applied_not_built_for_compose():
    # f o (g (x) h) is compose_kron(f, g, h) and (g (x) h) o x is
    # kron_apply(g, h, x); a kron outside matrix.py is a stored structure map
    # or the mono/epi of a solve, never a factor of a product
    found = [f"{name}:{node.lineno}" for name, tree in _trees(skip=("matrix.py",))
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "compose"
             for operand in (node.func.value, *node.args) if _is_kron_call(operand)]
    assert found == []


def test_recursive_antipode_is_only_a_test_reference():
    # every antipode the package builds has a closed form; the degree
    # recursion of graded.antipode_recursive survives only as the reference
    # the tests compare against
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "antipode_recursive" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert found == []


def test_leg_arithmetic_stays_in_matrix_module():
    # splitting a flat index into tensor legs is the layout matrix.py owns
    found = [f"{name}:{node.lineno}" for name, tree in _trees(skip=("matrix.py",))
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "divmod"]
    assert found == []


def _is_lam_weight(node):
    """.lam ** (k * l) for two names k and l."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "lam"
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
            and isinstance(node.right.left, ast.Name) and isinstance(node.right.right, ast.Name))


def test_braid_weight_is_stated_once():
    # GradedBialgebra.braid(k, l) is the one place that weights a swap block
    # by lambda^(kl); every other reader takes the weighted block from it
    inside, outside = [], []
    for name, tree in _trees():
        braid = {id(n) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name == "GradedBialgebra"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "braid"
                 for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if _is_lam_weight(node):
                (inside if id(node) in braid else outside).append(f"{name}:{node.lineno}")
    assert len(inside) == 1 and outside == []


def _defined_functions(tree):
    """(name, line, owner) of the top-level functions, with owner None, and of
    the class methods, with owner (class name, whether it is a static or
    class method)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, None
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                                 for d in fn.decorator_list)
                    yield fn.name, fn.lineno, (node.name, static)


def _references(tree, test):
    """(attributes taken, (owner, attribute) pairs, other names): a method is
    reached only as an attribute; a function also by a bare name, an import,
    or a string (perfbench's tracer names its targets as strings).  In a test
    file only its imports count among the other names: a fixture or helper of
    the test may share the name of a package function."""
    attrs, owned, names, imported = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                owned.add((node.value.id, node.attr))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            imported.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return attrs, owned, imported if test else names | imported


def _class_bases():
    """class name -> the names of its bases, for the package's classes."""
    return {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
            for _, tree in _trees() for node in tree.body if isinstance(node, ast.ClassDef)}


def test_every_function_is_referenced():
    # a function counts as used when the package, the benchmark or a test of
    # the user-facing surface (CLI, golden reports, acceptance criteria)
    # reaches it; a unit test alone does not keep it alive.  A static or
    # class method counts only as an attribute of its own class or a
    # subclass, by name, or of cls or self: a method of another class that
    # shares its name does not keep it alive
    root = Path(__file__).resolve().parent.parent
    tests = root / "tests"
    paths = [*PACKAGE.glob("*.py"), *root.joinpath("perfbench").glob("*.py"),
             *(tests / name for name in ("test_acceptance.py", "test_golden.py", "test_cli.py"))]
    attrs, owned, names = set(), set(), set()
    for path in paths:
        a, o, n = _references(ast.parse(path.read_text(encoding="utf-8")), path.parent == tests)
        attrs |= a
        owned |= o
        names |= n
    bases = _class_bases()

    def lineage(name):
        """name and every package class it derives from."""
        return {name}.union(*(lineage(base) for base in bases.get(name, ())))

    def referenced(fn, owner):
        if owner is None:
            return fn in attrs or fn in names
        cls, static = owner
        if not static:
            return fn in attrs
        return any(attr == fn and (name in ("cls", "self") or cls in lineage(name))
                   for name, attr in owned)

    found = [f"{name}:{line} {fn}" for name, tree in _trees()
             for fn, line, owner in _defined_functions(tree)
             if not (fn.startswith("__") and fn.endswith("__")) and not referenced(fn, owner)]
    assert found == []


def test_import_leaves_out_slow_stdlib_modules():
    # a CLI call pays for every module its import loads: argparse (with
    # gettext) and dataclasses (with inspect, ast, dis and tokenize) cost more
    # than parsing a small input; -S keeps site's imports out of the count
    code = ("import sys; before = set(sys.modules); import braidedforms.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    added = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "braidedforms.cli" in added
    assert [name for name in added
            if name.partition(".")[0] in ("argparse", "gettext", "dataclasses", "inspect")] == []
