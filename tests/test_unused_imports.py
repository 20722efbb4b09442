"""Every name a ``minkact`` module imports is used in that module, every
module-level private name is used somewhere in the package, every record
field is read somewhere in the package, its demos or its tests (every
``CatalogEntry`` field in the package itself), no loop calls a one-shot
group exponential, and no test asserts a method it never calls.

Stdlib ``ast`` checks standing in for a linter's unused-import and dead-code
rules.  ``__init__`` modules are skipped by the import check: their imports are
the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minkact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from .subalgebra import Subalgebra, require_closed\nx = Subalgebra\n"
    assert unused_imports(source) == [(1, "require_closed")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree):
    """Module-level ``_name`` functions, classes and constants (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def dead_private_names(sources):
    """Private module-level names that no source loads, reads as an attribute
    or imports."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(set().union(*map(private_definitions, trees)) - used)


def test_the_check_sees_a_dead_private_name():
    source = "_LIMIT = 3\n\ndef _helper():\n    return _LIMIT\n\nclass _Spare:\n    pass\n"
    assert dead_private_names([source]) == ["_Spare", "_helper"]
    assert dead_private_names([source, "from .m import _helper, _Spare\n"]) == []


def test_every_private_name_is_used_in_the_package():
    assert dead_private_names([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def dataclass_fields(tree, class_name):
    """Annotated field names declared in the body of class ``class_name``."""
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    return {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}


def unread_fields(fields, sources):
    """Fields that no source reads as an attribute."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(set(fields) - read)


def test_the_check_sees_an_unread_field():
    source = ("@dataclass\nclass Entry:\n    name: str\n    spare: int = 0\n\n"
              "def show(e):\n    e.spare = 1\n    return e.name\n")
    fields = dataclass_fields(ast.parse(source), "Entry")
    assert fields == {"name", "spare"}
    assert unread_fields(fields, [source]) == ["spare"]


def test_every_catalog_entry_field_is_read_in_the_package():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    fields = dataclass_fields(ast.parse((SRC / "catalog.py").read_text()), "CatalogEntry")
    assert "generators" in fields
    assert unread_fields(fields, sources) == []


def record_types(tree):
    """Names of the classes that declare annotated fields: the package's
    record types, NamedTuples and the plain classes that must not be tuples."""
    return sorted(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(isinstance(stmt, ast.AnnAssign) for stmt in node.body))


def test_every_record_field_is_read():
    root = SRC.parents[1]
    readers = [p.read_text() for d in (SRC, root / "demos", root / "tests")
               for p in sorted(d.glob("*.py"))]
    trees = [ast.parse(p.read_text()) for p in MODULES]
    records = {name: dataclass_fields(tree, name) for tree in trees for name in record_types(tree)}
    assert len(records) == 21
    unread = set(unread_fields(set().union(*records.values()), readers))  # one parse of the readers
    assert {name: sorted(fields & unread)
            for name, fields in records.items()} == dict.fromkeys(records, [])


def unread_parameters(source):
    """(line, function, parameter) for each parameter of a ``def`` that its
    body never loads; ``_`` names and lambdas (record callbacks) are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out.extend((node.lineno, node.name, a.arg) for a in params
                       if not a.arg.startswith("_") and a.arg not in loaded)
    return sorted(out)


def test_the_check_sees_an_unread_parameter():
    source = ("def scale(x, factor, _hint, unused=0):\n    return x * factor\n\n"
              "def pick(point_at):\n    return lambda n: point_at(0)\n")
    assert unread_parameters(source) == [(1, "scale", "unused")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


ONE_SHOT_EXPONENTIALS = {"exp_element", "exp_element_numeric", "exp_element_exact"}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def exponentials_in_loops(source):
    """(line, name) for each call of a one-shot exponential placed lexically
    inside a ``for`` loop or a comprehension: each call recomputes the
    element's invariants and powers, which ``exp_map`` computes once."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, LOOPS):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ONE_SHOT_EXPONENTIALS:
                        found.add((node.lineno, name))
    return sorted(found)


def test_the_check_sees_an_exponential_per_t():
    # the orbit-patch loop as cmd_export once wrote it, one call per distinct t
    source = ("for k in (2, 1, 0):\n"
              "    tails = {ts[k:] for ts in triples}\n"
              "    exps = {t: exp_element(basis[k], t) for t in {tail[0] for tail in tails}}\n"
              "    points = {tail: act(exps[tail[0]], points[tail[1:]]) for tail in tails}\n"
              "for n in ladder:\n"
              "    V = group.exp_element_numeric(unit, float(n)).V\n")
    assert exponentials_in_loops(source) == [(3, "exp_element"), (6, "exp_element_numeric")]
    assert exponentials_in_loops("exp_k = exp_map(a)\nexps = [exp_k(t) for t in ts]\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_loop_calls_a_one_shot_exponential(path):
    assert exponentials_in_loops(path.read_text()) == []


def method_names(sources):
    """Names of the methods defined on the package's classes, less every name
    that is a field, a property or an assigned attribute anywhere: on these a
    bare ``obj.name`` is a bound method, and so always true."""
    methods, data = set(), set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                data.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    data.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = {getattr(d, "id", getattr(d, "attr", None))
                                  for d in stmt.decorator_list}
                    is_property = decorators & {"property", "cached_property"}
                    (data if is_property else methods).add(stmt.name)
    return methods - data


def uncalled_method_asserts(source, methods):
    """(line, name) for each ``assert`` whose test, or an operand of its
    ``not``, ``and`` or ``or``, is a bare attribute named in ``methods``: such
    an assertion can never fail (under ``not``, never pass)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        stack = [node.test] if isinstance(node, ast.Assert) else []
        while stack:
            expr = stack.pop()
            if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
                stack.append(expr.operand)
            elif isinstance(expr, ast.BoolOp):
                stack.extend(expr.values)
            elif isinstance(expr, ast.Attribute) and expr.attr in methods:
                found.append((expr.lineno, expr.attr))
    return sorted(found)


def test_the_check_sees_an_uncalled_method():
    source = ("class Poly(NamedTuple):\n    degree: int\n\n"
              "    def is_zero(self):\n        return not self.degree\n\n"
              "    @property\n    def dim(self):\n        return 4\n")
    assert method_names([source]) == {"is_zero"}
    asserts = ("assert p.is_zero\nassert not q.is_zero\nassert p.dim and r.is_zero\n"
               "assert p.is_zero() and p.degree\n")
    assert uncalled_method_asserts(asserts, {"is_zero"}) == [
        (1, "is_zero"), (2, "is_zero"), (3, "is_zero")]


def test_no_assertion_tests_an_uncalled_method():
    root = SRC.parents[1]
    methods = method_names([p.read_text() for p in sorted(SRC.glob("*.py"))])
    assert "is_zero" in methods
    paths = sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench").glob("test_*.py"))
    found = {p.name: uncalled_method_asserts(p.read_text(), methods) for p in paths}
    assert found == dict.fromkeys(found, [])


def defaulted_parameters(source):
    """(function, position, parameter) for each parameter with a default of a
    module-level function; keyword-only parameters have position None."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            found.extend((node.name, i, a.arg) for i, a in enumerate(positional) if i >= first)
            found.extend((node.name, None, a.arg)
                         for a, default in zip(args.kwonlyargs, args.kw_defaults) if default)
    return found


def passed_arguments(sources):
    """Per called name (a function or an attribute): the most positional
    arguments one call passes, unbounded through ``*args``, and the keywords
    passed, None standing for a ``**kwargs``."""
    positional, keywords = {}, {}
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
                positional[name] = max(positional.get(name, 0), count)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return positional, keywords


def options_without_caller(definitions, callers):
    """'function(parameter=)' for each defaulted parameter that no call in
    ``callers`` passes, by keyword, by position or through ``*args`` or
    ``**kwargs``: an option nobody sets is a second code path nobody runs."""
    positional, keywords = passed_arguments(callers)
    return sorted(f"{name}({param}=)" for source in definitions
                  for name, position, param in defaulted_parameters(source)
                  if not {param, None} & keywords.get(name, set())
                  and (position is None or positional.get(name, 0) <= position))


def test_the_check_sees_an_option_without_a_caller():
    source = ("def scale(x, factor=1, spare=0, *, unit=None, label=''):\n    return x\n\n"
              "def pick(a, b=2):\n    return a\n")
    assert defaulted_parameters(source) == [
        ("scale", 1, "factor"), ("scale", 2, "spare"), ("scale", None, "unit"),
        ("scale", None, "label"), ("pick", 1, "b")]
    calls = "scale(2, 3)\nobj.scale(1, unit=2)\npick(1)\n"
    assert options_without_caller([source], [calls]) == [
        "pick(b=)", "scale(label=)", "scale(spare=)"]
    spread = "pick(*pair)\nscale(1, **options)\n"
    assert options_without_caller([source], [calls, spread]) == []


def test_every_option_has_a_caller():
    root = SRC.parents[1]
    callers = [p.read_text() for d in (SRC, root / "tests", root / "demos", root / "perfbench")
               for p in sorted(d.glob("*.py"))]
    assert options_without_caller([p.read_text() for p in MODULES], callers) == []
