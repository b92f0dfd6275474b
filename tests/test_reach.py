"""Every top-level function and class in `src/medgraph` has a caller
outside the tests, and every option of a src function is set by one.

The check is static.  Each `src/medgraph/*.py` and `bench/*.py` file is
parsed with `ast`; a reference is a bare name, an attribute name or an
imported name.  The roots are the whole `cli` module, the names in
`medgraph.__all__`, the module-level code of every `src` module (all but
its `def`, `class` and `import` statements: importing a name does not call
it) and every name that `bench/*.py` uses.
From the roots, references are followed by name through the bodies of the
definitions they reach, up to a fixed point.  Names are not resolved to
modules, so two definitions that share a name are reached together; that
can only hide an unreached definition, never invent one.

An option is a parameter with a default.  It is set when some call in
`src/medgraph/*.py` or `bench/*.py` of a function of that name passes it
by keyword or by position, or passes `*args` or `**kwargs`; a method's
position counts after `self`, and a class call sets its `__init__`.  A
function named anywhere but as the callee of a call, say passed as a
value, counts as having every option set.  So this check too can only
miss an unset option, never report one that some call sets.

A name that a `tests/*.py` file imports must be read in that file: some
bare name that loads it.  `from __future__` imports bind no name.  No
`tests/*.py` file imports a `test_*` module: a helper that two test
modules share lives in `tests/reference.py`.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "medgraph"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)
_ALL = "*"                  # a call or a reference that sets every option


def _references(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unreached_definitions(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    """`module.name` of every top-level src definition no root reaches."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.stem
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append((module, node))
                if module == "cli":
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _references([node])
        if module == "__init__":
            roots |= _all_names(tree)
    for path in sorted(bench.glob("*.py")):
        roots |= _references([ast.parse(path.read_text(), filename=str(path))])

    reached: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        refs = _references(node for _, node in defs[name])
        todo.extend(r for r in refs if r in defs and r not in reached)
    return sorted(f"{module}.{name}" for name, found in defs.items()
                  if name not in reached for module, _ in found)


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unset_options(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    """`module.function(option)` of every src option that no call sets."""
    src_trees = [(path.stem, ast.parse(path.read_text(), filename=str(path)))
                 for path in sorted(src.glob("*.py"))]
    trees = [tree for _, tree in src_trees] + [
        ast.parse(path.read_text(), filename=str(path))
        for path in sorted(bench.glob("*.py"))]
    given: dict[str, set] = {}   # name -> positions and keywords some call sets
    for tree in trees:
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in calls}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load) and id(node) not in callees:
                given.setdefault(_name(node), set()).add(_ALL)
        for call in calls:
            got = given.setdefault(_name(call.func), set())
            got.update(range(len(call.args)))
            got.update(k.arg or _ALL for k in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args):
                got.add(_ALL)
    unset = []
    for module, tree in src_trees:
        methods = {id(f): (cls.name if f.name == "__init__" else f.name, 1)
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, _FUNCS)}
        for f in ast.walk(tree):
            if not isinstance(f, _FUNCS):
                continue
            name, skip = methods.get(id(f), (f.name, 0))
            got = given.get(name, set())
            args = f.args.posonlyargs + f.args.args
            first = len(args) - len(f.args.defaults)
            options = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
            options += [(a.arg, None) for a, default
                        in zip(f.args.kwonlyargs, f.args.kw_defaults)
                        if default is not None]
            unset += [f"{module}.{name}({arg})" for arg, pos in options
                      if not got & {_ALL, arg, pos}]
    return sorted(unset)


def unread_imports(tests: Path = TESTS) -> list[str]:
    """`file:name` of every name a test file imports and never reads."""
    unread = []
    for path in sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{name}" for name in sorted(imported - read)]
    return unread


def imported_test_modules(tests: Path = TESTS) -> list[str]:
    """`file:module` of every `test_*` module a test file imports."""
    found = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{a.name}" for a in node.names
                          if a.name.startswith("test_")]
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("test_"):
                found.append(f"{path.name}:{node.module}")
    return found


def test_every_src_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions()
    assert not unreached, (
        f"{len(unreached)} src definitions are reached only from tests: "
        + ", ".join(unreached))


def test_the_reach_walk_sees_an_unreached_definition(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import f\n__all__ = ['f']\n")
    (src / "a.py").write_text(
        "def f():\n    return g()\n\n"
        "def g():\n    return 1\n\n"
        "def h():\n    return f()\n\n"
        "class K(Base):\n    pass\n\n"
        "class Base:\n    pass\n\n"
        "TABLE = {'k': K}\n")
    (src / "cli.py").write_text("def main():\n    return 0\n")
    (bench / "run.py").write_text("import x\nx.used_by_bench()\n")
    (src / "b.py").write_text(
        "from .a import h\n\ndef used_by_bench():\n    return 0\n")
    assert unreached_definitions(src, bench) == ["a.h"]


def test_every_src_option_is_set_outside_the_tests():
    unset = unset_options()
    assert not unset, (
        f"{len(unset)} src options are set only from tests, or never: "
        + ", ".join(unset))


def test_the_option_walk_sees_an_unset_option(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def f(x, unset=0, by_keyword=0):\n    return x\n\n"
        "def g(x, by_position=0):\n    return x\n\n"
        "def h(x, by_star=0):\n    return x\n\n"
        "def j(x, by_star_star=0):\n    return x\n\n"
        "def k(x, by_value=0):\n    return x\n\n"
        "class C:\n"
        "    def __init__(self, by_class_call=0):\n        pass\n\n"
        "    def m(self, by_method_position=0, unset_too=0):\n"
        "        return f(1, by_keyword=2)\n")
    (bench / "run.py").write_text(
        "import a\nargs = (1, 2)\n"
        "a.g(1, 2)\na.h(*args)\na.j(1, **{})\nfn = a.k\na.C(1).m(1)\n")
    assert unset_options(src, bench) == ["a.f(unset)", "a.m(unset_too)"]


def test_every_test_import_is_read():
    unread = unread_imports()
    assert not unread, (
        f"{len(unread)} names are imported by a test file and never read: "
        + ", ".join(unread))


def test_the_import_walk_sees_an_unread_name(tmp_path):
    # the walk for test-module imports reads the same fixture
    (tmp_path / "test_a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nimport sys\nimport test_c\n"
        "from x import (read, unread, aliased as al, shadowed)\n\n"
        "def test_f(p: read) -> None:\n"
        "    from test_b import helper\n"
        "    shadowed = os.getcwd()\n    js.dumps(al, helper, test_c)\n")
    assert unread_imports(tmp_path) == [
        "test_a.py:shadowed", "test_a.py:sys", "test_a.py:unread"]
    assert imported_test_modules(tmp_path) == [
        "test_a.py:test_c", "test_a.py:test_b"]


def test_no_test_module_imports_another():
    imported = imported_test_modules()
    assert not imported, (
        "test files import test modules; move the shared helpers to "
        "tests/reference.py: " + ", ".join(imported))

