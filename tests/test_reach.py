"""Every top-level function and class in `src/medgraph` has a caller
outside the tests.

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
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "medgraph"
BENCH = ROOT / "bench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
