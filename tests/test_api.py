"""The package's public names: __all__ is the whole, exact export list.

Every module of the package and of the tests reads each name it imports,
and every public name a module binds to None is a benchmark hook target.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import teatpose


def test_all_sorted_and_unique():
    assert teatpose.__all__ == sorted(set(teatpose.__all__))


def test_every_name_resolves():
    missing = [n for n in teatpose.__all__ if not hasattr(teatpose, n)]
    assert missing == []


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from teatpose import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(teatpose.__all__)


def _unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name an import binds in path and no
    expression of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read]


def test_no_unused_imports():
    # The package re-exports its names by importing them, so its
    # __init__ is the one module whose imports need no reader.
    modules = [p for p in sorted(Path(teatpose.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    modules += sorted(Path(__file__).parent.glob("*.py"))
    assert [u for p in modules for u in _unused_imports(p)] == []


def _placeholders() -> set[tuple[str, str]]:
    """(module, name) of each public module-level `name = None` of the
    package, chained targets included."""
    out = set()
    for path in sorted(Path(teatpose.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is None):
                out |= {(f"teatpose.{path.stem}", t.id) for t in node.targets
                        if isinstance(t, ast.Name)
                        and not t.id.startswith("_")}
    return out


def _benchmark_hooks() -> set[tuple[str, str]]:
    """(module, attribute) of each entry of perfbench/spans.py HOOKS, read
    from the source without importing the benchmark."""
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["HOOKS"]):
            return {(e.elts[0].value, e.elts[1].value)
                    for e in node.value.elts}
    raise AssertionError("perfbench/spans.py binds no HOOKS")


def test_placeholders_match_benchmark_hooks():
    # A name kept bound to None exists only so that a hook resolves; once
    # the benchmark drops the hook, the placeholder must go too.
    hooks = _benchmark_hooks()
    assert sorted(_placeholders() - hooks) == []
    assert sorted((m, a) for m, a in hooks
                  if not hasattr(importlib.import_module(m), a)) == []
