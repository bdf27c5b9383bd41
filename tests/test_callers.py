"""Every definition in src/qhead has a caller in the package, a demo or the benchmark.

Code that only tests call belongs in the tests. This scan collects the names
that ``src/qhead`` (apart from the re-exports in ``__init__.py``),
``demos/`` and ``bench/`` use, and fails on each top-level function or class
of the package, and each method that is not a dunder, whose name none of them
uses.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "qhead").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

# definitions kept without such a caller, each with its reason
ALLOWED = {
    "save_embeddings_csv": "writes the CSV form that load_embeddings reads",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names() -> set[str]:
    names: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _definitions():
    """(name, where) of each top-level definition and non-dunder method."""
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield node.name, f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, DEFINITIONS):
                        continue
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, f"{path.stem}.{node.name}.{item.name}"


def test_every_definition_has_a_caller_outside_tests():
    used = _used_names()
    uncalled = {name: where for name, where in _definitions() if name not in used}
    assert sorted(uncalled) == sorted(ALLOWED), (
        f"uncalled outside tests: {sorted(uncalled.values())}; allowed: {sorted(ALLOWED)}")
