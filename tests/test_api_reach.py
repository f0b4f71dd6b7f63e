"""Every public package name is mentioned by the package or the benchmark.

The check parses ``src/samsbo/*.py`` (except ``__init__.py``) and
``perfbench/*.py`` and fails on a name in a package module's ``__all__`` that
none of those files mentions.  A mention is a name read or bound in code, an
attribute name or a ``from ... import`` alias; the ``__all__`` strings and
the re-exports of ``__init__.py`` do not count, nor does the definition
itself.  It checks names only: a name mentioned somewhere can still be dead,
for instance when its one mention sits in code no run reaches.  A helper
only tests call belongs in ``tests/``.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "samsbo"


def _modules() -> dict[Path, ast.Module]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _mentioned(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id != "__all__":
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_mentioned_outside_tests():
    modules = _modules()
    mentioned = set().union(*(_mentioned(tree) for tree in modules.values()))
    unmentioned = [f"{path.stem}.{name}" for path, tree in modules.items()
                   if path.parent == PACKAGE
                   for name in _exported(tree) if name not in mentioned]
    assert not unmentioned, f"exported but mentioned only by tests: {unmentioned}"


def test_the_scan_reads_package_and_benchmark():
    modules = _modules()
    assert {"bounds", "safeopt", "cli"} <= {p.stem for p in modules if p.parent == PACKAGE}
    assert "layertrace" in {p.stem for p in modules if p.parent.name == "perfbench"}
    assert "robust_model" in _exported(modules[PACKAGE / "bounds.py"])
