"""Every module-level package name is read by the package or the benchmark.

The check parses ``src/samsbo/*.py`` (except ``__init__.py``) and
``perfbench/*.py`` and fails on a name that a package module's top-level
statements bind (a function, a class, an assigned constant or an import) and
that none of those files reads.  A read is a name loaded in code, an
attribute loaded by its name or a ``from ... import`` alias; a binding is not
a read, nor are the ``__all__`` strings and the re-exports of
``__init__.py``.  ``__all__``, ``__version__`` and ``__future__`` imports are
not checked.  It checks names only: a name read somewhere can still be dead,
for instance when its one read sits in code no run reaches.  A helper or a
constant only tests read belongs in ``tests/``.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "samsbo"
UNCHECKED = {"__all__", "__version__"}


def _modules() -> dict[Path, ast.Module]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _bound(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return [name for name in names if name not in UNCHECKED]


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_name_is_read_outside_tests():
    modules = _modules()
    read = set().union(*(_read(tree) for tree in modules.values()))
    unread = [f"{path.stem}.{name}" for path, tree in modules.items()
              if path.parent == PACKAGE
              for name in _bound(tree) if name not in read]
    assert not unread, f"bound at module level but read only by tests: {unread}"


def test_the_scan_reads_package_and_benchmark():
    modules = _modules()
    assert {"bounds", "safeopt", "cli"} <= {p.stem for p in modules if p.parent == PACKAGE}
    assert "layertrace" in {p.stem for p in modules if p.parent.name == "perfbench"}
    bounds = _bound(modules[PACKAGE / "bounds.py"])
    assert {"robust_model", "_check_size", "math", "ConfidenceSet"} <= set(bounds)
    assert not {"annotations", "__all__"} & set(bounds)
