"""No module imports a name it never uses, and no module exports a name it
does not define.

No linter ships with the project, so this scan stands in for one: it parses
every module under ``src/uclab``, ``tests`` and ``demos`` and fails on a
module-level import whose bound name the file never references.  Names
listed in ``__all__`` count as used; ``from __future__`` imports are ignored.
Every name in a ``uclab`` module's ``__all__`` must resolve on that module,
so a deleted function cannot leave a stale export behind.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/uclab", "tests", "demos")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            rel = path.relative_to(ROOT)
            found += [f"{rel} {hit}" for hit in unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(osp)\n"
    )
    assert unused_imports(tree) == ["line 2: os", "line 3: pi"]


def test_every_exported_name_resolves():
    stale = []
    for path in sorted((ROOT / "src/uclab").glob("*.py")):
        name = "uclab" if path.stem == "__init__" else f"uclab.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert not stale, "exported but not defined:\n" + "\n".join(stale)
