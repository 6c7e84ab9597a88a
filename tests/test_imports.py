"""Every name a package or test module imports is used there or re-exported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fogtrust"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Imported names that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda path: path.name if path.parent == PACKAGE else "tests/" + path.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_import_form():
    source = ("from __future__ import annotations\n"
              "import csv\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .errors import EmptyDesign as Empty\n"
              "from .keys import KeyPair\n"
              "__all__ = ['KeyPair']\n"
              "@dataclass\n"
              "class Row:\n"
              "    path: str = os.path.sep\n")
    assert unused_imports(source) == ["Empty (line 5)", "csv (line 2)",
                                      "field (line 4)"]
