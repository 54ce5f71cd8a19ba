"""Every name a herzkit module imports is used in that module.

The package's ``__init__`` re-exports what it imports and is left out;
``from __future__`` imports bind no name.
"""

import ast
import pathlib

import pytest

import herzkit

MODULES = sorted(p for p in pathlib.Path(herzkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_and_used(tree: ast.Module) -> tuple[dict, set]:
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
