"""Stale names: every exported name resolves, and no module imports a name
it never uses, so a removal cannot leave a dangling export or import."""

import ast
from pathlib import Path

import pytest

import scorerisk

MODULES = sorted(
    path for path in Path(scorerisk.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def test_every_exported_name_resolves():
    missing = [name for name in scorerisk.__all__ if not hasattr(scorerisk, name)]
    assert not missing


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"imported and never used (name: line): {unused}"
