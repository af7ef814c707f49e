"""Every name a module under src/fggc/ or tests/ imports is read somewhere
in that module (package `__init__.py` files re-export theirs)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
MODULES = sorted(path for folder in ("src/fggc", "tests") for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "c")]
