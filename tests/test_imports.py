"""Every name a module of the package imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import kooplift

MODULES = sorted(p for p in Path(kooplift.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unread_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_finds_an_unread_import():
    assert _unread_imports("import json\nimport os\nfrom a import b as c\nos.sep\n") == [
        "c", "json"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unread_imports(path):
    assert _unread_imports(path.read_text()) == []
