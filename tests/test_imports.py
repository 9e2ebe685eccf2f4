"""Import hygiene of the package's modules.

Every name a module imports is read somewhere in that module, and a
private name (one with a leading underscore) is used only in the module
that defines it, apart from the crossings pinned in ``CROSSINGS``.
"""

import ast
from pathlib import Path

import pytest

import kooplift

PACKAGE = Path(kooplift.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Private names that still cross a module boundary, as (user, owner, name).
# The JSON checker of ``observables`` and the snapshot CSV helpers of
# ``dynamics`` are to move into modules of their own, and two helpers have
# one outside user each.  The list may only shrink: a new crossing fails.
CROSSINGS = {
    ("cli", "dynamics", "_next_row"),
    ("cli", "dynamics", "_read_rows"),
    ("cli", "dynamics", "_sha256"),
    ("cli", "learning", "_curve_lines"),
    ("learning", "observables", "_any"),
    ("learning", "observables", "_integer"),
    ("learning", "observables", "_number"),
    ("learning", "observables", "_one_of"),
    ("models", "dynamics", "_simulate_many"),
    ("models", "observables", "_FILE_KEYS"),
    ("models", "observables", "_any"),
    ("models", "observables", "_boolean"),
    ("models", "observables", "_equal"),
    ("models", "observables", "_list_of"),
    ("models", "observables", "_number"),
    ("models", "observables", "_numeric"),
    ("models", "observables", "_one_of"),
}


def _unread_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_crossings(source: str) -> set:
    """``(owner, name)`` of the private names ``source`` takes from other package modules.

    Both spellings count: ``from .owner import _name`` and ``alias._name``
    on a module bound by ``from . import owner as alias``.  Absolute
    imports from ``kooplift`` count as relative ones do.
    """
    tree = ast.parse(source)
    modules, found = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            owner = module
        elif module.split(".")[0] == "kooplift":
            owner = module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if not owner:
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.add((owner, alias.name))
    found |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)}
    return found


def test_the_scan_finds_an_unread_import():
    assert _unread_imports("import json\nimport os\nfrom a import b as c\nos.sep\n") == [
        "c", "json"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unread_imports(path):
    assert _unread_imports(path.read_text()) == []


def test_the_scan_finds_both_spellings_of_a_crossing():
    source = ("from . import __version__\nfrom . import edmd as edmd_mod\n"
              "from .models import _fit, public\nfrom kooplift.cli import _main\n"
              "from numpy import _private\nedmd_mod._stream()\nedmd_mod.stream()\n")
    assert _private_crossings(source) == {("edmd", "_stream"), ("models", "_fit"),
                                          ("cli", "_main")}


def test_private_names_cross_no_new_module_boundary():
    found = {(path.stem, owner, name) for path in sorted(PACKAGE.glob("*.py"))
             for owner, name in _private_crossings(path.read_text())}
    assert found == CROSSINGS


def test_the_streamed_r_and_its_readers_are_public():
    used = {name for path in PACKAGE.glob("*.py")
            for _, name in _private_crossings(path.read_text())}
    assert used.isdisjoint({"_stream_r", "_DataR", "_stream", "_lstsq",
                            "_linear_baseline", "_bilinear_baseline"})
