"""Import hygiene of the package's modules.

Every name a module imports is read somewhere in that module, and a
private name (one with a leading underscore) is used only in the module
that defines it, apart from the crossings pinned in ``CROSSINGS``.  The
JSON-file module depends on no other module of the package but
``errors``, the modules that build from JSON files leave the ``json``
module to it, and ``import kooplift`` loads neither the models, the
learning nor the command-line module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kooplift

PACKAGE = Path(kooplift.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Private names that still cross a module boundary, as (user, owner, name).
# The snapshot CSV helpers of ``dynamics`` are to move into a module of
# their own, and one helper has one outside user.  The list may only
# shrink: a new crossing fails.
CROSSINGS = {
    ("cli", "dynamics", "_next_row"),
    ("cli", "dynamics", "_read_rows"),
    ("cli", "dynamics", "_sha256"),
    ("models", "dynamics", "_simulate_many"),
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


def _package_imports(source: str) -> set:
    """The package modules ``source`` imports from, by their names in the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kooplift"):
            found.add(node.module.partition(".")[2] or "kooplift")
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "kooplift" for a in node.names
                      if a.name.split(".")[0] == "kooplift"}
    return found


def test_the_scan_finds_every_spelling_of_a_package_import():
    source = ("from .errors import ConfigError\nfrom . import models\n"
              "from kooplift.edmd import stream\nimport kooplift.cli\nimport json\n")
    assert _package_imports(source) == {"errors", "models", "edmd", "cli"}


def test_the_json_file_module_imports_only_errors_from_the_package():
    assert _package_imports((PACKAGE / "_jsonfile.py").read_text()) == {"errors"}


@pytest.mark.parametrize("module", ["observables", "models", "learning"])
def test_the_json_file_readers_leave_json_to_the_json_file_module(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert "json" not in imported


def test_importing_the_package_loads_no_models_learning_or_cli():
    """The tables of model and config files stay in their modules, so this holds."""
    code = ("import sys, kooplift\n"
            "print(sorted(m for m in ('kooplift.models', 'kooplift.learning', 'kooplift.cli')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout.strip() == "[]"
