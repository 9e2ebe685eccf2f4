"""Import hygiene of the package's modules.

Every name a module imports is read somewhere in that module, and a
private name (one with a leading underscore) is used only in the module
that defines it, apart from the crossings pinned in ``CROSSINGS``.  The
JSON-file module depends on no other module of the package but
``errors``, the modules that build from JSON files leave the ``json``
module to it, the CSV-file module depends on nothing but ``errors`` and
the JSON-file module, and no other module parses or formats CSV rows.
``import kooplift`` loads neither the models, the learning nor the
command-line module.
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

# Private names that still cross a module boundary, as (user, owner, name):
# one helper has one outside user.  The list may only shrink: a new
# crossing fails.
CROSSINGS = {("models", "dynamics", "_simulate_many")}


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


def test_the_csv_file_module_imports_only_errors_and_the_json_file_module():
    assert _package_imports((PACKAGE / "_csvfile.py").read_text()) == {"errors", "_jsonfile"}


def _csv_text(source: str) -> list:
    """What in ``source`` parses CSV text or formats a CSV row of floats.

    numpy's text readers and writers; ``repr`` of a float, as
    ``repr(float(v))``, ``f"{float(v)!r}"`` or ``map(repr, ...)``; a
    ``","`` join over ``repr``'d values; and an f-string of two or more
    ``!r`` fields joined by bare commas.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("loadtxt", "savetxt", "genfromtxt"):
            found.append(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args[:1]
            if node.func.id == "repr" and args and _is_float_call(args[0]):
                found.append("repr(float())")
            elif node.func.id == "map" and args and _is_name(args[0], "repr"):
                found.append("map(repr)")
        elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
            if _is_float_call(node.value):
                found.append("float()!r")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
              and node.func.value.value == "," and any(
                  _is_name(n, "repr") or isinstance(n, ast.FormattedValue) and n.conversion == ord("r")
                  for n in ast.walk(node))):
            found.append("join of repr")
        if isinstance(node, ast.JoinedStr):
            fields = [v for v in node.values if isinstance(v, ast.FormattedValue)]
            text = {v.value for v in node.values if isinstance(v, ast.Constant)}
            if sum(v.conversion == ord("r") for v in fields) >= 2 and text <= {","}:
                found.append("f-string row")
    return found


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_float_call(node) -> bool:
    return isinstance(node, ast.Call) and _is_name(node.func, "float")


def test_the_scan_finds_every_csv_text_spelling():
    source = ("np.loadtxt(f)\nrepr(float(v))\nf'{k},{float(v)!r}'\nmap(repr, xs)\n"
              "','.join(repr(v) for v in row)\nf'{a!r},{b!r}'\n"
              "repr(path)\nf'{what}: {path!r} must be a number, got {value!r}'\n")
    assert sorted(_csv_text(source)) == sorted([
        "loadtxt", "repr(float())", "float()!r", "map(repr)", "join of repr", "f-string row"])


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "_csvfile"],
                         ids=[p.stem for p in MODULES if p.stem != "_csvfile"])
def test_only_the_csv_file_module_reads_or_writes_csv_text(path):
    assert _csv_text(path.read_text()) == []


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
