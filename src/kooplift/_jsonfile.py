"""The JSON files kooplift reads and writes: one checker, one reader, one writer.

Dictionary, model and ``learn``-config files, the command line's outputs
and the snapshot manifest are JSON objects.  :func:`write_json` writes
every one of them in one text form (two-space indent, sorted keys, a
final newline), so equal objects give equal bytes.  :func:`read_json`
reads every file a reader takes and hands the object to a ``build``
function; a failure raises :class:`ConfigError` (or the
:class:`DimensionMismatch` of ``build``) whose message starts with the
file's path.

``build`` checks its object against a *table*, which maps each key to
``(check, default)``; a default of ``...`` marks a required key.  A check
takes a value, its key path and the name of the object that holds it,
and returns the value as the reader uses it or raises ConfigError naming
the path.  A table is itself the check of a nested object, and
:func:`check_json` applies one.  The tables stay beside the classes they
build (``observables.FAMILIES``, ``models._model_table``,
``learning._CONFIG``); this module holds only the mechanism, so that it
imports nothing from the package but :mod:`kooplift.errors`.
"""

from __future__ import annotations

import json
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch


def json_number(value, path: str, what: str, integer: bool = False):
    """``value`` when it is a JSON number, or an integer with ``integer``.

    Anything else, a boolean or a numeric string included, raises
    :class:`ConfigError` naming ``path`` inside the JSON object ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{what}: {path!r} must be {kind}, got {value!r}")
    return value


def json_array(value, path: str, what: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``; a None in ``shape`` allows any length.

    A value that is not a numeric array of that shape (a string, a ragged
    nesting, a boolean or null entry) raises :class:`ConfigError` naming
    ``path`` inside the JSON object ``what``.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        a = np.asarray(None)
    if (a.dtype.kind not in "iuf" or a.ndim != len(shape)
            or any(k is not None and k != d for k, d in zip(shape, a.shape))):
        dims = " x ".join("n" if k is None else str(k) for k in shape)
        raise ConfigError(f"{what}: {path!r} must be a numeric array of shape {dims}")
    return a.astype(float)


# ----------------------------------------------------------------------
# Leaf checks


def number(low=-np.inf, high=np.inf, integer: bool = False):
    """The check of a finite number in ``[low, high]``, of an integer with ``integer``."""

    def check(value, path: str, what: str):
        if not (low <= json_number(value, path, what, integer) <= high
                and (integer or np.isfinite(value))):
            bounds = f">= {low}" + (f" and <= {high}" if high < np.inf else "")
            raise ConfigError(f"{what}: {path!r} must be {'' if integer else 'finite and '}"
                              f"{bounds}, got {value!r}")
        return int(value) if integer else float(value)

    return check


def integer(low=-np.inf):
    """The check of an integer of at least ``low``."""
    return number(low, integer=True)


def numeric(*shape):
    """The check of a numeric array of ``shape``, by :func:`json_array`."""
    return lambda value, path, what: json_array(value, path, what, shape)


def list_of(item, of: str, least: int = 0):
    """The check of a list of at least ``least`` entries, each passing ``item``.

    ``of`` names the entries in the error.
    """

    def check(value, path: str, what: str) -> list:
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise ConfigError(f"{what}: {path!r} must be a list of {of}, got {value!r}")
        return [item(v, f"{path}[{i}]", what) for i, v in enumerate(value)]

    return check


def _instance(kind: type, noun: str):
    """The check of a value of type ``kind``; ``noun`` names it in the error."""

    def check(value, path: str, what: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{what}: {path!r} must be {noun}, got {value!r}")
        return value

    return check


string, boolean = _instance(str, "a string"), _instance(bool, "true or false")


def one_of(choices, noun: str):
    """The check of a string among ``choices``; ``noun`` names it in the error."""

    def check(value, path: str, what: str) -> str:
        if not isinstance(value, str) or value not in choices:
            need = f"one of {sorted(choices)}" if isinstance(value, str) else "a string"
            raise ConfigError(f"{what}: unknown {noun} {value!r}; {path!r} must be {need}")
        return value

    return check


def any_value(value, path: str, what: str):
    """Any value: the check of a key its reader checks outside the table."""
    return value


def equal(want):
    """The check of a key that is written from ``want`` and never read."""

    def check(value, path: str, what: str):
        if type(value) is not type(want) or value != want:
            raise ConfigError(f"{what}: {path!r} must be {want!r} to agree, got {value!r}")
        return value

    return check


# The keys every dictionary and model file has besides its kind's: ``format``
# and ``kind``, which the readers check first, and ``meta``, the provenance
# stamp the command line adds to the files it writes, which is not read.
FILE_KEYS = {"format": (any_value, ...), "kind": (any_value, ...), "meta": (any_value, None)}


def check_json(table: dict, obj, what: str, path: str = "") -> dict:
    """``obj`` checked against ``table``, defaults filled in.

    The one check of every JSON object kooplift reads, and of a family's
    parameters.  ``obj`` must be a JSON object that holds every required
    key and no key ``table`` lacks, and each value must pass its check;
    nested tables are checked alike.  Unknown keys are refused first, then
    missing ones, then the values in table order.  The first failure
    raises :class:`ConfigError` naming the key's path inside the object
    ``what``: ``path`` is the path of ``obj`` itself (``"dims"``), so a
    nested key is named as ``dims.s``.  The result holds every key of
    ``table``: the value as its check returns it, or the default for a key
    left out or, where the default is None, null.
    """
    where, prefix = (repr(path), f"{path}.") if path else ("the top level", "")
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: {where} is not a JSON object")
    for key in obj:
        if key not in table:
            raise ConfigError(f"{what}: unknown key; {where} takes no {key!r} key "
                              f"({prefix + key!r}), only {list(table)}")
    for key, (_, default) in table.items():
        if default is ... and key not in obj:
            raise ConfigError(f"{what} has no {prefix + key!r} key")
    return {key: default if obj.get(key) is None and (key not in obj or default is None)
            else check_json(check, obj[key], what, prefix + key) if isinstance(check, dict)
            else check(obj[key], prefix + key, what) for key, (check, default) in table.items()}


# ----------------------------------------------------------------------
# Files


def require_file(path, what: str) -> Path:
    """``path`` when it names a file; else :class:`ConfigError` starting with the path.

    ``what`` names the file's role (``"model"``, ``"data"``) in the message.
    """
    path = Path(path)
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise ConfigError(f"{path} {problem} ({what} file)")
    return path


def read_json(path, what: str, build):
    """``build`` of the JSON object in a ``what`` file.

    The one reader of the JSON files kooplift takes.  A file that is
    missing, not valid JSON or not a JSON object raises
    :class:`ConfigError`, and ``build`` raising :class:`ConfigError` or
    :class:`DimensionMismatch` raises the same kind of error; each message
    starts with the file's path.
    """
    path = require_file(path, what)
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: {what} file is not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: {what} file is not a JSON object")
    try:
        return build(obj)
    except (ConfigError, DimensionMismatch) as err:
        raise type(err)(f"{path}: {err}") from None


def json_float(value):
    """``value`` as a float, or None (JSON null) when it is not finite.

    ``json.dumps`` writes ``Infinity`` and ``NaN``, which strict JSON
    parsers refuse, so the writers of non-finite metrics map them here.
    """
    value = float(value)
    return value if np.isfinite(value) else None


def write_json(path, obj: dict) -> Path:
    """Write ``obj`` to ``path`` in kooplift's one JSON text form; return the path."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path
