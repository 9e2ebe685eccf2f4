"""The CSV files kooplift reads and writes: one row formatter, one writer, one reader.

Every CSV table kooplift writes, the snapshot CSV and the command line's
outputs alike, is text in one form: an optional ``# `` comment line (the
provenance stamp), a header line, then one line per row.
:func:`format_rows` writes every float with ``repr``, so a load returns
the saved bits, ``-0.0`` included; only a NaN's sign and payload are
lost, as every NaN is written ``nan``.  A row may start with text of its
own, such as a step index or a model name.  :func:`write_csv` is the one
writer; it formats and writes a table in blocks of :data:`BLOCK` rows.

:func:`next_row` and :func:`read_rows` read every CSV kooplift takes:
blank and ``#`` lines are skipped, the rows are parsed by numpy's C
reader, and a ragged or non-numeric row raises :class:`ConfigError`
naming its file line.

A snapshot CSV has a binary copy of its rows, ``<stem>.npy``, and a JSON
manifest, ``<stem>.manifest.json``, which records the sha256 of both
files; :func:`read_copy` returns the copy's rows only when those digests
vouch for it, which spares a load the parse.  This module imports
nothing from the package but :mod:`kooplift.errors` and
:mod:`kooplift._jsonfile`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._jsonfile import write_json
from .errors import ConfigError

Array = np.ndarray

# Rows formatted and written at a time: the text held in memory does not
# grow with the table's length.
BLOCK = 1000


def format_rows(rows: Array, lead=None) -> str:
    """The CSV lines of a block of rows, each value written with ``repr``.

    ``lead``, when given, holds one item per row, written (with ``str``)
    as the row's first field.  ``repr`` runs once per distinct bit pattern
    of the block, not once per field: snapshot data repeat most values (a
    successor state is the next snapshot's state, a held input repeats
    over its experiment).  Bit patterns rather than values keep ``0.0``
    apart from ``-0.0``.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    words = [*map(repr, distinct.view(np.float64).tolist()), ",", "\n"]
    # Interleave field indices with separators; numpy 1.x returns a flat
    # inverse and numpy 2.x one shaped like ``bits``, so reshape explicitly.
    index = np.full((bits.shape[0], 2 * bits.shape[1]), len(distinct))
    index[:, 0::2] = inverse.reshape(bits.shape)
    index[:, -1] = len(distinct) + 1
    if lead is not None:
        index = np.hstack([len(words) + np.arange(bits.shape[0])[:, None], index])
        words += [f"{item}," for item in lead]
    return "".join(np.array(words, dtype=object)[index].ravel().tolist())


def write_csv(path, header: str, rows: Array, lead=None, comment: str | None = None,
              manifest: dict | None = None) -> Path:
    """Write the ``(N, w)`` float array ``rows`` as a CSV table at ``path``.

    The file holds the ``# comment`` line when ``comment`` is given, the
    ``header`` line, and one line per row by :func:`format_rows` (with
    ``lead``, one item per row).  Returns ``path``.

    With ``manifest`` the table is a snapshot CSV.  Its rows also go into
    the binary copy ``<stem>.npy``: the float64 rows that parsing the CSV
    returns, the saved bits except that every NaN is the one the parser
    gives for ``nan``.  Then ``manifest``, with the sha256 of the two
    files' bytes as ``csv_sha256`` and ``rows_sha256``, is written to
    ``<stem>.manifest.json``, whose path is returned.  The manifest comes
    last, so a write that fails part-way leaves none vouching for files
    that do not match it.
    """
    path = Path(path)
    rows = np.asarray(rows, dtype=np.float64)
    copy = _copy_path(path)
    if manifest is not None and copy == path:
        raise ConfigError(f"{path}: a snapshot CSV may not take its binary copy's name")
    with path.open("wb") as f:
        f.write((("" if comment is None else f"# {comment}\n") + header + "\n").encode())
        for s in range(0, len(rows), BLOCK):
            f.write(format_rows(rows[s:s + BLOCK], None if lead is None else lead[s:s + BLOCK])
                    .encode())
    if manifest is None:
        return path
    with copy.open("wb") as f:
        np.lib.format.write_array_header_1_0(f, {
            "descr": np.lib.format.dtype_to_descr(rows.dtype),
            "fortran_order": False,
            "shape": rows.shape,
        })
        for s in range(0, len(rows), BLOCK):
            block = rows[s:s + BLOCK].copy()
            block[np.isnan(block)] = np.nan
            f.write(block)
    sums = {"csv_sha256": sha256(path), "rows_sha256": sha256(copy)}
    return write_json(manifest_path_for(path), {**manifest, **sums})


def manifest_path_for(csv_path) -> Path:
    """The path of a snapshot CSV's manifest, ``<stem>.manifest.json``."""
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".manifest.json")


def _copy_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".npy")


def sha256(path) -> str:
    """The sha256 hex digest of a file's bytes, read through one 64 KiB buffer."""
    # Imported here: loading hashlib (OpenSSL) would add about 4 ms to
    # ``import kooplift``, which needs no digest.
    import hashlib

    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()


def _is_number(field: str) -> bool:
    """Whether numpy's C reader parses ``field``: ``float``'s grammar without
    the digit-group underscores and non-ASCII digits that ``float`` also takes."""
    field = field.strip()
    if "_" in field or not field.isascii():
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _malformed_row(csv_path, body, width: int) -> ConfigError:
    """The error naming the first malformed row of ``body``, ``(line number, text)`` pairs."""
    for i, line in body:
        parts = line.split(",")
        if len(parts) != width:
            return ConfigError(f"{csv_path}: malformed CSV row at line {i} (expected {width} fields)")
        if not all(map(_is_number, parts)):
            return ConfigError(f"{csv_path}: malformed CSV row at line {i} (non-numeric field)")
    return ConfigError(f"{csv_path}: malformed snapshot CSV")


def next_row(f, lineno: int):
    """Read the open text file ``f`` up to its next line that is neither blank
    nor a ``#`` comment; ``lineno`` is the number of the line read last.
    Returns ``(line number, stripped line)``, or ``None`` at the end."""
    while line := f.readline():
        lineno += 1
        line = line.strip()
        if line and not line.startswith("#"):
            return lineno, line
    return None


def read_rows(csv_path, f, lineno: int, width: int) -> Array:
    """Parse the rows left in the open text file ``f`` into an ``(N, width)`` array.

    ``lineno`` is the number of the line read last.  One ``np.loadtxt``
    call, numpy's C tokenizer, parses a clean remainder.  Blank lines
    holding whitespace and ``#`` lines between rows make it fail; then the
    rows are re-read without them and parsed again, and if that fails too,
    :func:`_malformed_row` rescans them to name the first bad one.  The
    float grammar is ``float``'s without digit-group underscores: ``1_0``
    is a non-numeric field.
    """
    start = f.tell()
    if next_row(f, lineno) is None:
        return np.empty((0, width))
    f.seek(start)
    try:
        data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is not None and data.shape[1] == width:
        return data
    f.seek(start)
    rows = [(i, ln.strip()) for i, ln in enumerate(f.read().split("\n"), start=lineno + 1)
            if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        data = np.loadtxt([ln for _, ln in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise _malformed_row(csv_path, rows, width) from None
    if data.shape[1] != width:
        raise _malformed_row(csv_path, rows, width)
    return data


def read_manifest(csv_path) -> dict | None:
    """The manifest of the snapshot CSV at ``csv_path``, or None when it has none.

    Raises :class:`ConfigError` naming the manifest unless it is a JSON object.
    """
    mpath = manifest_path_for(csv_path)
    if not mpath.exists():
        return None
    try:
        raw = json.loads(mpath.read_text())
    except ValueError as exc:
        raise ConfigError(f"{mpath}: snapshot manifest is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{mpath}: snapshot manifest is not a JSON object")
    return raw


def read_copy(csv_path, manifest: dict | None, width: int, csv_sha256: str | None):
    """The rows of the binary copy beside ``csv_path``, or None unless it is verified.

    They are returned only when ``manifest`` is given, the CSV's digest
    (``csv_sha256`` when the caller has it, else computed) is its
    ``csv_sha256``, the copy's digest is its ``rows_sha256``, and the copy
    is a C-ordered float64 ``(N, width)`` array, N being the manifest's.
    """
    if manifest is None:
        return None
    path = _copy_path(Path(csv_path))
    try:
        if (sha256(path) != manifest["rows_sha256"]
                or (csv_sha256 or sha256(csv_path)) != manifest["csv_sha256"]):
            return None
        rows = np.load(path)
    except (KeyError, OSError, ValueError):
        return None
    if (rows.dtype != np.float64 or rows.shape != (manifest.get("N"), width)
            or not rows.flags.c_contiguous):
        return None
    return rows
