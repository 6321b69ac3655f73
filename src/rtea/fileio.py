"""CSV/JSON artifact plumbing: atomic writes, digests, signal tables.

CSV files carry a header row, full-precision decimal floats and LF line
endings; floats are written with ``repr`` so a re-read round-trips exactly.
Every file is written as UTF-8, whatever the locale, through a temp file
renamed into place.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np


def _atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8; return the SHA-256 hex digest of
    the bytes written."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            data = text.encode("utf-8")
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def write_columns_csv(path: str, columns: dict[str, np.ndarray]) -> str:
    """Write named columns of equal length as a CSV table; return the
    SHA-256 hex digest of the bytes written."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
    # each column is formatted once: integers as such, everything else as
    # the repr of a float, which reads back to the same double
    cells = [
        map(str, a.tolist()) if np.issubdtype(a.dtype, np.integer)
        else map(repr, a.astype(float).tolist())
        for a in arrays
    ]
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    for row in zip(*cells):
        buf.write(",".join(row) + "\n")
    return _atomic_write_text(path, buf.getvalue())


def read_columns_csv(path: str) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_columns_csv` (or any headered
    numeric table; a single headerless column is accepted as ``y``).  A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped."""
    return read_columns_csv_sha256(path)[0]


def read_columns_csv_sha256(path: str) -> tuple[dict[str, np.ndarray], str]:
    """The columns of :func:`read_columns_csv` and the SHA-256 hex digest of
    the bytes they were parsed from (the file is read once)."""
    with open(path, "rb") as fh:
        data = fh.read()
    # decoded as the file would be, chunk by chunk, with no full-text copy
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        rows = [r for r in csv.reader(text) if r]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = rows[0]
    try:
        [float(v) for v in header]
    except ValueError:
        data_rows = rows[1:]
    else:
        if len(header) != 1:
            raise ValueError(f"{path}: headerless CSV must have a single column")
        header = ["y"]
        data_rows = rows
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"{path}: column name {repeated[0]!r} is repeated in the header")
    cols = {name: np.empty(len(data_rows)) for name in header}
    for i, row in enumerate(data_rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 1} has {len(row)} fields, expected {len(header)}")
        for name, v in zip(header, row):
            try:
                cols[name][i] = float(v)
            except ValueError:
                raise ValueError(
                    f"{path}: row {i + 1}, column {name!r}: not a number: {v!r}"
                ) from None
    return cols, hashlib.sha256(data).hexdigest()


def write_json(path: str, obj) -> None:
    # strict JSON: a non-finite float raises instead of writing NaN or Infinity
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()
