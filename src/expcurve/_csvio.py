"""The package's one CSV writer and its one CSV reader, both column-wise
and both working ``_CHUNK`` rows at a time, so that neither holds more than a
block of Python objects or text. Series, parameter and error tables are all
written and read here."""

from __future__ import annotations

import csv
import io
import re
import warnings

import numpy as np

_CHUNK = 4096

# The one definition of the float format.
_FLOAT_FIELD = "{:.17g}"
_fmt = _FLOAT_FIELD.format

# Bound at import: the codec is the one place that writes CSV, so patching
# ``csv.writer`` afterwards shows whether any other write path is left.
_csv_writer = csv.writer


def _quote(value) -> str:
    """``value`` as ``csv.writer`` writes it among other fields."""
    buf = io.StringIO()
    _csv_writer(buf).writerow((value, ""))  # a lone empty field would be quoted
    return buf.getvalue()[: -len(",\r\n")]


def write_csv(path, header, *blocks) -> None:
    """Write ``header`` and the rows of each block of columns to ``path``.

    A block is a sequence of equal-length columns, one per header field. The
    bytes are those ``csv.writer`` writes: minimal quoting, applied once per
    distinct text value, and ``\\r\\n`` line ends. Float columns get 17
    significant digits, so a round trip is exact. Each ``_CHUNK`` rows are
    formatted with one row template and written with one call.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for block in blocks:
            fields, columns = [], []
            for col in map(np.asarray, block):
                fields.append(_FLOAT_FIELD if col.dtype.kind == "f" else "{}")
                if col.dtype.kind in "USO":
                    values, col = np.unique(col, return_inverse=True)
                    columns.append((np.array([_quote(v) for v in values.tolist()], dtype=object), col))
                else:
                    columns.append((None, col))
            row = (",".join(fields) + "\r\n").format
            for lo in range(0, len(columns[0][1]), _CHUNK):
                text = [
                    (col[lo:lo + _CHUNK] if quoted is None else quoted[col[lo:lo + _CHUNK]]).tolist()
                    for quoted, col in columns
                ]
                fh.write("".join(map(row, *text)))


def read_csv(path, columns: dict, what: str) -> dict[str, np.ndarray]:
    """Read the named columns of a CSV whose first row is a header.

    ``columns`` maps each wanted name to its type (``str``, an integer type
    or ``float``); the header may hold other columns, in any order. Text
    columns come back as ``str`` arrays as wide as their longest value.
    Blank lines are skipped, and so is a UTF-8 byte-order mark. Raises
    ``ValueError`` naming ``what`` for a missing column, a row that ends
    before one of them, or a value that does not parse; the last two name
    their data row, counted from 1 below the header.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{what} missing column(s): {', '.join(missing)}")
        # text is parsed into objects, then sized to its longest value
        dtype = [(name, object if kind is str else kind) for name, kind in columns.items()]
        usecols = [header.index(name) for name in columns]
        parts = {name: [] for name in columns}
        done = 0
        while True:
            try:
                with warnings.catch_warnings():
                    # an empty last block and blank lines are expected
                    warnings.simplefilter("ignore", UserWarning)
                    block = np.loadtxt(
                        fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                        usecols=usecols, max_rows=_CHUNK, ndmin=1,
                    )
            except ValueError as exc:
                msg = str(exc)
                row = re.search(r"at row (\d+)", msg)
                if row is None:
                    raise
                # in each block NumPy counts a short row from 1, a bad value from 0
                short = msg.startswith("invalid column index")
                at = f"at data row {done + int(row.group(1)) + (not short)}"
                if short:
                    raise ValueError(f"{what} has a row with missing fields {at}") from None
                raise ValueError(f"{what}: {msg[:row.start()]}{at}{msg[row.end():]}") from None
            # copies, so that no block outlives its loop
            for name, kind in columns.items():
                parts[name].append(block[name].astype(str) if kind is str else block[name].copy())
            done += len(block)
            if len(block) < _CHUNK:
                break
    return {name: np.concatenate(cols) for name, cols in parts.items()}
