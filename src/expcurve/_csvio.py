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


def _quote(value, lone: bool) -> str:
    """``value`` as ``csv.writer`` writes it among other fields or, if
    ``lone``, as the one field of its row, where an empty value is quoted."""
    buf = io.StringIO()
    _csv_writer(buf).writerow((value,) if lone else (value, ""))
    return buf.getvalue()[: -len("\r\n") if lone else -len(",\r\n")]


def _chunk_text(quoted, chunk) -> tuple[str, list]:
    """One column's field of the row template and its values in one chunk.

    Text comes quoted already, as ``quoted[chunk]``. In a float chunk in
    which some value has the bits of the value in the row above (bits, not
    values, so ``-0.0`` and ``0.0`` stay apart), each run of such values is
    formatted once here and its text reused; other floats are formatted by
    the template.
    """
    if quoted is not None:
        return "{}", quoted[chunk].tolist()
    if chunk.dtype.kind != "f":
        return "{}", chunk.tolist()
    bits = chunk.view(f"V{chunk.itemsize}")
    starts = np.concatenate(([True], bits[1:] != bits[:-1]))
    if starts.all():
        return _FLOAT_FIELD, chunk.tolist()
    text = np.array([_fmt(v) for v in chunk[starts].tolist()], dtype=object)
    return "{}", text[np.cumsum(starts) - 1].tolist()


def write_csv(path, header, *blocks) -> None:
    """Write ``header`` and the rows of each block of columns to ``path``.

    A block is a sequence of equal-length columns, one per header field. The
    bytes are those ``csv.writer`` writes: minimal quoting, applied once per
    distinct text value, and ``\\r\\n`` line ends. Float columns get 17
    significant digits, so a round trip is exact. Each ``_CHUNK`` rows are
    formatted with one row template and written with one call. Within a
    chunk, a run of floats whose bits equal those of the float in the row
    above is formatted once (``_chunk_text``); a float column with no such
    repeat in the chunk is formatted by the template.
    """
    lone = len(header) == 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quote(name, lone) for name in header) + "\r\n")
        for block in blocks:
            columns = []
            for col in map(np.asarray, block):
                if col.dtype.kind in "USO":
                    values, col = np.unique(col, return_inverse=True)
                    columns.append((np.array([_quote(v, lone) for v in values.tolist()], dtype=object), col))
                else:
                    columns.append((None, col))
            for lo in range(0, len(columns[0][1]), _CHUNK):
                fields, text = zip(*(_chunk_text(q, col[lo:lo + _CHUNK]) for q, col in columns))
                row = (",".join(fields) + "\r\n").format
                fh.write("".join(map(row, *text)))


class RowError(ValueError):
    """A :func:`read_csv` fault in data row ``row`` (from 1 below the header):
    a row that ends before a wanted column if ``short``, else a bad value."""

    def __init__(self, message: str, row: int, short: bool):
        super().__init__(message)
        self.row, self.short = row, short


def read_csv(path, columns: dict, what: str) -> dict[str, np.ndarray]:
    """Read the named columns of a CSV whose first row is a header.

    ``columns`` maps each wanted name to its type (``str``, an integer type
    or ``float``); the header may hold other columns, in any order. Text
    columns come back as ``str`` arrays as wide as their longest value.
    Blank lines are skipped, and so is a UTF-8 byte-order mark. Raises
    ``ValueError`` naming ``what`` for a missing column, and its subclass
    :class:`RowError`, which names the data row, for a row that ends before
    one of them or a value that does not parse.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{what} missing column(s): {', '.join(missing)}")
        # text is parsed into objects, then sized to its longest value; the
        # fields are named by position, since NumPy renames an empty name
        dtype = [(f"f{i}", object if k is str else k) for i, k in enumerate(columns.values())]
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
                rows = list(re.finditer(r"at row (\d+)", msg))
                if not rows:
                    raise
                row = rows[-1]  # NumPy's; a quoted value before it may hold "at row"
                # in each block NumPy counts a short row from 1, a bad value from 0
                short = msg.startswith("invalid column index")
                n = done + int(row.group(1)) + (not short)
                at = f"at data row {n}"
                if short:
                    raise RowError(f"{what} has a row with missing fields {at}", n, True) from None
                raise RowError(f"{what}: {msg[:row.start()]}{at}{msg[row.end():]}", n, False) from None
            # copies, so that no block outlives its loop
            for i, (name, kind) in enumerate(columns.items()):
                col = block[f"f{i}"]
                parts[name].append(col.astype(str) if kind is str else col.copy())
            done += len(block)
            if len(block) < _CHUNK:
                break
    return {name: np.concatenate(cols) for name, cols in parts.items()}


def row_line(path, row: int) -> tuple[int, dict]:
    """The file line on which data row ``row`` starts, with data rows
    counted as :func:`read_csv` names them (from 1 below the header, blank
    lines skipped), and the row's fields by header name; a short row lacks
    the names past its end. A quoted field may hold line breaks, so the file
    is scanned with ``csv.reader``; only error paths need this."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        start = reader.line_num + 1
        for record in reader:
            if record:  # a blank line is no data row
                row -= 1
                if not row:
                    return start, dict(zip(header, record))
            start = reader.line_num + 1
