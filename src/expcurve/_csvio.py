"""The package's one CSV writer and its one CSV reader, both column-wise:
the reader works ``_CHUNK`` rows at a time and the writer about ``_CHUNK``
fields, so that neither holds more than a block of Python objects or text.
Series, parameter and error tables are all written and read here. The
writer lays out each column as a byte matrix of rows by bytes, one field
per row, padded with 0xFF, and joins the columns' matrices into lines.

The writer formats floats as ``_fmt`` does, 17 significant digits, in NumPy
with no Python call per value. For a finite ``|x|`` in ``[1e-4, 1e16)``,
where ``.17g`` writes fixed notation, the kernel (``_float_text``) forms
``|x| * 10**(16 - k)``, with ``k`` the decimal exponent, exactly as the sum
of two doubles (Dekker's product with Veltkamp's split; ``10**(16 - k)`` is
an exact double) and rounds it to 17 digits. A table of 4-digit groups
spells the digits out, and masks chosen by exponent and sign put in the
point and the sign. Zeros, non-finite values, magnitudes that ``.17g``
writes with an exponent and values whose rounding is an exact tie go
through ``_fmt``, which stays the one definition of the format; their
texts hold no NUL byte, so each NUL that pads one to the row's width
becomes 0xFF."""

from __future__ import annotations

import csv
import io
import os
import re
import warnings

import numpy as np

_CHUNK = 4096

# The one definition of the float format, and the oracle of the kernel.
_fmt = "{:.17g}".format

# Bound at import: the codec is the one place that writes CSV, so patching
# ``csv.writer`` afterwards shows whether any other write path is left.
_csv_writer = csv.writer

# The magnitudes the kernel formats, and the exact doubles 10**0 to 10**22.
_KERNEL_MIN, _KERNEL_MAX = 1e-4, 1e16
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])

# A text is a row of 24 bytes, as wide as the widest ``_fmt`` text (such as
# ``-1.3118095100000001e+140``), held as three words; little-endian, so that
# byte n of a word is byte n of its text on any host.
_WIDTH = 24
_WORD = np.dtype("<u8")

# The ASCII digits of 0000 to 9999, four bytes each, viewed as one word.
_GROUPS = np.arange(10_000, dtype=np.int16)
_DIGITS4 = np.stack([48 + _GROUPS // 10**i % 10 for i in (3, 2, 1, 0)], axis=1).astype(np.uint8)
_DIGITS4 = _DIGITS4.view("<u4").ravel().astype(_WORD)
# The index, among the 17 digits, of the last nonzero digit of each of the
# four 4-digit groups after the leading digit, by group value; 0 if none.
_LAST = (np.arange(4, 17, 4)[:, None] - sum(_GROUPS % 10**i == 0 for i in (1, 2, 3))).astype(np.int8)
_LAST[:, 0] = 0
del _GROUPS


def _layout_tables():
    """The masks that lay out the kernel's texts, by group ``2 * (k + 4) +
    sign`` of exponent ``k`` (-4 to 15) and sign (1 if negative).

    Before the layout, bytes 0 to 4 are 0s and bytes 5 to 21 the 17 digits.
    The point goes in at byte ``k + 6``, and the bytes from there on move up
    by one. The text starts at the leading digit or, below 1, at the 0
    before the point, and a minus sign takes the byte before. It ends at its
    last nonzero digit or, if that is in the integer part, before the point.
    By group, as three words each: the bytes that stay and the bytes that
    move (all ones), and the point and sign. By group and then index of the
    last nonzero digit (0 to 16): the bytes outside the text (0xFF).
    """
    group = np.arange(40)[:, None, None]
    k, neg = group // 2 - 4, group % 2
    point, start = 6 + k, 5 + np.minimum(k, 0)
    at = np.arange(_WIDTH)
    sign = (at == start - 1) & (neg == 1)
    last = np.arange(17)[:, None]
    end = np.where(last > k, 7 + last, point)
    stay, move = (at < point) & ~sign, at > point
    marks = np.where(at == point, ord("."), np.where(sign, ord("-"), 0))
    drop = (at < start - neg) | (at >= end)
    masks = stay * 0xFF, move * 0xFF, marks, drop * 0xFF
    words = [np.asarray(a, np.uint8).view(_WORD) for a in masks]
    return *(w[:, 0] for w in words[:3]), words[3].reshape(-1, 3)


_STAY, _MOVE, _MARKS, _DROP = _layout_tables()


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(v, k):
    """``y = v * 10**(16 - k)`` as ``floor(y)`` and whether the fraction of
    ``y`` is above ½ or exactly ½. ``y`` is ``p + e`` exactly, with ``p`` the
    rounded product and ``e`` its error from Dekker's product."""
    q = 16 - k
    p = v * _POW10.take(q)
    vh, vl = _split(v)
    bh, bl = _POW10_HI.take(q), _POW10_LO.take(q)
    e = ((vh * bh - p) + vh * bl + vl * bh) + vl * bl
    whole = np.floor(e)
    half = whole + 0.5
    return p.astype(np.int64) + whole.astype(np.int64), e > half, e == half


def _float_text(x):
    """The ``_fmt`` text of each float of ``x`` as a row of a byte matrix, in
    which 0xFF marks the bytes that are no part of the text."""
    v = np.abs(x)
    kernel = (v >= _KERNEL_MIN) & (v < _KERNEL_MAX)
    v = np.where(kernel, v, 1.0)
    # log10 may put k one off next to a power of ten; y = v * 10**(16 - k)
    # outside [1e16, 1e17) shows it, and y is formed again
    k = np.floor(np.log10(v)).astype(np.int64)
    floor, up, tie = _scaled(v, k)
    off = (floor >= 10**17).astype(np.int64) - (floor < 10**16)
    if off.any():
        i = np.flatnonzero(off)
        k[i] += off[i]
        floor[i], up[i], tie[i] = _scaled(v[i], k[i])
    # no double in the kernel's range lies below a power of ten by less
    # than 5e-18 of it, so rounding up never carries into the exponent
    digits = floor + up
    # bytes 0 to 4 are 0s and bytes 5 to 21 the 17 digits, with ``low`` and
    # ``high`` the 8 digits after the leading one and the 8 after those
    # (NumPy divides by a constant faster than it takes a remainder)
    upper = digits // 10**8
    lower = digits - upper * 10**8
    lead, first, third = upper // 10**8, upper // 10**4, lower // 10**4
    groups = first - lead * 10**4, upper - first * 10**4, third, lower - third * 10**4
    low = _DIGITS4.take(groups[0]) | _DIGITS4.take(groups[1]) << 32
    high = _DIGITS4.take(groups[2]) | _DIGITS4.take(groups[3]) << 32
    lead = (48 + lead).astype(_WORD)
    text = np.empty((len(x), 3), _WORD)
    text[:, 0] = int.from_bytes(b"00000", "little") | lead << 40 | low << 48
    text[:, 1] = low >> 16 | high << 48
    text[:, 2] = high >> 16
    # byte 23 is 0, so no byte moves from one row into the next
    flat = text.ravel()
    moved = flat << 8
    moved[1:] |= flat[:-1] >> 56
    group = (k + 4) * 2 + np.signbit(x)
    text &= _STAY.take(group, axis=0)
    text |= moved.reshape(-1, 3) & _MOVE.take(group, axis=0) | _MARKS.take(group, axis=0)
    last = [_LAST[i].take(g) for i, g in enumerate(groups)]
    last = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    text |= _DROP.take(group * 17 + last, axis=0)
    text = text.view(np.uint8)
    slow = np.flatnonzero(~kernel | tie)
    fallback = np.array([_fmt(value) for value in x[slow].tolist()], dtype=f"S{_WIDTH}")
    fallback = fallback.view(np.uint8).reshape(-1, _WIDTH)
    text[slow] = np.where(fallback, fallback, 0xFF)
    return text


def _quote(value, lone: bool) -> str:
    """``value`` as ``csv.writer`` writes it among other fields or, if
    ``lone``, as the one field of its row, where an empty value is quoted."""
    buf = io.StringIO()
    _csv_writer(buf).writerow((value,) if lone else (value, ""))
    return buf.getvalue()[: -len("\r\n") if lone else -len(",\r\n")]


def _distinct_text(col, lone: bool):
    """The text of each distinct value of a text or integer column as a row
    of a byte matrix, padded with 0xFF, and the index of each value of
    ``col`` among them. Text is quoted as by ``csv.writer``; other values
    are written by ``str``. Columns come in runs of one value (a series'
    name), so only the head of each run is sorted; in a column with no runs
    (models alternating row by row) every value is a head."""
    heads = np.ones(len(col), dtype=bool)
    heads[1:] = col[1:] != col[:-1]
    starts = np.flatnonzero(heads)
    values, index = np.unique(col[starts], return_inverse=True)
    index = np.repeat(index, np.diff(starts, append=len(col)))
    text = [
        (_quote(v, lone) if col.dtype.kind in "USO" else str(v)).encode("utf-8")
        for v in values.tolist()
    ]
    width = max(map(len, text), default=0)
    table = b"".join(t.ljust(width, b"\xff") for t in text)
    return np.frombuffer(table, np.uint8).reshape(len(text), width), index


def _lines(fields) -> bytes:
    """The CSV lines whose fields are given as one byte matrix of rows by
    bytes per column, in which 0xFF, a byte that UTF-8 never uses, marks a
    byte that is no part of the text."""
    ends = np.cumsum([text.shape[1] + 1 for text in fields]) - 1
    lines = np.full((len(fields[0]), ends[-1] + 2), ord(","), np.uint8)
    for text, end in zip(fields, ends):
        lines[:, end - text.shape[1]:end] = text
    lines[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return lines.tobytes().translate(None, b"\xff")


def write_csv(path, header, blocks) -> None:
    """Write ``header`` and the rows of each block of columns to ``path``.

    ``blocks`` is an iterable, each block written before the next is taken.
    A block is a sequence of equal-length columns, one per header field. The
    bytes are those ``csv.writer`` writes: minimal quoting and ``\\r\\n``
    line ends. Float columns get 17 significant digits (``_fmt``), so a round
    trip is exact. Each distinct text and integer value is formatted once
    per block. The rows are formatted about ``_CHUNK`` fields at a time, one
    byte matrix per column: the chunk's float columns are stacked and go
    through the kernel in one call, float column ``j`` being its block ``j``.
    """
    lone = len(header) == 1
    with open(path, "wb") as fh:
        fh.write((",".join(_quote(name, lone) for name in header) + "\r\n").encode("utf-8"))
        for block in blocks:
            block = [np.asarray(col) for col in block]
            texts = {j: _distinct_text(col, lone) for j, col in enumerate(block) if col.dtype.kind != "f"}
            floats = [j for j in range(len(block)) if j not in texts]
            rows = max(_CHUNK // len(block), 1)
            for lo in range(0, len(block[0]), rows):
                fields = {j: table.take(index[lo:lo + rows], axis=0) for j, (table, index) in texts.items()}
                if floats:
                    chunk = np.stack([block[j][lo:lo + rows] for j in floats], dtype=np.float64)
                    fields.update(zip(floats, _float_text(chunk.ravel()).reshape(*chunk.shape, _WIDTH)))
                fh.write(_lines([fields[j] for j in range(len(block))]))


class RowError(ValueError):
    """A :func:`read_csv` fault in data row ``row`` (from 1 below the header):
    a row that ends before a wanted column if ``short``, else a bad value."""

    def __init__(self, message: str, row: int, short: bool):
        super().__init__(message)
        self.row, self.short = row, short


def read_csv(path, columns: dict, what: str) -> dict[str, np.ndarray]:
    """Read the named columns of a CSV whose first row is a header.

    ``columns`` maps each wanted name to its type (a str type such as
    ``str`` or ``np.str_``, an integer type or ``float``); the header may
    hold other columns, in any order. Text columns come back as ``str``
    arrays as wide as their longest value. Blank lines are skipped, and so
    is a UTF-8 byte-order mark. Raises ``ValueError`` naming ``what`` for a
    bytes or void type, a header that ``csv.reader`` refuses and a missing
    column, and its subclass :class:`RowError`, which names the data row,
    for a row that ends before one of them or a value that does not parse.
    """
    # text is parsed into objects, then sized to its longest value; NumPy
    # would read it into a bytes type, or a str type with no width, as empty
    text = [np.dtype(kind).kind == "U" for kind in columns.values()]
    for name, kind in columns.items():
        if np.dtype(kind).kind in "SV":
            raise ValueError(f"{what}: column {name!r} asked for as {np.dtype(kind)}; text is read as str")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh), [])
        except csv.Error as exc:  # no ValueError; a field past csv.field_size_limit()
            raise ValueError(f"{what}: {exc}") from None
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{what} missing column(s): {', '.join(missing)}")
        # the fields are named by position, since NumPy renames an empty name
        dtype = [(f"f{i}", object if t else k) for i, (t, k) in enumerate(zip(text, columns.values()))]
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
            for i, name in enumerate(columns):
                col = block[f"f{i}"]
                parts[name].append(col.astype(str) if text[i] else col.copy())
            done += len(block)
            if len(block) < _CHUNK:
                break
    return {name: np.concatenate(cols) for name, cols in parts.items()}


def row_line(path, row: int) -> tuple[int, dict]:
    """The file line on which data row ``row`` starts, with data rows
    counted as :func:`read_csv` names them (from 1 below the header, blank
    lines skipped), and the row's fields by header name; a short row lacks
    the names past its end. A quoted field may hold line breaks, so the file
    is scanned with ``csv.reader``; only error paths need this. A record
    that ``csv.reader`` refuses raises ``ValueError`` naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            start = reader.line_num + 1
            for record in reader:
                if record:  # a blank line is no data row
                    row -= 1
                    if not row:
                        return start, dict(zip(header, record))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{os.path.basename(path)}: {exc}") from None
