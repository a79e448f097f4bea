"""Output checks: reference entries, tolerant comparison and digests.

A reference entry keeps the whole text of one output file. An output passes
when it is byte-equal to its reference; otherwise every count, key and
string must be equal and every float within ``TOL`` absolute.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

TOL = 1e-13


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def digest_files(paths) -> str:
    """One digest over several files, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        data = Path(p).read_bytes()
        h.update(f"{Path(p).name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def data_rows(path) -> int:
    """Number of lines after the header line."""
    return Path(path).read_bytes().count(b"\n") - 1


def _parse(cell: str):
    """A cell as int, float or string, in that order of preference."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def compare_values(ref, act, where: str = "value") -> list[str]:
    """Recursive comparison: keys, counts and strings exact, floats within TOL."""
    if isinstance(ref, dict):
        if not isinstance(act, dict) or sorted(ref) != sorted(act):
            return [f"{where}: keys differ"]
        out = []
        for k in sorted(ref):
            out += compare_values(ref[k], act[k], f"{where}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(act, list) or len(ref) != len(act):
            return [f"{where}: length {len(act) if isinstance(act, list) else '?'} != {len(ref)}"]
        out = []
        for i, (r, a) in enumerate(zip(ref, act)):
            out += compare_values(r, a, f"{where}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(act, float):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (ref, act)):
            return [f"{where}: {act!r} != {ref!r}"]
        if math.isnan(ref) and math.isnan(act) or abs(ref - act) <= TOL:
            return []
        return [f"{where}: {act!r} differs from {ref!r} by more than {TOL:g}"]
    return [] if ref == act and type(ref) is type(act) else [f"{where}: {act!r} != {ref!r}"]


def _cells(text: str, csv_format: bool) -> list[list]:
    if csv_format:
        return [[_parse(c) for c in row] for row in csv.reader(io.StringIO(text))]
    # key=value and free-text lines: compare token by token
    return [[_parse(c) for c in line.replace("=", " = ").split()] for line in text.splitlines()]


def describe_file(path) -> dict:
    """Reference entry for one output file."""
    data = Path(path).read_bytes()
    return {"sha256": sha256_bytes(data), "text": data.decode("utf-8")}


def compare_file(entry: dict, path) -> list[str]:
    """Problems of an output file against its reference entry (empty: passes)."""
    path = Path(path)
    if not path.is_file():
        return [f"{path.name}: missing"]
    data = path.read_bytes()
    if sha256_bytes(data) == entry["sha256"]:
        return []
    is_csv = path.suffix == ".csv"
    text = data.decode("utf-8", errors="replace")
    return compare_values(_cells(entry["text"], is_csv), _cells(text, is_csv), path.name)
