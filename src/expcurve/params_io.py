"""Reading and writing parameter-estimate tables.

The table mirrors the ``estimate`` command output: one row per technology
with sample length, cost drift/scale, production and experience growth
statistics, the experience exponent with its residual scale, and the MA(1)
coefficient. A reference table for 51 published technology histories is
bundled for surrogate mimicry and forecasting examples.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import _csvio

PARAM_COLUMNS = (
    "technology",
    "T",
    "mu",
    "K",
    "g",
    "sigma_q",
    "r",
    "sigma_x",
    "omega",
    "sigma_eta",
    "rho",
)


def read_params_csv(path) -> list[dict]:
    """Read a parameter table; numeric columns become floats (``T`` an int).

    Raises ``ValueError`` for a missing column, a row with missing fields,
    an unparsable number or a table without rows.
    """
    kinds = dict.fromkeys(PARAM_COLUMNS, float) | {"technology": str, "T": int}
    columns = _csvio.read_csv(path, kinds, "parameter CSV")
    values = zip(*(columns[c].tolist() for c in PARAM_COLUMNS))
    rows = [dict(zip(PARAM_COLUMNS, row)) for row in values]
    if not rows:
        raise ValueError("parameter CSV has no rows")
    return rows


def write_params_csv(path, rows: list[dict]) -> None:
    _csvio.write_csv(path, PARAM_COLUMNS, [[row[c] for row in rows] for c in PARAM_COLUMNS])


def reference_params_path() -> Path:
    """Path of the bundled 51-technology reference parameter table."""
    return Path(resources.files("expcurve").joinpath("data/reference_params.csv"))


def load_reference_params() -> list[dict]:
    """Load the bundled reference parameter table."""
    return read_params_csv(reference_params_path())
