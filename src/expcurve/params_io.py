"""Reading and writing parameter-estimate tables.

The table mirrors the ``estimate`` command output: one row per technology
with sample length, cost drift/scale, production and experience growth
statistics, the experience exponent with its residual scale, and the MA(1)
coefficient. In memory it is a NumPy structured array with one field per
:data:`PARAM_COLUMNS` name. A reference table for 51 published technology
histories is bundled for surrogate mimicry and forecasting examples.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

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


def param_table(technology, T, *values) -> np.ndarray:
    """Parameter table from its columns, in :data:`PARAM_COLUMNS` order:
    ``technology`` as text, ``T`` as int64 and the others as float64."""
    technology = np.asarray(technology, dtype=str)
    kinds = [technology.dtype, np.int64] + [np.float64] * (len(PARAM_COLUMNS) - 2)
    table = np.empty(len(technology), list(zip(PARAM_COLUMNS, kinds)))
    for name, column in zip(PARAM_COLUMNS, (technology, T, *values)):
        table[name] = column
    return table


def read_params_csv(path) -> np.ndarray:
    """Read a parameter table (see :func:`param_table`).

    Raises ``ValueError`` for a missing column, a row with missing fields,
    an unparsable number or a table without rows.
    """
    kinds = dict.fromkeys(PARAM_COLUMNS, float) | {"technology": str, "T": np.int64}
    columns = _csvio.read_csv(path, kinds, "parameter CSV")
    if not len(columns["T"]):
        raise ValueError("parameter CSV has no rows")
    return param_table(*(columns[c] for c in PARAM_COLUMNS))


def write_params_csv(path, table: np.ndarray) -> None:
    _csvio.write_csv(path, PARAM_COLUMNS, [[table[c] for c in PARAM_COLUMNS]])


def reference_params_path() -> Path:
    """Path of the bundled 51-technology reference parameter table."""
    return Path(resources.files("expcurve").joinpath("data/reference_params.csv"))


def load_reference_params() -> np.ndarray:
    """Load the bundled reference parameter table."""
    return read_params_csv(reference_params_path())
