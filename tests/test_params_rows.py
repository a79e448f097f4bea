"""Parameter rows through the CLI, as a property.

A one-row parameter table for technology ``X`` goes through ``forecast
--params`` and ``diagnose --params``. Whatever its values, the run exits 0
with finite outputs, or exits 1 with one error line and nothing written, and
no NumPy warning escapes.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expcurve import SeriesTable, SurrogateSpec, make_dataset, write_csv
from expcurve.cli import main

# values at and past the edges of the floats
EXTREMES = [
    0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
    math.nan, math.inf, -math.inf,
]

# the ordinary range of each float column, in file order after T
ORDINARY = {
    "mu": (-0.5, 0.5), "K": (0.0, 0.5), "g": (-0.2, 0.5), "sigma_q": (0.0, 0.5),
    "r": (0.01, 0.5), "sigma_x": (0.0, 0.3), "omega": (-1.5, 0.5), "sigma_eta": (0.0, 0.5),
    "rho": (-0.9, 0.9),
}

# columns that hold no computed float: text, comparison.csv's ratio, which
# is inf or nan where the Moore variance is zero, and tanh.csv's copy of the
# table's sigma_x, which no check reads
UNCHECKED = {"technology", "model", "band_width_ratio", "sigma_x_observed"}


def value(lo, hi):
    """Seven times in eight a float in ``[lo, hi]``, otherwise an extreme."""
    return st.integers(0, 7).flatmap(
        lambda k: st.floats(lo, hi) if k else st.sampled_from(EXTREMES)
    )


# T is kept small, so that no example allocates more than a few kB
ROWS = st.fixed_dictionaries(
    {"T": st.integers(-2, 60)} | {name: value(*span) for name, span in ORDINARY.items()}
)
PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


@pytest.fixture(scope="module")
def errors_csv(tmp_path_factory):
    """A small hindcast error CSV for ``diagnose`` to read."""
    root = tmp_path_factory.mktemp("hindcast")
    ds = make_dataset(SurrogateSpec(n_tech=3, T=14, seed=5, n_ensembles=1), 0)
    write_csv(root / "data.csv", SeriesTable(ds.names, ds.T, ds.years, ds.cost, ds.production))
    assert main(["--output-dir", str(root), "hindcast", "--input", str(root / "data.csv")]) == 0
    return root / "errors.csv"


def check_run(row: dict, argv: list, error_prefix: str) -> None:
    """Run ``argv`` in process on a table holding ``row`` and check the
    property; ``{params}`` in ``argv`` stands for the table's path."""
    with tempfile.TemporaryDirectory() as tmp:
        params, out = Path(tmp) / "params.csv", Path(tmp) / "out"
        params.write_text(
            "technology," + ",".join(row) + "\nX," + ",".join(map(str, row.values())) + "\n"
        )
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--output-dir", str(out)] + [str(a).format(params=params) for a in argv])
        assert code in (0, 1)
        if code == 1:
            message = err.getvalue()
            assert message.startswith(error_prefix) and message.count("\n") == 1, message
            assert message.endswith("\n")
            assert list(out.iterdir()) == []
            return
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                for record in csv.DictReader(fh):
                    for column, cell in record.items():
                        if column not in UNCHECKED:
                            assert math.isfinite(float(cell)), (path.name, column, cell)


@PROPERTY
@given(row=ROWS, horizon=st.integers(1, 25))
def test_forecast_params_row(row, horizon):
    argv = ["forecast", "--params", "{params}", "--tech", "X", "--horizon", horizon]
    check_run(row, argv, "error: X: ")


@PROPERTY
@given(row=ROWS)
def test_diagnose_params_row(errors_csv, row):
    check_run(row, ["diagnose", "--errors", errors_csv, "--params", "{params}"], "error: ")
