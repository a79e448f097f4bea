"""Parameter rows through the CLI, as a property.

A parameter table goes through ``forecast --params``, ``diagnose --params``
and ``simulate --mimic``. Whatever its values, the run keeps the CLI
contract (``cli_contract``): it exits 0 with finite outputs, or exits 1 with
one error line and nothing written, and no NumPy warning escapes.
"""

import pytest
from hypothesis import given, strategies as st

from cli_contract import PROPERTY, check_run, value
from expcurve import SeriesTable, SurrogateSpec, make_dataset, write_csv
from expcurve.cli import main

# the ordinary range of each float column, in file order after T
ORDINARY = {
    "mu": (-0.5, 0.5), "K": (0.0, 0.5), "g": (-0.2, 0.5), "sigma_q": (0.0, 0.5),
    "r": (0.01, 0.5), "sigma_x": (0.0, 0.3), "omega": (-1.5, 0.5), "sigma_eta": (0.0, 0.5),
    "rho": (-0.9, 0.9),
}


def param_rows(T, **spans):
    """Parameter rows: ``T`` drawn from the strategy ``T``, and each float
    column seven times in eight from its ordinary range (or its range in
    ``spans``), else an extreme."""
    spans = ORDINARY | spans
    return st.fixed_dictionaries({"T": T} | {name: value(*span) for name, span in spans.items()})


# T is kept small, so that no example allocates more than a few kB
ROWS = param_rows(st.integers(-2, 60))


def params_csv(*rows) -> str:
    """A parameter table of ``rows``, technologies ``X``, ``Y``, ..."""
    header = ["T", *ORDINARY]
    lines = ["technology," + ",".join(header)]
    lines += [f"{name}," + ",".join(str(row[c]) for c in header) for name, row in zip("XYZ", rows)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def errors_csv(tmp_path_factory):
    """A small hindcast error CSV for ``diagnose`` to read."""
    root = tmp_path_factory.mktemp("hindcast")
    ds = make_dataset(SurrogateSpec(n_tech=3, T=14, seed=5, n_ensembles=1), 0)
    write_csv(root / "data.csv", SeriesTable(ds.names, ds.T, ds.years, ds.cost, ds.production))
    assert main(["--output-dir", str(root), "hindcast", "--input", str(root / "data.csv")]) == 0
    return root / "errors.csv"


@PROPERTY
@given(row=ROWS, horizon=st.integers(1, 25))
def test_forecast_params_row(row, horizon):
    argv = ["forecast", "--params", "{params}", "--tech", "X", "--horizon", horizon]
    check_run({"params": params_csv(row)}, argv, "error: X: ")


@PROPERTY
@given(row=ROWS)
def test_diagnose_params_row(errors_csv, row):
    argv = ["diagnose", "--errors", errors_csv, "--params", "{params}"]
    check_run({"params": params_csv(row)}, argv, "error: ")


def unreached(file, record, column) -> bool:
    """A band's ``nan`` at a horizon that no finite error reaches."""
    return file.startswith("bands_") and column != "grid"


# three technologies of at most 12 years, and three replicates, keep an
# example to a few ms; production that does not grow is refused after many
# redraws, so its ordinary range is growing
@PROPERTY
@given(table=st.lists(param_rows(st.integers(3, 12), g=(0.05, 0.5)), min_size=1, max_size=3),
       ensembles=st.sampled_from([0, 3]))
def test_simulate_mimic_rows(table, ensembles):
    argv = ["simulate", "--mimic", "{params}", "--ensembles", ensembles, "--m", 2, "--tau-max", 3]
    check_run({"params": params_csv(*table)}, argv, "error: ", unreached)
