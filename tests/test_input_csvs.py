"""Data CSVs and error CSVs through the CLI, as a property.

A data CSV goes through ``estimate``, ``hindcast`` and ``forecast --input``,
and an error CSV through ``diagnose``. Whatever its values, the run keeps
the CLI contract (``cli_contract``): it exits 0 with finite outputs, or
exits 1 with one error line and nothing written, and no NumPy warning
escapes.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st

from cli_contract import EXTREMES, PROPERTY, check_run, value
from expcurve.hindcast import ERROR_COLUMNS, MODELS

# one technology whose experience rises every year while its log stays flat
# for nine: production of 3e-8 adds a few ulps to an experience of 2e7
FLAT_LOG = "technology,year,cost,production\n" + "".join(
    f"A,{2000 + i},{1 + i / 100:.2f},{q}\n" for i, q in enumerate([1.0] + [3e-8] * 10 + [1.0000001])
)


@st.composite
def data_csvs(draw):
    """One to three technologies of 3 to 14 years. Cost and production are
    log-normal random walks, production mostly growing; one column in eight
    holds an extreme, and one series in six has middle years whose
    production shrinks to 1e-15 .. 3e-8 of its first year's, and a last
    year's just above it, so its log experience may stall."""
    lines = ["technology,year,cost,production"]
    for name in "ABC"[: draw(st.integers(1, 3))]:
        T = draw(st.integers(3, 14))
        walks = []
        for lo, hi in ((-0.4, 0.3), (-0.2, 0.9)):  # cost, then production
            steps = draw(st.lists(st.floats(lo, hi), min_size=T - 1, max_size=T - 1))
            walks.append(np.exp(draw(st.floats(-5, 5)) + np.r_[0.0, np.cumsum(steps)]))
        cost, production = walks
        if draw(st.integers(0, 5)) == 5:
            production[1:-1] = production[0] * 10 ** draw(st.floats(-15, math.log10(3e-8)))
            production[-1] = production[0] * (1 + 10 ** draw(st.floats(-8, 0)))
        for column in walks:
            if draw(st.integers(0, 7)) == 7:
                column[draw(st.integers(0, T - 1))] = draw(st.sampled_from(EXTREMES))
        years = range(2000, 2000 + T)
        lines += [f"{name},{y},{c!r},{q!r}" for y, c, q in zip(years, cost.tolist(), production.tolist())]
    return "\n".join(lines) + "\n"


def estimate_nan(file, record, column) -> bool:
    """``params.csv``'s MA(1) coefficient of a series too short to fit it."""
    return column == "rho" and int(record["T"]) <= 4


def hindcast_nan(file, record, column) -> bool:
    """The normalized and pooled errors of a window whose scale is zero:
    ``K_hat``, or ``sigma_eta_hat`` for a wright row's pooled error."""
    if column == "pooled_error" and record["model"] == "wright":
        return float(record["sigma_eta_hat"]) == 0.0
    return column in ("normalized_error", "pooled_error") and float(record["K_hat"]) == 0.0


@PROPERTY
@given(data=data_csvs())
@example(data=FLAT_LOG)
def test_estimate_data_csv(data):
    check_run({"data": data}, ["estimate", "--input", "{data}"], "error: ", estimate_nan)


@PROPERTY
@given(data=data_csvs(), m=st.sampled_from([2, 3, 5]))
@example(data=FLAT_LOG, m=5)
def test_hindcast_data_csv(data, m):
    check_run({"data": data}, ["hindcast", "--input", "{data}", "--m", m], "error: ", hindcast_nan)


@PROPERTY
@given(data=data_csvs())
@example(data=FLAT_LOG)
def test_forecast_data_csv(data):
    check_run({"data": data}, ["forecast", "--input", "{data}", "--tech", "A"], "error: ")


def tau_value():
    """A horizon of 1 .. 20, or one time in sixteen an extreme: an integer
    at or past the int64 edges, or a float that is no integer."""
    extreme = st.sampled_from([0, -1, -20, 2**31, 2**53 + 1, 2**62, 2**63 - 1, -2**63, *EXTREMES])
    return st.integers(0, 15).flatmap(lambda k: st.integers(1, 20) if k else extreme)


@st.composite
def error_csvs(draw):
    """Every column of a hindcast error CSV, one to eight errors of window
    ``m`` in {2, 3, 5, 9}, each a moore row and then a wright row. ``A`` is
    ``tau + tau**2 / m``; one ``A`` and one error in sixteen is an extreme."""
    m = draw(st.sampled_from([2, 3, 5, 9]))
    lines = [",".join(ERROR_COLUMNS)]
    for _ in range(draw(st.integers(1, 8))):
        tau = draw(tau_value())
        A = tau + tau * tau / m
        A = draw(st.integers(0, 15).flatmap(lambda k: st.just(A) if k else st.sampled_from(EXTREMES)))
        for model in MODELS:
            normalized, pooled = draw(value(-5, 5, 16)), draw(value(-5, 5, 16))
            lines.append(f"X,2000,{tau!r},{model},0.1,0.2,0.3,{A!r},{normalized!r},{pooled!r}")
    return "\n".join(lines) + "\n"


@PROPERTY
@given(errors=error_csvs())
def test_diagnose_error_csv(errors):
    check_run({"errors": errors}, ["diagnose", "--errors", "{errors}"], "error: ")
