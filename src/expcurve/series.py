"""Domain types for cost/production histories and experience construction.

A technology is observed as annual unit cost and annual production.
Experience (cumulative production) is reconstructed from production with an
initial-stock correction, because the years before the first observation are
unobserved: if production grew at a steady discrete rate ``g_d``, the stock
accumulated before the first observed year equals ``Q_first / g_d``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from . import _csvio

# Discrete production growth at or below this is treated as "no growth":
# the initial-stock correction divides by g_d and becomes meaningless.
GROWTH_FLOOR = 1e-9

REQUIRED_COLUMNS = ("technology", "year", "cost", "production")
DERIVED_COLUMNS = ("experience", "log_cost", "log_experience")


class DataError(ValueError):
    """An input file or series violates the data contract."""


def _frozen(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TechSeries:
    """Annual cost/production history of one technology.

    ``experience`` is cumulative production *excluding* the current year's
    output (production affects costs with a lag) and including the estimated
    pre-sample stock. It is ``None`` until :func:`build_experience` has run.

    Instances are immutable (arrays are read-only) and safe to share across
    threads.
    """

    name: str
    years: np.ndarray
    cost: np.ndarray
    production: np.ndarray
    experience: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "years", _frozen(self.years, dtype=int))
        object.__setattr__(self, "cost", _frozen(self.cost))
        object.__setattr__(self, "production", _frozen(self.production))
        n = len(self.years)
        if not (len(self.cost) == len(self.production) == n):
            raise DataError(f"{self.name}: years/cost/production lengths differ")
        if n < 3:
            raise DataError(f"{self.name}: fewer than 3 rows (T={n})")
        steps = np.diff(self.years)
        if np.any(steps == 0):
            raise DataError(f"{self.name}: duplicate year")
        if np.any(steps != 1):
            raise DataError(f"{self.name}: gap in years")
        # NaN fails every comparison, so test finiteness as well as sign
        if not np.all(np.isfinite(self.cost) & (self.cost > 0)):
            raise DataError(f"{self.name}: non-positive cost")
        if not np.all(np.isfinite(self.production) & (self.production > 0)):
            raise DataError(f"{self.name}: non-positive production")
        if self.experience is not None:
            z = _frozen(self.experience)
            object.__setattr__(self, "experience", z)
            if len(z) != n:
                raise DataError(f"{self.name}: experience length differs")
            if not (np.all(np.isfinite(z) & (z > 0)) and np.all(np.diff(z) > 0)):
                raise DataError(
                    f"{self.name}: experience must be finite, positive and strictly increasing"
                )

    @property
    def T(self) -> int:
        """Number of annual observations."""
        return len(self.years)

    @cached_property
    def log_cost(self) -> np.ndarray:
        return _frozen(np.log(self.cost))

    @cached_property
    def log_experience(self) -> np.ndarray:
        if self.experience is None:
            raise DataError(f"{self.name}: experience not built yet")
        return _frozen(np.log(self.experience))

    def diffs(self) -> "DiffSeries":
        """First differences of log cost and log experience."""
        return DiffSeries(y=np.diff(self.log_cost), x=np.diff(self.log_experience))


@dataclass(frozen=True)
class DiffSeries:
    """First differences: ``y`` of log cost, ``x`` of log experience.

    Built from ``m + 1`` observations it holds ``m`` differences. Experience
    is strictly increasing, so every ``x`` must be positive.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(self.y))
        object.__setattr__(self, "x", _frozen(self.x))
        if len(self.y) != len(self.x):
            raise DataError("y and x differences must have equal length")
        if len(self.y) < 1:
            raise DataError("need at least one difference")
        if np.any(self.x <= 0):
            raise DataError("experience differences must be positive")

    @property
    def m(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class GrowthStats:
    """Drift/volatility of production and experience growth.

    ``g``/``sigma_q`` are mean and sample standard deviation of annual log
    production changes, ``r``/``sigma_x`` the same for log experience, and
    ``g_d`` the discrete annual production growth rate used for the
    initial-stock correction.
    """

    g: float
    sigma_q: float
    r: float
    sigma_x: float
    g_d: float


def ingest_csv(path) -> list[TechSeries]:
    """Read a ``technology,year,cost,production`` CSV into series.

    The file is parsed column-wise by the package's CSV codec. Rows may
    appear in any order; they are grouped by technology (output order
    follows first appearance, names are stripped of surrounding whitespace)
    and stably sorted by year within each group. Extra columns (e.g. derived
    columns written by :func:`write_csv`) are ignored.

    Raises
    ------
    DataError
        Missing column, a row with missing fields, an empty technology name,
        unparsable or non-positive cost/production, duplicate or
        non-consecutive years, or fewer than 3 rows for a technology. A
        single fault's message carries the technology name (the file name
        for an empty one) and the file line, counted as ``csv`` counts rows
        (blank lines skipped). Of several faults, the first unparsable value
        is reported, else the first bad row, else the first short
        technology, else the first bad step between years.
    """
    path = Path(path)
    kinds = dict(zip(REQUIRED_COLUMNS, (str, np.int64, float, float)))
    try:
        columns = _csvio.read_csv(path, kinds, path.name)
    except ValueError as exc:
        row = re.search(r"at data row (\d+)", str(exc))
        if row is None:
            raise DataError(str(exc)) from None
        i = int(row.group(1)) - 1
        name = _csvio.read_csv(path, {"technology": str}, path.name)["technology"][i].strip()
        raise DataError(f"{name or path.name} line {i + 2}: unparsable value ({exc})") from None
    names = np.strings.strip(columns["technology"])
    years, cost, production = columns["year"], columns["cost"], columns["production"]

    # NaN fails every comparison, so test finiteness as well as sign
    good_cost = np.isfinite(cost) & (cost > 0)
    good_production = np.isfinite(production) & (production > 0)
    bad = np.flatnonzero((names == "") | ~good_cost | ~good_production)
    if len(bad):
        i = bad[0]
        if not names[i]:
            raise DataError(f"{path.name} line {i + 2}: empty technology name")
        what = "cost" if not good_cost[i] else "production"
        raise DataError(f"{names[i]} line {i + 2}: non-positive {what}")

    # groups numbered by first appearance; rows sorted by group, then year
    uniq, first, inverse = np.unique(names, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inverse]
    counts = np.bincount(group, minlength=len(uniq))
    tech = uniq[order].tolist()
    short = np.flatnonzero(counts < 3)
    if len(short):
        raise DataError(f"{tech[short[0]]}: fewer than 3 rows")
    rows = np.lexsort((years, group))
    y = years[rows]
    bad = np.flatnonzero((np.diff(y) != 1) & (group[rows[1:]] == group[rows[:-1]]))
    if len(bad):
        k = bad[0]
        y0, y1 = y[k], y[k + 1]
        at = f"{tech[group[rows[k]]]} line {rows[k + 1] + 2}"
        if y1 == y0:
            raise DataError(f"{at}: duplicate year {y1}")
        raise DataError(f"{at}: gap in years ({y0} -> {y1})")
    return [
        TechSeries(name=name, years=years[r], cost=cost[r], production=production[r])
        for name, r in zip(tech, np.split(rows, np.cumsum(counts)[:-1]))
    ]


def write_csv(path, dataset: list[TechSeries]) -> None:
    """Write series (plus derived columns, when built) as CSV.

    Columns: ``technology,year,cost,production,experience,log_cost,
    log_experience``; the derived columns are left empty when experience has
    not been built. Values are written with 17 significant digits so a
    write/ingest round trip is exact.
    """
    blocks = []
    for built, group in groupby(dataset, key=lambda ts: ts.experience is not None):
        group = list(group)
        names = np.repeat([ts.name for ts in group], [ts.T for ts in group])
        block = [names]
        for attr in ("years", "cost", "production") + DERIVED_COLUMNS:
            if built or attr not in ("experience", "log_experience"):
                block.append(np.concatenate([getattr(ts, attr) for ts in group]))
            else:
                block.append(np.full(len(names), ""))
        blocks.append(block)
    _csvio.write_csv(path, REQUIRED_COLUMNS + DERIVED_COLUMNS, *blocks)


def estimate_discrete_growth(production) -> float:
    """Discrete annual production growth from first and last observation.

    ``g_d = exp(log(Q_last / Q_first) / (T - 1)) - 1``. A value at or below
    :data:`GROWTH_FLOOR` is unusable for the initial-stock correction.
    """
    q = np.asarray(production, dtype=float)
    if len(q) < 2:
        raise DataError("need at least 2 production observations")
    if q[0] <= 0 or q[-1] <= 0:
        raise DataError("non-positive production at the series ends")
    return float(np.exp(np.log(q[-1] / q[0]) / (len(q) - 1)) - 1.0)


def _corrected_experience(name: str, production) -> np.ndarray:
    """Experience from production under the initial-stock correction.

    Raises ``DataError`` unless the discrete growth rate ``g_d`` exceeds
    :data:`GROWTH_FLOOR`; the correction divides by it.
    """
    q = np.asarray(production, dtype=float)
    g_d = estimate_discrete_growth(q)
    if not g_d > GROWTH_FLOOR:
        raise DataError(f"{name}: zero production growth rate (g_d={g_d:.3g})")
    return q[0] / g_d + np.concatenate([[0.0], np.cumsum(q[:-1])])


def build_experience(series: TechSeries) -> TechSeries:
    """Fill the experience series using the initial-stock correction.

    The first value is ``Q_first / g_d`` and each later value adds the
    *previous* year's production, so experience at a given year excludes that
    year's output. Exactly geometric production with rate ``g_d`` makes
    experience equal ``Q_t / g_d`` at every year, not just the first.

    Raises
    ------
    DataError
        When the estimated growth rate is at or below :data:`GROWTH_FLOOR`
        ("zero production growth rate"); such series cannot be corrected.
    """
    return replace(series, experience=_corrected_experience(series.name, series.production))


def growth_stats(series: TechSeries) -> GrowthStats:
    """Means and sample standard deviations of log production/experience growth."""
    if series.experience is None:
        raise DataError(f"{series.name}: experience not built yet")
    if series.T < 3:
        raise DataError(f"{series.name}: need T >= 3 for growth statistics")
    dlq = np.diff(np.log(series.production))
    dlz = np.diff(series.log_experience)
    return GrowthStats(
        g=float(dlq.mean()),
        sigma_q=float(dlq.std(ddof=1)),
        r=float(dlz.mean()),
        sigma_x=float(dlz.std(ddof=1)),
        g_d=estimate_discrete_growth(series.production),
    )
