"""Domain types for cost/production histories and experience construction.

A technology is observed as annual unit cost and annual production.
Experience (cumulative production) is reconstructed from production with an
initial-stock correction, because the years before the first observation are
unobserved: if production grew at a steady discrete rate ``g_d``, the stock
accumulated before the first observed year equals ``Q_first / g_d``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
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
    """Annual cost/production history of one technology: a row view of a
    :class:`SeriesTable`, holding read-only slices of its columns. A series
    constructed directly is checked as a table of one.

    ``experience`` is cumulative production *excluding* the current year's
    output (production affects costs with a lag) and including the estimated
    pre-sample stock. It is ``None`` until :func:`build_experience` has run.
    """

    name: str
    years: np.ndarray
    cost: np.ndarray
    production: np.ndarray
    experience: np.ndarray | None = None

    def __post_init__(self):
        one = SeriesTable([self.name], [len(self.years)], *(getattr(self, c) for c in _COLUMNS))
        for c in _COLUMNS:
            object.__setattr__(self, c, getattr(one, c))

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


_COLUMNS = ("years", "cost", "production", "experience")


class _Fault(DataError):
    """What is wrong with technology ``name``, at ``row`` of its table."""

    def __init__(self, name: str, row: int | None, what: str):
        super().__init__(f"{name}: {what}" if name else what)
        self.name, self.row, self.what = name, row, what


class SeriesTable:
    """A dataset of technology series, stored column-wise.

    ``names`` holds each series' technology name and ``T`` its number of
    years; ``years``, ``cost``, ``production`` and ``experience`` (``None``
    until :func:`build_experience` has run) are the series' columns, one
    after another. ``log_cost`` and ``log_experience`` are taken on whole
    columns. All arrays are read-only copies.

    The constructor enforces the data contract: it raises :class:`DataError`
    for the first empty name or non-finite or non-positive production or
    cost (a row with both named by its production), else the first series
    of fewer than 3 years, name given twice, duplicate or missing year, or
    experience that is not finite, positive and strictly increasing, in
    level and in log.

    ``len(table)``, ``table[i]`` and iteration give :class:`TechSeries` row
    views; a slice or a boolean/integer index array over series gives a
    sub-table.
    """

    def __init__(self, names, T, years, cost, production, experience=None):
        self.names, self.T, self.years = _frozen(names, str), _frozen(T, int), _frozen(years, int)
        self.cost, self.production = _frozen(cost), _frozen(production)
        self.experience = None if experience is None else _frozen(experience)
        self._start = np.cumsum(self.T) - self.T
        _check(self)

    @classmethod
    def from_series(cls, series) -> SeriesTable:
        """One table of :class:`TechSeries`, in order; all or none built."""
        series = list(series)
        built = [ts.experience is not None for ts in series]
        if any(built) and not all(built):
            raise DataError("a table has experience for all of its series or for none")
        columns = _COLUMNS if any(built) else _COLUMNS[:3]
        return cls(
            [ts.name for ts in series], [ts.T for ts in series],
            *(_concat(getattr(ts, c) for ts in series) for c in columns),
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, index):
        columns = [getattr(self, c) for c in _COLUMNS]
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]
            rows = slice(self._start[i], self._start[i] + self.T[i])
            view = object.__new__(TechSeries)
            view.__dict__.update(zip(_COLUMNS, (None if c is None else c[rows] for c in columns)))
            view.__dict__["name"] = str(self.names[i])
            return view
        pick = np.arange(len(self))[index]
        T = self.T[pick]
        rows = np.repeat(self._start[pick] - np.cumsum(T) + T, T) + np.arange(T.sum())
        return SeriesTable(self.names[pick], T, *(None if c is None else c[rows] for c in columns))

    @cached_property
    def log_cost(self) -> np.ndarray:
        return _frozen(np.log(self.cost))

    @cached_property
    def log_experience(self) -> np.ndarray:
        if self.experience is None:
            raise DataError("experience not built yet")
        return _frozen(np.log(self.experience))


def _concat(arrays) -> np.ndarray:
    return np.concatenate([np.empty(0), *arrays])


def _check(table: SeriesTable) -> None:
    """Raise the first broken rule of the data contract (see
    :class:`SeriesTable`); each ``for ... [:1]`` raises at the first fault."""
    names, T, years, z = table.names.tolist(), table.T, table.years, table.experience
    columns = (years, table.cost, table.production) + (() if z is None else (z,))
    if table.names.ndim != 1 or T.shape != table.names.shape or np.any(T < 0) or any(
        col.ndim != 1 or len(col) != T.sum() for col in columns
    ):
        raise DataError("series lengths and years/cost/production/experience lengths differ")
    series = np.repeat(np.arange(len(names)), T)
    unnamed = (table.names == "")[series]
    # NaN fails every comparison, so test finiteness as well as sign
    good_cost = np.isfinite(table.cost) & (table.cost > 0)
    good_production = np.isfinite(table.production) & (table.production > 0)
    for i in np.flatnonzero(unnamed | ~good_cost | ~good_production)[:1]:
        column = "production" if not good_production[i] else "cost"
        kind = "non-positive" if np.isfinite(getattr(table, column)[i]) else "non-finite"
        raise _Fault(names[series[i]], i, "empty technology name" if unnamed[i] else f"{kind} {column}")
    for j in np.flatnonzero(T < 3)[:1]:
        raise _Fault(names[j], None, "fewer than 3 rows")
    first = np.zeros(len(names), dtype=bool)
    first[np.unique(table.names, return_index=True)[1]] = True
    for j in np.flatnonzero(~first)[:1]:
        raise _Fault(names[j], None, "duplicate technology name")
    within = series[1:] == series[:-1]
    for k in np.flatnonzero(within & (np.diff(years) != 1))[:1]:
        y0, y1 = years[k], years[k + 1]
        what = f"duplicate year {y1}" if y1 == y0 else f"gap in years ({y0} -> {y1})"
        raise _Fault(names[series[k]], k + 1, what)
    if z is not None:
        good = np.isfinite(z) & (z > 0)
        # in log too: every Wright fit divides by the log-experience steps
        with np.errstate(divide="ignore", invalid="ignore"):
            good[1:] &= ~within | (np.diff(z) > 0) & (np.diff(table.log_experience) > 0)
        for i in np.flatnonzero(~good)[:1]:
            what = "experience must be finite, positive and strictly increasing"
            raise _Fault(names[series[i]], i, what)


@dataclass(frozen=True)
class DiffSeries:
    """First differences: ``y`` of log cost, ``x`` of log experience.

    Built from ``m + 1`` observations it holds ``m`` differences. Every ``x``
    must be positive, as the :class:`SeriesTable` contract makes them.
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


def ingest_csv(path) -> SeriesTable:
    """Read a ``technology,year,cost,production`` CSV into a :class:`SeriesTable`.

    The file is parsed column-wise by the package's CSV codec. Rows may
    appear in any order; they are grouped by technology (series order
    follows first appearance, names are stripped of surrounding whitespace)
    and stably sorted by year within each group. Extra columns (e.g. derived
    columns written by :func:`write_csv`) are ignored.

    Raises ``DataError`` for a missing column, a row with missing fields, an
    unparsable value or a broken rule of the :class:`SeriesTable` contract.
    The message names the technology (the file for an empty name) and the
    file line a faulty row starts on, blank lines and line breaks in quoted
    fields included. The first short row or unparsable value is reported,
    else the table's first fault, in technology and year order.
    """
    path = Path(path)
    kinds = dict(zip(REQUIRED_COLUMNS, (str, np.int64, float, float)))
    try:
        columns = _csvio.read_csv(path, kinds, path.name)
    except _csvio.RowError as exc:
        line, fields = _csvio.row_line(path, exc.row)
        name = fields.get("technology", "").strip()  # a short row may end before its name
        what = "row with missing fields" if exc.short else f"unparsable value ({exc})"
        raise DataError(f"{name or path.name} line {line}: {what}") from None
    except ValueError as exc:
        raise DataError(str(exc)) from None
    names = np.strings.strip(columns["technology"])

    # technologies in order of first appearance, each one's rows by year
    uniq, first, inverse, counts = np.unique(
        names, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rows = np.lexsort((columns["year"], first[inverse]))
    try:
        return SeriesTable(
            uniq[order], counts[order], *(columns[c][rows] for c in REQUIRED_COLUMNS[1:])
        )
    except _Fault as fault:
        at = "" if fault.row is None else f" line {_csvio.row_line(path, rows[fault.row] + 1)[0]}"
        raise DataError(f"{fault.name or path.name}{at}: {fault.what}") from None


def write_csv(path, dataset: SeriesTable) -> None:
    """Write a :class:`SeriesTable` (plus derived columns) as CSV.

    Columns: ``technology,year,cost,production,experience,log_cost,
    log_experience``; ``experience`` and ``log_experience`` are left empty
    when experience has not been built. Values are written with 17
    significant digits so a write/ingest round trip is exact.
    """
    built = dataset.experience is not None
    empty = np.full(len(dataset.years), "")
    _csvio.write_csv(path, REQUIRED_COLUMNS + DERIVED_COLUMNS, [[
        np.repeat(dataset.names, dataset.T), dataset.years, dataset.cost, dataset.production,
        dataset.experience if built else empty, dataset.log_cost,
        dataset.log_experience if built else empty,
    ]])


def _discrete_growth(production: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``g_d`` of each row of a (series × year) production matrix whose row
    ``i`` holds a series of ``T[i]`` years, then padding."""
    first = production[:, :1].ravel()  # a table of no series has no columns
    last = production[np.arange(len(production)), T - 1]
    # an end that underflowed to 0 gives g_d = -1, and a quotient that
    # overflows gives inf; the table's contract refuses the experience built
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(last / first) / (T - 1)) - 1.0


def _corrected_experience(names, production: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Experience of each row of a (series × year) production matrix under
    the initial-stock correction; row ``i`` holds a series of ``T[i]`` years,
    and the entries after them are padding that no kept entry depends on.

    A row is ``Q_first / g_d`` plus the running sum of the years before each
    year, added in year order. Raises ``DataError`` naming the first series
    whose discrete growth rate ``g_d`` is at or below :data:`GROWTH_FLOOR`;
    the correction divides by it.
    """
    g_d = _discrete_growth(production, T)
    for i in np.flatnonzero(~(g_d > GROWTH_FLOOR))[:1]:
        raise DataError(f"{names[i]}: zero production growth rate (g_d={g_d[i]:.3g})")
    z = np.zeros(production.shape)
    with np.errstate(over="ignore"):  # an experience level past the floats is inf, and refused
        np.cumsum(production[:, :-1], axis=1, out=z[:, 1:])
        z += production[:, :1] / g_d[:, None]
    return z


def build_experience(dataset: SeriesTable) -> SeriesTable:
    """The table with experience filled in by the initial-stock correction.

    Each series is built on its own: its first value is ``Q_first / g_d``
    and each later value adds the *previous* year's production, so
    experience at a given year excludes that year's output. Exactly geometric
    production with rate ``g_d`` makes experience equal ``Q_t / g_d`` at
    every year. Raises ``DataError`` ("zero production growth rate") for a
    series whose ``g_d`` is at or below :data:`GROWTH_FLOOR`.
    """
    keep = np.arange(dataset.T.max(initial=0)) < dataset.T[:, None]
    production = np.ones(keep.shape)  # row by row, its entries under keep are the column
    production[keep] = dataset.production
    z = _corrected_experience(dataset.names, production, dataset.T)
    return SeriesTable(
        dataset.names, dataset.T, dataset.years, dataset.cost, dataset.production, z[keep]
    )


def _growth_moments(dq, dx) -> tuple:
    """Means and sample standard deviations ``(g, sigma_q, r, sigma_x)`` of
    rows of log production and experience changes, along the last axis."""
    growth = np.stack([dq, dx])
    g, r = growth.mean(axis=-1)
    sigma_q, sigma_x = growth.std(axis=-1, ddof=1)
    return g, sigma_q, r, sigma_x


def growth_stats(series: TechSeries) -> GrowthStats:
    """Means and sample standard deviations of log production/experience growth."""
    moments = _growth_moments(np.diff(np.log(series.production)), np.diff(series.log_experience))
    g_d = _discrete_growth(series.production[None], np.array([series.T]))[0]
    return GrowthStats(*map(float, moments), g_d=float(g_d))
