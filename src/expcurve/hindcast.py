"""Rolling-origin pseudo-forecasting.

Every stretch of ``m + 1`` observations (``m`` differences) that leaves at
least one later observation becomes an estimation window. Both models are
fit on the window, forecasts are made for every reachable horizon, and the
realized errors are recorded together with the per-window scale estimates
needed to normalize them. Origins advance one year at a time, so errors from
one technology overlap heavily; the surrogate-data machinery is the tool
that accounts for that downstream.

Future experience is always the realized series (costs are forecast
conditional on experience), and the experience-curve forecasts always use
the plain least-squares slope.

Errors come back as a :class:`HindcastTable`: one row per (technology,
origin, horizon, model), stored column by column. ``table.pooled_error`` is
a NumPy array over all rows and ``table[table.model == "moore"]`` is a
sub-table; ``len``, ``table[i]`` and iteration give :class:`HindcastError`
row views for code that works record by record. The table is the one error
container: every function here that takes errors takes a table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from . import _csvio
from ._csvio import _CHUNK
from .estimators import _window_fits
from .series import SeriesTable
from .variance import _ma1_unit_variance, a_factor, ma1_variance_constant_x

ERROR_COLUMNS = (
    "technology",
    "origin_year",
    "tau",
    "model",
    "raw_error",
    "K_hat",
    "sigma_eta_hat",
    "A",
    "normalized_error",
    "pooled_error",
)


@dataclass(frozen=True)
class HindcastConfig:
    """Window size ``m`` (differences), horizon cap and pooled MA(1)
    coefficient used in normalization.

    ``tau_max=None`` leaves horizons uncapped.
    """

    m: int = 5
    tau_max: int | None = 20
    rho: float = 0.19

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.tau_max is not None and self.tau_max < 1:
            raise ValueError("tau_max must be at least 1")


@dataclass(slots=True)
class HindcastError:
    """One pseudo-forecast error (a row of a :class:`HindcastTable`).

    ``raw_error`` is realized minus forecast log cost. ``normalized_error``
    divides by the window's random-walk scale ``K_hat`` for both models so
    the two are directly comparable; ``pooled_error`` additionally rescales
    so errors of different horizons can be aggregated (``/ sqrt(A)`` for the
    random walk, ``/ sqrt(constant-growth MA(1) variance)`` for the
    experience curve). ``m`` is the window size. ``wright_variance`` is the
    realized-experience MA(1) variance of this window/horizon (the
    random-walk variance is ``K_hat**2 * A``). Records loaded from CSV carry
    ``None`` for ``origin_index`` and ``wright_variance``, which the CSV
    format omits.

    A row is a fresh view built from the table's columns on every access:
    changing its fields changes nothing in the table, and rows compare by
    value but are unhashable.
    """

    technology: str
    origin_year: int
    tau: int
    model: str
    raw_error: float
    K_hat: float
    sigma_eta_hat: float
    A: float
    normalized_error: float
    pooled_error: float
    m: int
    origin_index: int | None = None
    wright_variance: float | None = None


_FIELDS = tuple(f.name for f in fields(HindcastError))
_OPTIONAL = ("origin_index", "wright_variance")
_DTYPES = {
    "technology": str,
    "model": str,
    "origin_year": np.int64,
    "tau": np.int64,
    "m": np.int64,
    "origin_index": np.int64,
}


def _same_column(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


class HindcastTable:
    """Hindcast errors stored column-wise, in record order (technology,
    origin, horizon, model).

    Each :class:`HindcastError` field is a NumPy array attribute of the same
    name. An optional column (``origin_index``, ``wright_variance``) is
    ``None`` when the source lacks it; a table read from CSV has neither. A
    table without ``m`` cannot be made.

    ``len(table)``, ``table[i]`` and iteration give :class:`HindcastError`
    row views, so record-wise code and ``dataclasses.replace`` keep working;
    a slice or a boolean/integer index array gives a sub-table. A table
    equals another table with the same columns (NaN matching NaN).
    """

    __slots__ = _FIELDS

    def __init__(self, **columns):
        n = None
        for name in _FIELDS:
            col = columns.pop(name, None)
            if col is not None:
                col = np.asarray(col, dtype=_DTYPES.get(name, float))
                if col.ndim != 1 or n not in (None, len(col)):
                    raise ValueError("columns must be one-dimensional and of equal length")
                n = len(col)
            elif name not in _OPTIONAL:
                raise TypeError(f"missing column '{name}'")
            setattr(self, name, col)
        if columns:
            raise TypeError(f"unknown column(s): {', '.join(columns)}")

    def __len__(self) -> int:
        return len(self.tau)

    def __iter__(self):
        # Python objects are made one chunk of rows at a time, so iterating
        # never holds more than a chunk beyond what the caller keeps.
        columns = self._columns()
        for lo in range(0, len(self), _CHUNK):
            yield from map(
                HindcastError,
                *(repeat(None) if col is None else col[lo:lo + _CHUNK].tolist() for col in columns),
            )

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return HindcastError(
                *(None if col is None else col[index].item() for col in self._columns())
            )
        return HindcastTable(
            **{
                name: None if col is None else col[index]
                for name, col in zip(_FIELDS, self._columns())
            }
        )

    def __eq__(self, other):
        if isinstance(other, HindcastTable):
            return all(map(_same_column, self._columns(), other._columns()))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"HindcastTable({len(self)} rows)"

    def _columns(self) -> list:
        return [getattr(self, name) for name in _FIELDS]


def _model_rows(table: HindcastTable, model: str) -> HindcastTable:
    """The rows of one model, as a zero-copy view of ``table``.

    A hindcast writes its moore and wright rows alternately, and its error
    CSV keeps that order, so each model's rows are every second row. Raises
    ``ValueError`` for a table that is not in that order.
    """
    k = ("moore", "wright").index(model)
    if not np.all(table.model[k::2] == model):
        raise ValueError(f"{model} rows are not every second row, as a hindcast writes them")
    return table[k::2]


def _hindcast_rows(dataset: SeriesTable, cfg: HindcastConfig) -> tuple[HindcastTable, int]:
    """Every error of the dataset, and the number of windows with zero
    random-walk scale.

    Every window and future path is gathered by index from the table's log
    cost and log experience columns. Window ``w`` ends at origin ``o[w]`` of
    its series and holds the differences ``o - m .. o - 1``: row ``w`` of an
    ``(n_windows, m)`` matrix (a series too short for one window plus one
    forecast has none). Its future paths are row ``w`` of an ``(n_windows,
    h_max)`` matrix, horizon ``h`` in column ``h - 1``. One mask keeps the
    horizons each window reaches (and ``tau_max`` allows); the entries it
    drops are read from other series or clipped at the end and never reach a
    result. Future sums are a row-wise cumulative sum, so every sum adds the
    same terms in the same order as a per-window loop would. The window fits
    and the realized-experience MA(1) variance are the library's own
    kernels, applied to all windows at once.
    """
    m, rho = cfg.m, cfg.rho
    T, y = dataset.T, dataset.log_cost
    dy = np.diff(y)
    dx = np.diff(dataset.log_experience)
    n_win = np.maximum(T - 1 - m, 0)
    sid = np.repeat(np.arange(len(T)), n_win)
    o = np.arange(len(sid)) - (np.cumsum(n_win) - n_win)[sid] + m
    # origins' positions in the concatenated levels; dx[p] and dy[p] step
    # from level p to p + 1, so a window is dx[at - m:at] and horizon h
    # adds dx[at + h - 1]
    at = (np.cumsum(T) - T)[sid] + o
    past = at[:, None] + np.arange(-m, 0)
    xw, yw = dx[past], dy[past]

    _, omega, sig_eta2, mu, k2 = _window_fits(xw, yw)
    sig_eta = np.sqrt(sig_eta2)
    k_hat = np.sqrt(k2)
    su2 = sig_eta2 * (1.0 / (1.0 + rho * rho))

    n_tau = T[sid] - 1 - o
    if cfg.tau_max is not None:
        n_tau = np.minimum(n_tau, cfg.tau_max)
    h = np.arange(1, n_tau.max() + 1)
    keep = h <= n_tau[:, None]
    ahead = at[:, None] + h
    fsum = np.cumsum(dx.take(ahead - 1, mode="clip"), axis=1)[keep]
    actual = (y.take(ahead, mode="clip") - y[at, None])[keep]
    win, col = np.nonzero(keep)
    taus = col + 1

    e_w = actual - omega[win] * fsum
    e_m = actual - mu[win] * taus
    a = a_factor(taus, m)
    v_wright = su2[win] * _ma1_unit_variance(rho, xw[win], fsum, taus)

    n = len(taus)
    k_row = k_hat[win]
    scaled = k_row > 0.0
    norm_w = np.divide(e_w, k_row, out=np.full(n, np.nan), where=scaled)
    norm_m = np.divide(e_m, k_row, out=np.full(n, np.nan), where=scaled)
    pooled_m = np.divide(e_m, k_row * np.sqrt(a), out=np.full(n, np.nan), where=scaled)
    pooled_w = np.full(n, np.nan)
    pos = sig_eta[win] > 0.0
    v_pool = ma1_variance_constant_x(np.sqrt(su2[win[pos]]), rho, taus[pos], m)
    pooled_w[pos] = e_w[pos] / np.sqrt(v_pool)

    def per_model(moore, wright):
        return np.stack([moore, wright], axis=1).ravel()

    def per_row(values):
        return np.repeat(values, 2)

    table = HindcastTable(
        technology=per_row(dataset.names[sid[win]]),
        origin_year=per_row(dataset.years[at[win]]),
        tau=per_row(taus),
        model=np.tile(np.array(["moore", "wright"]), n),
        raw_error=per_model(e_m, e_w),
        K_hat=per_row(k_row),
        sigma_eta_hat=per_row(sig_eta[win]),
        A=per_row(a),
        normalized_error=per_model(norm_m, norm_w),
        pooled_error=per_model(pooled_m, pooled_w),
        m=np.full(2 * n, m),
        origin_index=per_row(o[win]),
        wright_variance=per_row(v_wright),
    )
    return table, int(np.count_nonzero(~(k_hat > 0.0)))


def run_hindcast(dataset: SeriesTable, config: HindcastConfig | None = None) -> HindcastTable:
    """Run the rolling-origin procedure over a :class:`SeriesTable` with
    experience built.

    Series too short for one window plus one forecast are skipped with a
    warning, not an error. All windows of the dataset are computed in one
    vectorized pass in the calling thread; the CLI's ``--threads`` flag is
    accepted and has no effect, because a thread pool made the pass slower.
    Row order is (technology, origin, horizon, model), with technologies in
    dataset order.
    """
    cfg = config or HindcastConfig()
    short = dataset.T < cfg.m + 2
    for name, T in zip(dataset.names[short].tolist(), dataset.T[short].tolist()):
        warnings.warn(f"{name}: too short for m={cfg.m} (T={T}); skipped", stacklevel=2)
    if short.all():
        return HindcastTable(**{name: () for name in _FIELDS})
    table, zero_scale = _hindcast_rows(dataset, cfg)
    if zero_scale:
        warnings.warn(
            f"{zero_scale} window(s) had zero residual scale; their normalized "
            "errors are recorded as nan",
            stacklevel=2,
        )
    return table


def mse_by_horizon(errors: HindcastTable, normalization: str = "moore") -> dict[int, tuple[float, int]]:
    """Mean squared normalized error and sample count per horizon of a
    :class:`HindcastTable`.

    ``normalization`` selects the error field: ``"moore"`` for the
    scale-normalized error, ``"pooled"`` for the horizon-rescaled one.
    Non-finite entries (zero-scale windows) are dropped. Technologies with
    more windows weigh in more often; that is accepted.
    """
    if not len(errors):
        raise ValueError("empty error list")
    if normalization not in ("moore", "pooled"):
        raise ValueError("normalization must be 'moore' or 'pooled'")
    vals = errors.normalized_error if normalization == "moore" else errors.pooled_error
    finite = np.isfinite(vals)
    taus = errors.tau[finite]
    vals = vals[finite]
    # bincount adds in row order, as a running sum per horizon would
    sums = np.bincount(taus, weights=vals * vals)
    counts = np.bincount(taus)
    return {
        tau: (float(sums[tau] / counts[tau]), int(counts[tau]))
        for tau in np.flatnonzero(counts).tolist()
    }


def pooled_errors(errors: HindcastTable, config: HindcastConfig | None = None) -> np.ndarray:
    """Pooled errors of a :class:`HindcastTable`, recomputed from the raw
    fields, one per row.

    Random-walk errors are divided by ``K_hat * sqrt(A)``; experience-curve
    errors by the square root of the constant-growth MA(1) variance at
    ``config.rho`` and each row's window size ``m`` (which reduces to
    ``sigma_eta_hat * sqrt(A)`` when ``rho = 0``). Passing a config with a
    different ``rho`` re-pools an existing run without re-running it.
    """
    cfg = config or HindcastConfig()
    out = np.full(len(errors), np.nan)
    moore = errors.model == "moore"
    rw = moore & (errors.K_hat > 0.0)
    out[rw] = errors.raw_error[rw] / (errors.K_hat[rw] * np.sqrt(errors.A[rw]))
    ec = ~moore & (errors.sigma_eta_hat > 0.0)
    if ec.any():
        su = errors.sigma_eta_hat[ec] / math.sqrt(1.0 + cfg.rho * cfg.rho)
        v = ma1_variance_constant_x(su, cfg.rho, errors.tau[ec], errors.m[ec])
        out[ec] = errors.raw_error[ec] / np.sqrt(v)
    return out


def write_errors_csv(path, errors: HindcastTable) -> None:
    """Write a :class:`HindcastTable`, one row per record, in
    ``ERROR_COLUMNS`` order.

    Floats have 17 significant digits, so :func:`read_errors_csv` gives them
    back exactly. Text gets ``csv``'s minimal quoting, lines end in
    ``\\r\\n``, and rows are formatted and written 4,096 at a time.
    """
    _csvio.write_csv(path, ERROR_COLUMNS, [getattr(errors, name) for name in ERROR_COLUMNS])


def read_errors_csv(path) -> HindcastTable:
    """Read a hindcast error CSV back into a table, 4,096 rows at a time.

    Columns are found by header name. Raises ``ValueError`` for a missing
    column, a row with missing fields, or a window size ``m`` that cannot be
    recovered from ``A = tau + tau**2 / m``. ``origin_index`` and
    ``wright_variance`` are not stored, so those columns are ``None``.
    """
    columns = _csvio.read_csv(
        path, {name: _DTYPES.get(name, float) for name in ERROR_COLUMNS}, "error CSV"
    )
    tau, A = columns["tau"], columns["A"]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.rint(tau * tau / (A - tau))
    if not np.all(np.isfinite(m)):
        raise ValueError("error CSV: window size m cannot be recovered from tau and A")
    return HindcastTable(m=m.astype(np.int64), **columns)
