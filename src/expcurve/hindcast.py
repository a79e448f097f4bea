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
from typing import NamedTuple

import numpy as np

from . import _csvio
from ._csvio import _CHUNK
from .estimators import RHO_STAR, _window_fits
from .series import SeriesTable
from .variance import a_factor, ma1_variance_constant_x

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

MODELS = ("moore", "wright")  # in the order a hindcast writes each error's rows


@dataclass(frozen=True)
class HindcastConfig:
    """Window size ``m`` (differences), horizon cap and pooled MA(1)
    coefficient used in normalization.

    ``tau_max=None`` leaves horizons uncapped.
    """

    m: int = 5
    tau_max: int | None = 20
    rho: float = RHO_STAR

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError("m must be an integer of at least 2")
        tau_max = 1 if self.tau_max is None else self.tau_max  # None leaves horizons uncapped
        if not isinstance(tau_max, (int, np.integer)) or tau_max < 1:
            raise ValueError("tau_max must be None or an integer of at least 1")
        if not abs(self.rho) <= 1.0:  # NaN fails too
            raise ValueError("rho must lie in [-1, 1]")


@dataclass(slots=True)
class HindcastError:
    """One pseudo-forecast error (a row of a :class:`HindcastTable`).

    ``raw_error`` is realized minus forecast log cost. ``normalized_error``
    divides by the window's random-walk scale ``K_hat`` for both models so
    the two are directly comparable; ``pooled_error`` additionally rescales
    so errors of different horizons can be aggregated (``/ sqrt(A)`` for the
    random walk, ``/ sqrt(constant-growth MA(1) variance)`` for the
    experience curve). The fields are the ``errors.csv`` columns
    (``ERROR_COLUMNS``) plus the window size ``m``.

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


_FIELDS = tuple(f.name for f in fields(HindcastError))
_DTYPES = {"technology": str, "model": str, "origin_year": np.int64, "tau": np.int64, "m": np.int64}


def _same_column(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


class HindcastTable:
    """Hindcast errors stored column-wise, in record order (technology,
    origin, horizon, model).

    Each :class:`HindcastError` field (an ``errors.csv`` column or ``m``) is
    a NumPy array attribute of the same name, and every one is required, so
    a table read back from its CSV equals the table that was written. Every
    window size ``m`` is at least 2, as :class:`HindcastConfig` requires.

    ``len(table)``, ``table[i]`` and iteration give :class:`HindcastError`
    row views, so record-wise code and ``dataclasses.replace`` keep working;
    a slice or a boolean/integer index array gives a sub-table. A table
    equals another table with the same columns (NaN matching NaN).
    """

    __slots__ = _FIELDS

    def __init__(self, **columns):
        n = None
        for name in _FIELDS:
            if name not in columns:
                raise TypeError(f"missing column '{name}'")
            col = np.asarray(columns.pop(name), dtype=_DTYPES.get(name, float))
            if col.ndim != 1 or n not in (None, len(col)):
                raise ValueError("columns must be one-dimensional and of equal length")
            n = len(col)
            setattr(self, name, col)
        if columns:
            raise TypeError(f"unknown column(s): {', '.join(columns)}")
        if np.any(self.m < 2):
            raise ValueError("window size m must be at least 2")

    def __len__(self) -> int:
        return len(self.tau)

    def __iter__(self):
        # Python objects are made one chunk of rows at a time, so iterating
        # never holds more than a chunk beyond what the caller keeps.
        columns = self._columns()
        for lo in range(0, len(self), _CHUNK):
            yield from map(HindcastError, *(col[lo:lo + _CHUNK].tolist() for col in columns))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return HindcastError(*(col[index].item() for col in self._columns()))
        return HindcastTable(**{name: col[index] for name, col in zip(_FIELDS, self._columns())})

    def __eq__(self, other):
        if isinstance(other, HindcastTable):
            return all(map(_same_column, self._columns(), other._columns()))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"HindcastTable({len(self)} rows)"

    def _columns(self) -> list:
        return [getattr(self, name) for name in _FIELDS]


def _model_slice(models: np.ndarray, model: str) -> slice:
    """The rows of one model in a hindcast's ``model`` column.

    A hindcast writes its moore and wright rows alternately, and its error
    CSV keeps that order, so each model's rows are every second row. Raises
    ``ValueError`` for a column that is not in that order.
    """
    k = MODELS.index(model)
    if not np.all(models[k::2] == model):
        raise ValueError(f"{model} rows are not every second row, as a hindcast writes them")
    return slice(k, None, 2)


class _Windows(NamedTuple):
    """Every estimation window of a dataset and every error it makes.

    Per window: its series (an index into the dataset), its origin (the
    origin's position in the dataset's level columns), its ``m`` experience
    differences ``xw``, and its fitted ``sig_eta2`` (not rooted) and
    ``k_hat``. Per error, in (window, horizon) order: its window ``win``, its
    horizon ``tau``, the realized experience differences ``fsum`` summed over
    the horizon, and the raw random-walk and experience-curve errors.

    :func:`run_hindcast` builds the error table from it. :func:`mse_curve`
    (one per ensemble replicate) and the calibration study read it directly
    and build no table.
    """

    series: np.ndarray
    origin: np.ndarray
    xw: np.ndarray
    sig_eta2: np.ndarray
    k_hat: np.ndarray
    win: np.ndarray
    tau: np.ndarray
    fsum: np.ndarray
    e_moore: np.ndarray
    e_wright: np.ndarray


def _windows(dataset: SeriesTable, cfg: HindcastConfig) -> _Windows:
    """Gather every window and error of the dataset, the module's one gather.

    Warns once for each series too short for one window plus one forecast
    (it has no window) and once for the windows with zero residual scale
    (their normalized errors are ``nan``); each warning points at the caller
    of the public function. A dataset with no window gives empty arrays.

    Every window and future path is gathered by index from the table's log
    cost and log experience columns. Window ``w`` ends at origin ``o[w]`` of
    its series and holds the differences ``o - m .. o - 1``: row ``w`` of an
    ``(n_windows, m)`` matrix. Its future paths are row ``w`` of an
    ``(n_windows, h_max)`` matrix, horizon ``h`` in column ``h - 1``. One
    mask keeps the horizons each window reaches (and ``tau_max`` allows); the
    entries it drops are read from other series or clipped at the end and
    never reach a result. Future sums are a row-wise cumulative sum, so every sum adds the
    same terms in the same order as a per-window loop would. The window fits
    are the library's own kernel, applied to all windows at once.
    """
    m = cfg.m
    T, y = dataset.T, dataset.log_cost
    short = T < m + 2
    for name, t in zip(dataset.names[short].tolist(), T[short].tolist()):
        warnings.warn(f"{name}: too short for m={m} (T={t}); skipped", stacklevel=3)
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

    n_tau = T[sid] - 1 - o
    if cfg.tau_max is not None:
        n_tau = np.minimum(n_tau, cfg.tau_max)
    h = np.arange(1, n_tau.max(initial=0) + 1)
    keep = h <= n_tau[:, None]
    ahead = at[:, None] + h
    fsum = np.cumsum(dx.take(ahead - 1, mode="clip"), axis=1)[keep]
    actual = (y.take(ahead, mode="clip") - y[at, None])[keep]
    win, col = np.nonzero(keep)
    taus = col + 1
    e_m = actual - mu[win] * taus
    e_w = actual - omega[win] * fsum
    k_hat = np.sqrt(k2)
    zero_scale = np.count_nonzero(~(k_hat > 0.0))
    if zero_scale:
        warnings.warn(
            f"{zero_scale} window(s) had zero residual scale; their normalized "
            "errors are recorded as nan",
            stacklevel=3,
        )
    return _Windows(sid, at, xw, sig_eta2, k_hat, win, taus, fsum, e_m, e_w)


def _error_table(dataset: SeriesTable, cfg: HindcastConfig, w: _Windows) -> HindcastTable:
    """The table of a gather's errors: a moore row, then a wright row, for
    each error."""
    m, rho, win, n = cfg.m, cfg.rho, w.win, len(w.tau)

    def per_row(values):
        return np.repeat(values, 2)

    columns = dict(
        tau=per_row(w.tau),
        raw_error=np.stack([w.e_moore, w.e_wright], axis=1).ravel(),
        K_hat=per_row(w.k_hat[win]),
        A=per_row(a_factor(w.tau, m)),
        m=np.full(2 * n, m),
    )
    # sigma_u unrooted, unlike pooled_errors' (last bits differ): ROADMAP item 4
    su = per_row(np.sqrt(w.sig_eta2 * (1.0 / (1.0 + rho * rho)))[win])
    return HindcastTable(
        technology=per_row(dataset.names[w.series[win]]),
        origin_year=per_row(dataset.years[w.origin[win]]),
        model=np.tile(np.array(MODELS), n),
        sigma_eta_hat=per_row(np.sqrt(w.sig_eta2)[win]),
        normalized_error=_normalized(columns["raw_error"], columns["K_hat"]),
        pooled_error=_pooled(np.tile([True, False], n), su, rho, **columns),
        **columns,
    )


def _normalized(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``values / scale``, and ``nan`` where the scale is not positive: the
    module's one safe division."""
    return np.divide(values, scale, out=np.full(len(values), np.nan), where=scale > 0.0)


def _pooled(moore, su, rho, *, raw_error, K_hat, A, tau, m) -> np.ndarray:
    """Errors divided by their forecast-error scale, so all horizons pool: a
    random-walk (``moore``) row by ``K_hat * sqrt(A)``, any other by the root
    of the constant-growth MA(1) variance at its ``su``, ``rho``, ``tau`` and
    ``m``; ``nan`` where the scale is zero."""
    scale = K_hat * np.sqrt(A)
    ec = ~moore
    scale[ec] = np.sqrt(ma1_variance_constant_x(su[ec], rho, tau[ec], m[ec]))
    return _normalized(raw_error, scale)


def run_hindcast(dataset: SeriesTable, config: HindcastConfig | None = None) -> HindcastTable:
    """Run the rolling-origin procedure over a :class:`SeriesTable` with
    experience built, and return every error with the columns of
    ``errors.csv``.

    Series too short for one window plus one forecast are skipped, not an
    error (a dataset of only such series gives an empty table), and the
    gather, :func:`_windows`, warns for each and for the windows with zero
    residual scale. All windows of the dataset are computed in one
    vectorized pass in the calling thread; the CLI's ``--threads`` flag is
    accepted and has no effect, because a thread pool made the pass slower.
    Row order is (technology, origin, horizon, model), with technologies in
    dataset order. A caller that needs only the per-horizon mean squared
    normalized error calls :func:`mse_curve`, which builds no table.
    """
    cfg = config or HindcastConfig()
    return _error_table(dataset, cfg, _windows(dataset, cfg))


def _horizon_mse(taus: np.ndarray, vals: np.ndarray, tau_max: int = 0):
    """Mean squared value and count of the finite ``vals`` per horizon, as
    two arrays indexed by horizon (at least ``0 .. tau_max``); the mean is
    ``nan`` where a horizon has no finite value."""
    finite = np.isfinite(vals)
    taus = taus[finite]
    vals = vals[finite]
    # bincount adds in row order, as a running sum per horizon would
    sums = np.bincount(taus, weights=vals * vals, minlength=tau_max + 1)
    counts = np.bincount(taus, minlength=tau_max + 1)
    return _normalized(sums, counts), counts


def mse_curve(dataset: SeriesTable, config: HindcastConfig | None = None) -> np.ndarray:
    """Mean squared normalized error per model and horizon of a hindcast of
    ``dataset``: row 0 for moore, row 1 for wright, column ``tau - 1`` for
    horizons 1 .. ``tau_max`` (the longest reach when uncapped, so none
    without a window), ``nan`` where no finite error reaches a horizon.

    Row ``k`` holds, bit for bit, the means of
    ``mse_by_horizon(table[_model_slice(table.model, model)])`` for
    ``table = run_hindcast(dataset, config)``, and it warns as
    :func:`run_hindcast` does, because the warnings come from the gather,
    :func:`_windows`. It reads only that gather and builds no error table,
    so an ensemble statistic pays for nothing it does not read.
    """
    cfg = config or HindcastConfig()
    w = _windows(dataset, cfg)
    tau_max = cfg.tau_max or int(w.tau.max(initial=0))
    k_row = w.k_hat[w.win]
    return np.stack([
        _horizon_mse(w.tau, _normalized(e, k_row), tau_max)[0][1:] for e in (w.e_moore, w.e_wright)
    ])


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
    mse, counts = _horizon_mse(errors.tau, vals)
    return {tau: (float(mse[tau]), int(counts[tau])) for tau in np.flatnonzero(counts).tolist()}


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
    # sigma_u rooted, unlike run_hindcast's (last bits differ): ROADMAP item 4
    su = errors.sigma_eta_hat / math.sqrt(1.0 + cfg.rho * cfg.rho)
    columns = {name: getattr(errors, name) for name in ("raw_error", "K_hat", "A", "tau", "m")}
    return _pooled(errors.model == "moore", su, cfg.rho, **columns)


def write_errors_csv(path, errors: HindcastTable) -> None:
    """Write a :class:`HindcastTable`, one row per record, in
    ``ERROR_COLUMNS`` order.

    Floats have 17 significant digits, so :func:`read_errors_csv` gives them
    back exactly; the codec's NumPy kernel formats them, a block of rows at
    a time. Text gets ``csv``'s minimal quoting and lines end in
    ``\\r\\n``.
    """
    _csvio.write_csv(path, ERROR_COLUMNS, [getattr(errors, name) for name in ERROR_COLUMNS])


def _window_size(tau: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Each row's window size ``m``, recovered from ``A = tau + tau**2 / m``
    by rounding. Raises ``ValueError`` where no ``m`` of at least 2, the
    smallest window :class:`HindcastConfig` allows, gives ``A``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.rint(tau * tau / (A - tau))
    if not np.all(np.isfinite(m) & (m >= 2)):
        raise ValueError("error CSV: window size m cannot be recovered from tau and A")
    return m.astype(np.int64)


def read_error_columns(path, names=ERROR_COLUMNS) -> dict[str, np.ndarray]:
    """The ``names`` columns of a hindcast error CSV, ``tau`` and ``A``
    always among them, found by header name and read 4,096 rows at a time,
    plus each row's window size ``m`` (:func:`_window_size`). No other column
    is parsed, so the others may be missing or hold anything. Raises
    ``ValueError`` for a missing column, a row with missing fields, a value
    that does not parse, or an ``m`` below 2 or not recoverable."""
    wanted = (*names, "tau", "A")
    columns = _csvio.read_csv(path, {n: _DTYPES.get(n, float) for n in wanted}, "error CSV")
    columns["m"] = _window_size(columns["tau"], columns["A"])
    return columns


def read_errors_csv(path) -> HindcastTable:
    """Read a hindcast error CSV back into a whole table: every
    ``ERROR_COLUMNS`` column and ``m`` (:func:`read_error_columns`)."""
    return HindcastTable(**read_error_columns(path))
