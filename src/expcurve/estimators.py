"""Model fitting on difference series.

Two one-parameter trend models are fit on windows of ``m`` differences:

* Wright: log-cost changes regressed through the origin on log-experience
  changes (slope ``omega``), residual scale from the regression standard
  error with ``m - 1`` in the denominator.
* Moore: log-cost changes as a drifting random walk (sample mean ``mu`` and
  sample standard deviation ``K``).

An extended Wright fit adds first-order moving-average residuals
``e_t = u_t + rho * u_{t-1}`` and maximizes the exact Gaussian likelihood
jointly over ``(omega, rho, sigma_u)``. The likelihood is evaluated through
the innovations recursion for the MA(1) covariance, which is exact for short
windows; ``omega`` and ``sigma_u`` are profiled in closed form for each
candidate ``rho``, so the search is a deterministic one-dimensional grid
plus golden-section refinement. The recursion is written once and runs on a
stack of series of any mix of lengths, so a whole dataset is fit in
lockstep: one grid pass, then one batched step per golden-section iteration
until every series has converged. Each series sees the same arithmetic as
when fit alone, so its estimate is bit-identical either way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params_io import PARAM_COLUMNS, param_table
from .series import DiffSeries, SeriesTable, _growth_moments

# MA(1) coefficients at or beyond this magnitude are flagged as boundary
# estimates; pooling excludes them as likely misspecified.
RHO_BOUNDARY = 0.99

# The paper's pooled MA(1) coefficients: rho* of the experience curve (pool_rho
# over the bundled table gives 0.194) and theta* of the time trend.
RHO_STAR = 0.19
THETA_STAR = 0.23

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps allowed before a fit is reported as not converged.
_MAX_ITER = 200


@dataclass(frozen=True)
class WrightParams:
    """Fitted experience-curve parameters.

    ``rho``/``sigma_u`` are ``None`` for the plain least-squares fit; the
    moving-average fit sets them and satisfies
    ``sigma_u = sigma_eta / sqrt(1 + rho**2)``. ``boundary`` marks estimates
    with ``|rho| >= 0.99``.
    """

    omega: float
    sigma_eta: float
    m: int
    rho: float | None = None
    sigma_u: float | None = None
    boundary: bool = False
    loglik: float | None = None


@dataclass(frozen=True)
class MooreParams:
    """Fitted drift/scale of log-cost changes."""

    mu: float
    K: float
    m: int


def _window_fits(x, y):
    """Both window fits of every row of ``y`` (log-cost changes) on ``x``
    (log-experience changes), along the last axis.

    Returns ``(sx2, omega, sigma_eta**2, mu, K**2)``: the regressor's sum of
    squares, the least-squares slope through the origin and its residual
    variance with ``m - 1`` in the denominator, and the sample mean and
    sample variance of ``y``. Callers take square roots of the variances.
    """
    m = y.shape[-1]
    sx2 = np.vecdot(x, x)
    omega = np.vecdot(x, y) / sx2
    resid = y - omega[..., None] * x
    return sx2, omega, np.vecdot(resid, resid) / (m - 1), y.mean(axis=-1), y.var(axis=-1, ddof=1)


def fit_wright(diffs: DiffSeries) -> WrightParams:
    """Least-squares slope through the origin and residual scale.

    ``omega = sum(x*y) / sum(x**2)`` and
    ``sigma_eta**2 = sum((y - omega*x)**2) / (m - 1)``.
    """
    if diffs.m < 2:
        raise ValueError(f"need at least 2 differences, got {diffs.m}")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero sx2 is refused below
        sx2, omega, sig_eta2, _, _ = _window_fits(diffs.x, diffs.y)
    if sx2 <= 0.0:
        raise ValueError("degenerate regressor: all experience changes are zero")
    return WrightParams(omega=float(omega), sigma_eta=math.sqrt(sig_eta2), m=diffs.m)


def fit_moore(diffs: DiffSeries) -> MooreParams:
    """Sample mean and sample standard deviation of log-cost changes."""
    if diffs.m < 2:
        raise ValueError(f"need at least 2 differences, got {diffs.m}")
    _, _, _, mu, k2 = _window_fits(diffs.x, diffs.y)
    return MooreParams(mu=float(mu), K=math.sqrt(k2), m=diffs.m)


def _innovation_sums(y, x, rhos, lengths):
    """Innovations recursion of the unit-innovation MA(1) covariance
    (variance ``1 + rho**2``, lag-one covariance ``rho``).

    ``y`` and ``x`` are ``(n, m_max)`` stacks of series whose row ``i`` holds
    ``lengths[i]`` values (the rest is padding that is never read); rows are
    in non-increasing order of length. ``rhos`` holds ``(n, k)`` candidates.
    Step ``t`` updates only the rows longer than ``t``, a prefix of the stack.

    Returns the whitened sums ``(syy, sxy, sxx)`` and the log-determinant of
    the covariance, each ``(n, k)``.
    """
    if (lengths[1:] > lengths[:-1]).any():
        raise ValueError("rows must be ordered by non-increasing length")
    r0 = 1.0 + rhos * rhos
    v = r0.copy()  # one-step prediction variance, unit innovation scale
    wy = np.broadcast_to(y[:, :1], r0.shape).copy()
    wx = np.broadcast_to(x[:, :1], r0.shape).copy()
    syy = wy * wy / v
    sxy = wx * wy / v
    sxx = wx * wx / v
    logdet = np.log(v)
    # Steps lo..hi - 1 update the rows longer than lo, the first p rows. A
    # run of steps carries their state in its own arrays and writes it back
    # at the end, so no step re-slices the stack.
    yt, xt = y.T[:, :, None], x.T[:, :, None]
    lo = 1
    for hi in sorted(set(lengths.tolist())):
        p = np.count_nonzero(lengths >= hi)
        rp, r0p, vp, wyp, wxp = rhos[:p], r0[:p], v[:p], wy[:p], wx[:p]
        syyp, sxyp, sxxp, ldp = syy[:p], sxy[:p], sxx[:p], logdet[:p]
        for yc, xc in zip(yt[lo:hi, :p], xt[lo:hi, :p]):
            th = rp / vp
            vp = r0p - rp * th
            wyp = yc - th * wyp
            wxp = xc - th * wxp
            syyp += wyp * wyp / vp
            sxyp += wxp * wyp / vp
            sxxp += wxp * wxp / vp
            ldp += np.log(vp)
        v[:p], wy[:p], wx[:p] = vp, wyp, wxp
        lo = hi
    return syy, sxy, sxx, logdet


def _innovation_profiles(y, x, rhos, lengths):
    """Profile likelihood of the MA(1) regression at each candidate ``rho``.

    Whitens ``y`` and ``x`` with the innovations recursion, then solves the
    generalized least-squares slope and the ML innovation variance in closed
    form. ``y`` and ``x`` are ``(n, m_max)`` stacks with row ``lengths``
    ordered as :func:`_innovation_sums` needs; the candidates are ``(n, k)``
    or shared ``(k,)``.

    Returns ``(loglik, omega, sigma_u2)`` arrays, each ``(n, k)``.
    """
    rhos = np.broadcast_to(rhos, (len(y), np.shape(rhos)[-1]))
    syy, sxy, sxx, logdet = _innovation_sums(y, x, rhos, lengths)
    if (sxx <= 0.0).any():
        raise ValueError("degenerate regressor: all experience changes are zero")
    m = lengths[:, None].astype(float)
    omega = sxy / sxx
    rss = np.maximum(syy - omega * sxy, 1e-300)  # guard exact fits
    sigma_u2 = rss / m
    loglik = -0.5 * (m * np.log(2.0 * np.pi * sigma_u2) + logdet + m)
    return loglik, omega, sigma_u2


def fit_wright_ma1(diffs: DiffSeries | Sequence[DiffSeries]) -> WrightParams | list[WrightParams]:
    """Maximum-likelihood fit of the MA(1) experience-curve model.

    ``rho`` is searched on a 0.01-step grid over [-1, 1] with ``omega`` and
    ``sigma_u`` profiled in closed form, then refined by golden section
    around the best grid point. Estimates with ``|rho| >= 0.99`` are kept
    but flagged ``boundary=True`` so that pooling can exclude them.

    ``diffs`` is one :class:`DiffSeries` (returns :class:`WrightParams`) or a
    sequence of them (returns a list in the same order). A sequence is fit
    in lockstep: the grid stage and every golden-section step run as one
    batch over all the series, each series stopping when its own bracket is
    narrower than ``1e-10``. Every series goes through the same arithmetic
    as when fit alone, so the estimates do not depend on what else is in the
    batch; one series is a batch of one.

    Requires ``m >= 4``; shorter windows leave the likelihood too flat in
    ``rho`` for the estimate to mean anything. Raises ``RuntimeError`` if a
    series has not converged after ``_MAX_ITER`` (200) golden-section steps.
    """
    single = isinstance(diffs, DiffSeries)
    batch = [diffs] if single else list(diffs)
    if not batch:
        return []
    for d in batch:
        if d.m < 4:
            raise ValueError(f"need at least 4 differences for the MA(1) fit, got {d.m}")
    # Longest series first, so the series still inside their window at any
    # step of the recursion are a prefix of the stack.
    order = sorted(range(len(batch)), key=lambda i: -batch[i].m)
    lengths = np.array([batch[i].m for i in order])
    y = np.zeros((len(batch), lengths[0]))
    x = np.zeros_like(y)
    for row, i in enumerate(order):
        y[row, :lengths[row]] = batch[i].y
        x[row, :lengths[row]] = batch[i].x

    grid = np.linspace(-1.0, 1.0, 201)
    ll, _, _ = _innovation_profiles(y, x, grid, lengths)
    start = grid[np.argmax(ll, axis=1)]

    # Golden-section refinement on the bracketing interval, all series at once.
    a = np.maximum(-1.0, start - 0.01)
    b = np.minimum(1.0, start + 0.01)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    val, _, _ = _innovation_profiles(y, x, np.stack([c, d], axis=1), lengths)
    fc, fd = -val[:, 0], -val[:, 1]
    active = np.ones(len(batch), dtype=bool)
    for _ in range(_MAX_ITER):
        active = ~(b - a < 1e-10)
        if not active.any():
            break
        lower = fc < fd
        left = active & lower
        right = active & ~lower
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _GOLDEN * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _GOLDEN * (b[right] - a[right])
        # one new point a series, c on the left and d on the right; the rows
        # that have stopped searching are evaluated too and their values left
        val, _, _ = _innovation_profiles(y, x, np.where(lower, c, d)[:, None], lengths)
        fc[left] = -val[left, 0]
        fd[right] = -val[right, 0]
    else:
        k = int(np.flatnonzero(active)[0])
        raise RuntimeError(
            f"MA(1) refinement did not converge; best rho so far {0.5 * (a[k] + b[k]):.6f}"
        )

    candidates = np.stack([start, 0.5 * (a + b)], axis=1)
    ll_c, omega_c, su2_c = _innovation_profiles(y, x, candidates, lengths)
    out = [None] * len(batch)
    for row, i in enumerate(order):
        k = int(np.argmax(ll_c[row]))
        rho = float(candidates[row, k])
        sigma_u = math.sqrt(float(su2_c[row, k]))
        out[i] = WrightParams(
            omega=float(omega_c[row, k]),
            sigma_eta=sigma_u * math.sqrt(1.0 + rho * rho),
            m=int(lengths[row]),
            rho=rho,
            sigma_u=sigma_u,
            boundary=not abs(rho) < RHO_BOUNDARY,
            loglik=float(ll_c[row, k]),
        )
    return out[0] if single else out


def pool_rho(rho) -> tuple[float, int]:
    """Pooled MA(1) coefficient: the mean of a column of estimates, leaving
    out boundary estimates.

    An estimate is kept when ``|rho| < 0.99``, the test that sets the
    ``boundary`` flag of :func:`fit_wright_ma1`; NaN is excluded. Returns
    ``(rho_star, n_excluded)``.
    """
    rho = np.asarray(rho, dtype=float)
    kept = rho[np.abs(rho) < RHO_BOUNDARY]
    if not kept.size:
        raise ValueError("no rho estimate to pool: the column is empty or all are excluded")
    return float(np.mean(kept)), rho.size - kept.size


def full_sample_estimates(dataset: SeriesTable) -> np.ndarray:
    """Whole-sample parameter table (see :func:`~expcurve.params_io.param_table`),
    one row per technology of a :class:`SeriesTable` with experience built.

    Its columns are those of the ``estimate`` output table: growth
    statistics, Moore drift/scale, the least-squares experience exponent and
    residual scale, and the MA(1) coefficient (``nan`` when the series is too
    short). The table's log columns are differenced once, whole; the series
    of each length are then gathered into one matrix, row by row, and
    reduced along the rows by the same kernels as :func:`fit_wright`,
    :func:`fit_moore` and :func:`growth_stats`, so each value adds the same
    terms in the same order as those per-series functions. The MA(1)
    coefficients of all series with ``m >= 4`` come from one lockstep
    :func:`fit_wright_ma1` call.
    """
    T = dataset.T
    # step p runs from level p to p + 1; a series' steps start at its first level
    logs = (dataset.log_cost, dataset.log_experience, np.log(dataset.production))
    dy, dx, dq = (np.diff(c) for c in logs)
    # rows in PARAM_COLUMNS order after technology and T
    est = np.full((len(PARAM_COLUMNS) - 2, len(T)), np.nan)
    ma1, ma1_rows = [], []
    for length in np.unique(T).tolist():
        j = np.flatnonzero(T == length)
        rows = dataset._start[j, None] + np.arange(length - 1)
        y, x = dy[rows], dx[rows]
        _, omega, sig_eta2, mu, k2 = _window_fits(x, y)
        est[:-1, j] = mu, np.sqrt(k2), *_growth_moments(dq[rows], x), omega, np.sqrt(sig_eta2)
        if length > 4:
            ma1 += map(DiffSeries, y, x)
            ma1_rows += j.tolist()
    est[-1, ma1_rows] = [fit.rho for fit in fit_wright_ma1(ma1)]
    return param_table(dataset.names, T, *est)
