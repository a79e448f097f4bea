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
for the series still searching. Each series sees the same arithmetic as when
fit alone, so its estimate is bit-identical either way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .series import DiffSeries, SeriesTable, growth_stats

# MA(1) coefficients at or beyond this magnitude are flagged as boundary
# estimates; pooling excludes them as likely misspecified.
RHO_BOUNDARY = 0.99

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _innovation_profiles(y, x, rhos, lengths=None):
    """Profile likelihood of the MA(1) regression at each candidate ``rho``.

    Whitens ``y`` and ``x`` with the innovations recursion, then solves the
    generalized least-squares slope and the ML innovation variance in closed
    form. One series is ``(m,)`` arrays with ``(k,)`` candidates; a batch is
    an ``(n, m_max)`` stack with ``(n, k)`` (or shared ``(k,)``) candidates
    and, for rows of unequal length, the row ``lengths`` ordered as
    :func:`_innovation_sums` needs.

    Returns ``(loglik, omega, sigma_u2)`` arrays shaped like the candidates.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    single = y.ndim == 1
    if single:
        y, x = y[None], x[None]
    if lengths is None:
        lengths = np.full(len(y), y.shape[1])
    if rhos.ndim == 1:
        rhos = np.broadcast_to(rhos, (len(y), len(rhos)))
    syy, sxy, sxx, logdet = _innovation_sums(y, x, rhos, lengths)
    if (sxx <= 0.0).any():
        raise ValueError("degenerate regressor: all experience changes are zero")
    m = lengths[:, None].astype(float)
    omega = sxy / sxx
    rss = np.maximum(syy - omega * sxy, 1e-300)  # guard exact fits
    sigma_u2 = rss / m
    loglik = -0.5 * (m * np.log(2.0 * np.pi * sigma_u2) + logdet + m)
    if single:
        return loglik[0], omega[0], sigma_u2[0]
    return loglik, omega, sigma_u2


def ma1_loglik(diffs: DiffSeries, omega: float, rho: float, sigma_u: float) -> float:
    """Exact Gaussian log-likelihood at an arbitrary parameter point."""
    if sigma_u <= 0.0:
        raise ValueError("sigma_u must be positive")
    e = diffs.y - omega * diffs.x
    m = diffs.m
    rhos = np.array([[rho]], dtype=float)
    quad, _, _, logdet = _innovation_sums(e[None], diffs.x[None], rhos, np.array([m]))
    s2 = sigma_u * sigma_u
    return -0.5 * (m * math.log(2.0 * math.pi * s2) + logdet.item() + quad.item() / s2)


def fit_wright_ma1(
    diffs: DiffSeries | Sequence[DiffSeries], max_iter: int = 200
) -> WrightParams | list[WrightParams]:
    """Maximum-likelihood fit of the MA(1) experience-curve model.

    ``rho`` is searched on a 0.01-step grid over [-1, 1] with ``omega`` and
    ``sigma_u`` profiled in closed form, then refined by golden section
    around the best grid point. Estimates with ``|rho| >= 0.99`` are kept
    but flagged ``boundary=True`` so that pooling can exclude them.

    ``diffs`` is one :class:`DiffSeries` (returns :class:`WrightParams`) or a
    sequence of them (returns a list in the same order). A sequence is fit
    in lockstep: the grid stage and every golden-section step run as one
    batch over all series still searching, each series stopping when its
    own bracket is narrower than ``1e-10``. Every series goes through the
    same arithmetic as when fit alone, so the estimates do not depend on
    what else is in the batch; one series is a batch of one.

    Requires ``m >= 4``; shorter windows leave the likelihood too flat in
    ``rho`` for the estimate to mean anything. Raises ``RuntimeError`` if a
    series has not converged after ``max_iter`` golden-section steps.
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
    for _ in range(max_iter):
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
        # one new point per searching series: c on the left, d on the right
        val, _, _ = _innovation_profiles(
            y[active], x[active], np.where(lower, c, d)[active, None], lengths[active]
        )
        fc[left] = -val[lower[active], 0]
        fd[right] = -val[~lower[active], 0]
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


def pool_rho(params) -> tuple[float, int]:
    """Pooled MA(1) coefficient: mean over the entries that are not
    boundary estimates.

    Accepts :class:`WrightParams` objects or raw floats. An entry is kept
    when ``|rho| < 0.99``, the test that sets the ``boundary`` flag of
    :func:`fit_wright_ma1`; NaN is excluded. Returns
    ``(rho_star, n_excluded)``.
    """
    values = [p.rho if isinstance(p, WrightParams) else float(p) for p in params]
    if None in values:
        raise ValueError("entry has no rho estimate")
    if not values:
        raise ValueError("empty parameter list")
    kept = [r for r in values if abs(r) < RHO_BOUNDARY]
    if not kept:
        raise ValueError("all rho estimates excluded as boundary values")
    return float(np.mean(kept)), len(values) - len(kept)


def full_sample_estimates(dataset: SeriesTable) -> list[dict]:
    """Whole-sample estimate rows, one per technology of a
    :class:`SeriesTable` with experience built.

    Each row holds the columns of the ``estimate`` output table: growth
    statistics, Moore drift/scale, the least-squares experience exponent and
    residual scale, and the MA(1) coefficient (``nan`` when the series is too
    short). The MA(1) coefficients of all series with ``m >= 4`` come from
    one lockstep :func:`fit_wright_ma1` call.
    """
    rows, ma1 = [], []
    for series in dataset:
        gs = growth_stats(series)
        d = series.diffs()
        w = fit_wright(d)
        mo = fit_moore(d)
        if d.m >= 4:
            ma1.append((len(rows), d))
        rows.append(
            {
                "technology": series.name,
                "T": series.T,
                "mu": mo.mu,
                "K": mo.K,
                "g": gs.g,
                "sigma_q": gs.sigma_q,
                "r": gs.r,
                "sigma_x": gs.sigma_x,
                "omega": w.omega,
                "sigma_eta": w.sigma_eta,
                "rho": float("nan"),
            }
        )
    for (i, _), fit in zip(ma1, fit_wright_ma1([d for _, d in ma1])):
        rows[i]["rho"] = fit.rho
    return rows
