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
plus golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import DiffSeries, growth_stats

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


def _innovation_profiles(y: np.ndarray, x: np.ndarray, rhos: np.ndarray):
    """Profile likelihood of the MA(1) regression at each candidate ``rho``.

    Whitens ``y`` and ``x`` with the innovations recursion of the
    unit-innovation MA(1) covariance (variance ``1 + rho**2``, lag-one
    covariance ``rho``), then solves the generalized least-squares slope and
    the ML innovation variance in closed form. Vectorized over ``rhos``.

    Returns ``(loglik, omega, sigma_u2)`` arrays aligned with ``rhos``.
    """
    m = len(y)
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    r0 = 1.0 + rhos * rhos
    v = r0.copy()  # one-step prediction variance, unit innovation scale
    wy = np.full_like(rhos, y[0])
    wx = np.full_like(rhos, x[0])
    syy = wy * wy / v
    sxy = wx * wy / v
    sxx = wx * wx / v
    logdet = np.log(v)
    for t in range(1, m):
        th = rhos / v
        v = r0 - rhos * th
        wy = y[t] - th * wy
        wx = x[t] - th * wx
        syy += wy * wy / v
        sxy += wx * wy / v
        sxx += wx * wx / v
        logdet += np.log(v)
    if np.any(sxx <= 0.0):
        raise ValueError("degenerate regressor: all experience changes are zero")
    omega = sxy / sxx
    rss = np.maximum(syy - omega * sxy, 1e-300)  # guard exact fits
    sigma_u2 = rss / m
    loglik = -0.5 * (m * np.log(2.0 * np.pi * sigma_u2) + logdet + m)
    return loglik, omega, sigma_u2


def ma1_loglik(diffs: DiffSeries, omega: float, rho: float, sigma_u: float) -> float:
    """Exact Gaussian log-likelihood at an arbitrary parameter point."""
    if sigma_u <= 0.0:
        raise ValueError("sigma_u must be positive")
    e = diffs.y - omega * diffs.x
    m = diffs.m
    r0 = 1.0 + rho * rho
    v = r0
    w = e[0]
    quad = w * w / v
    logdet = math.log(v)
    for t in range(1, m):
        th = rho / v
        v = r0 - rho * th
        w = e[t] - th * w
        quad += w * w / v
        logdet += math.log(v)
    s2 = sigma_u * sigma_u
    return -0.5 * (m * math.log(2.0 * math.pi * s2) + logdet + quad / s2)


def fit_wright_ma1(diffs: DiffSeries, max_iter: int = 200) -> WrightParams:
    """Maximum-likelihood fit of the MA(1) experience-curve model.

    ``rho`` is searched on a 0.01-step grid over [-1, 1] with ``omega`` and
    ``sigma_u`` profiled in closed form, then refined by golden section
    around the best grid point. Estimates with ``|rho| >= 0.99`` are kept
    but flagged ``boundary=True`` so that pooling can exclude them.

    Requires ``m >= 4``; shorter windows leave the likelihood too flat in
    ``rho`` for the estimate to mean anything.
    """
    if diffs.m < 4:
        raise ValueError(f"need at least 4 differences for the MA(1) fit, got {diffs.m}")
    y = np.asarray(diffs.y, dtype=float)
    x = np.asarray(diffs.x, dtype=float)

    grid = np.linspace(-1.0, 1.0, 201)
    ll, _, _ = _innovation_profiles(y, x, grid)
    best = int(np.argmax(ll))

    # Golden-section refinement on the bracketing interval.
    lo = max(-1.0, grid[best] - 0.01)
    hi = min(1.0, grid[best] + 0.01)

    def nll(rho: float) -> float:
        val, _, _ = _innovation_profiles(y, x, np.array([rho]))
        return -float(val[0])

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(max_iter):
        if b - a < 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = nll(d)
    else:
        raise RuntimeError(
            f"MA(1) refinement did not converge; best rho so far {0.5 * (a + b):.6f}"
        )

    candidates = np.array([grid[best], 0.5 * (a + b)])
    ll_c, omega_c, su2_c = _innovation_profiles(y, x, candidates)
    k = int(np.argmax(ll_c))
    rho = float(candidates[k])
    sigma_u = math.sqrt(float(su2_c[k]))
    return WrightParams(
        omega=float(omega_c[k]),
        sigma_eta=sigma_u * math.sqrt(1.0 + rho * rho),
        m=diffs.m,
        rho=rho,
        sigma_u=sigma_u,
        boundary=abs(rho) >= RHO_BOUNDARY,
        loglik=float(ll_c[k]),
    )


def pool_rho(params) -> tuple[float, int]:
    """Pooled MA(1) coefficient: mean over entries with ``|rho| <= 0.99``.

    Accepts :class:`WrightParams` objects or raw floats. Returns
    ``(rho_star, n_excluded)``.
    """
    values = []
    for p in params:
        rho = p.rho if isinstance(p, WrightParams) else float(p)
        if rho is None:
            raise ValueError("entry has no rho estimate")
        values.append(float(rho))
    if not values:
        raise ValueError("empty parameter list")
    kept = [r for r in values if abs(r) <= RHO_BOUNDARY]
    excluded = len(values) - len(kept)
    if not kept:
        raise ValueError("all rho estimates excluded as boundary values")
    return float(np.mean(kept)), excluded


def full_sample_estimates(series) -> dict:
    """Whole-sample estimate row for one technology.

    Returns the columns of the ``estimate`` output table: growth statistics,
    Moore drift/scale, the least-squares experience exponent and residual
    scale, and the MA(1) coefficient (``nan`` when the series is too short).
    """
    gs = growth_stats(series)
    d = series.diffs()
    w = fit_wright(d)
    mo = fit_moore(d)
    if d.m >= 4:
        rho = fit_wright_ma1(d).rho
    else:
        rho = float("nan")
    return {
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
        "rho": rho,
    }
