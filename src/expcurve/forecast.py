"""Forward-looking distributional forecasts.

The point path extrapolates the fitted trend; the variance path comes from
the forecast-error theory with a pooled MA(1) coefficient. Two variance
paths are always reported: the exact one (using the realized past experience
changes for the experience curve) and the large-horizon approximation
``ma1_variance_approx``, so the gap between them is visible. Besides assuming
constant experience growth, the approximation drops the ``-2 rho (1 + A/m)``
share of the constant-growth variance. That gap fades with the horizon but is
large at a horizon of a few years: 37% at one year for a 39-year window at
``rho = 0.19``. Quantile bands use normal multipliers, appropriate
for the long estimation samples these forecasts are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import RHO_STAR, THETA_STAR, MooreParams, WrightParams
from .series import DataError, TechSeries
from .variance import _ma1_unit_variance, ma1_variance_approx, ma1_variance_constant_x


@dataclass(frozen=True)
class DistForecast:
    """Mean log-cost path with exact and simplified variance paths.

    Bands are symmetric about the mean in log space; level-space bands are
    their exponentials.
    """

    model: str
    base_year: int
    horizons: np.ndarray
    mean_log_cost: np.ndarray
    var_exact: np.ndarray
    var_simple: np.ndarray
    assumed_future_r: float | None = None

    @property
    def years(self) -> np.ndarray:
        return self.base_year + self.horizons

    def band(self, multiplier: float) -> tuple[np.ndarray, np.ndarray]:
        """Log-space band at ``mean -/+ multiplier * sd`` (exact variance)."""
        half = multiplier * np.sqrt(self.var_exact)
        return self.mean_log_cost - half, self.mean_log_cost + half

    def level_band(self, multiplier: float) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.band(multiplier)
        return np.exp(lo), np.exp(hi)

    @property
    def mean_cost_level(self) -> np.ndarray:
        return np.exp(self.mean_log_cost)


def _future_diffs(future_x_growth, horizons: int, fallback: float | None):
    if future_x_growth is None:
        if fallback is None:
            raise ValueError("no future experience growth available")
        future_x_growth = fallback
    if np.ndim(future_x_growth) == 0:
        r = float(future_x_growth)
        if not 0.0 < r < math.inf:  # NaN fails too
            raise ValueError("future experience growth must be positive and finite")
        return np.full(horizons, r), r
    fut = np.asarray(future_x_growth, dtype=float)
    if len(fut) < horizons:
        raise ValueError(f"future growth series shorter than horizon ({len(fut)} < {horizons})")
    fut = fut[:horizons]
    if not np.all((0.0 < fut) & (fut < math.inf)):
        raise ValueError("future experience growth must be positive and finite")
    return fut, None


def forecast_wright(
    series: TechSeries,
    params: WrightParams,
    horizons: int,
    future_x_growth=None,
    rho_star: float = RHO_STAR,
) -> DistForecast:
    """Experience-conditional distributional forecast.

    Future experience grows at ``future_x_growth`` per year (scalar or
    per-year series; defaults to the series' mean past growth, i.e. the past
    trend continued without variance). The exact variance uses the realized
    past experience changes; the simplified variance is the large-horizon
    approximation, which assumes they were constant and also drops the
    ``-2 rho (1 + A/m)`` share of the variance, so it overstates the exact
    variance by a wide margin at horizons of a few years.
    """
    if horizons < 1:
        raise ValueError("need at least one horizon")
    # NaN fails every test
    finite = math.isfinite(params.omega) and math.isfinite(rho_star)
    if not (0.0 <= params.sigma_eta < math.inf and finite):
        raise ValueError("degenerate parameters")
    past_x = np.diff(series.log_experience)
    m = len(past_x)
    fut, r_assumed = _future_diffs(future_x_growth, horizons, float(past_x.mean()))
    taus = np.arange(1, horizons + 1)
    y_last = float(series.log_cost[-1])
    mean = y_last + params.omega * np.cumsum(fut)
    sigma_u = params.sigma_eta / math.sqrt(1.0 + rho_star * rho_star)
    # summed per horizon, not by cumsum, so each value equals wright_ma1_variance's
    fsum = np.array([fut[:t].sum() for t in taus])
    var_exact = sigma_u * sigma_u * _ma1_unit_variance(rho_star, past_x, fsum, taus)
    var_simple = ma1_variance_approx(params.sigma_eta, rho_star, taus, m)
    return DistForecast(
        model="wright",
        base_year=int(series.years[-1]),
        horizons=taus,
        mean_log_cost=mean,
        var_exact=var_exact,
        var_simple=np.asarray(var_simple),
        assumed_future_r=r_assumed,
    )


def forecast_moore(
    series: TechSeries,
    params: MooreParams,
    horizons: int,
    theta_star: float = THETA_STAR,
) -> DistForecast:
    """Time-trend distributional forecast (unconditional on experience)."""
    if horizons < 1:
        raise ValueError("need at least one horizon")
    finite = math.isfinite(params.mu) and math.isfinite(theta_star)
    if not (0.0 <= params.K < math.inf and finite):
        raise ValueError("degenerate parameters")
    m = series.T - 1
    taus = np.arange(1, horizons + 1)
    y_last = float(series.log_cost[-1])
    mean = y_last + params.mu * taus
    sigma_v = params.K / math.sqrt(1.0 + theta_star * theta_star)
    var_exact = np.asarray(ma1_variance_constant_x(sigma_v, theta_star, taus, m))
    var_simple = np.asarray(ma1_variance_approx(params.K, theta_star, taus, m))
    return DistForecast(
        model="moore",
        base_year=int(series.years[-1]),
        horizons=taus,
        mean_log_cost=mean,
        var_exact=var_exact,
        var_simple=var_simple,
    )


def compare_forecasts(a: DistForecast, b: DistForecast) -> np.ndarray:
    """Per-horizon mean difference and band-width ratio of two forecasts.

    Rows are ``(tau, mean_a - mean_b, width_a / width_b)`` where width is the
    log-space band width (proportional to the exact standard deviation).
    """
    if a.base_year != b.base_year:
        raise ValueError("forecasts anchored at different base years")
    if len(a.horizons) != len(b.horizons) or np.any(a.horizons != b.horizons):
        raise ValueError("forecasts on different horizon grids")
    ratio = np.sqrt(a.var_exact / b.var_exact)
    return np.column_stack([a.horizons, a.mean_log_cost - b.mean_log_cost, ratio])


def constant_growth_series(
    name: str,
    T: int,
    r: float,
    mu: float,
    base_year: int | None = None,
    y_last: float = 0.0,
) -> TechSeries:
    """Synthetic series with exactly constant log growth rates.

    Experience grows by ``r`` per year and log cost changes by ``mu``; the
    production column is the exact forward difference of experience, so the
    accumulation identity holds. Useful for forecasting from published
    parameter estimates when the underlying series is not available: slopes
    and band widths are meaningful, absolute levels are not. ``T < 3`` or
    ``r <= 0`` breaks the series' data contract, and so does a cost,
    production or experience level too large for a float (``DataError``).
    """
    base_year = T if base_year is None else base_year
    t = np.arange(T)
    with np.errstate(over="ignore"):
        z = np.exp(r * t)
        try:
            q = z * (math.exp(r) - 1.0)
        except OverflowError:
            q = np.full(T, math.inf)
        cost = np.exp(y_last + mu * (t - (T - 1)))
    if any(np.isinf(v).any() for v in (z, q, cost)):
        raise DataError(f"{name}: constant growth (r={r}, mu={mu}) overflows a float within {T} periods")
    return TechSeries(
        name=name,
        years=np.arange(base_year - T + 1, base_year + 1),
        cost=cost,
        production=q,
        experience=z,
    )
