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


def _future_diffs(future_x_growth, horizons: int, fallback: float) -> np.ndarray:
    rate = np.asarray(fallback if future_x_growth is None else future_x_growth, dtype=float)
    fut = np.full(horizons, rate) if rate.ndim == 0 else rate
    if len(fut) < horizons:
        raise ValueError(f"future growth series shorter than horizon ({len(fut)} < {horizons})")
    fut = fut[:horizons]
    if not np.all((0.0 < fut) & (fut < math.inf)):  # NaN fails too
        raise ValueError("future experience growth must be positive and finite")
    return fut


# What a forecast needs of each parameter it reads: T and r build the series
# it starts from, and K and sigma_eta are scales.
_NEEDS = {
    "T": (lambda v: v >= 3, "at least 3"),
    "mu": (math.isfinite, "finite"),
    "K": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "r": (lambda v: 0 < v < math.inf, "finite and positive"),
    "omega": (math.isfinite, "finite"),
    "sigma_eta": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
}


def _require(name: str, **values) -> None:
    """Raise ``DataError`` for the first value that fails its rule in
    :data:`_NEEDS`; ``name`` is the series' name."""
    for param, value in values.items():
        meets, need = _NEEDS[param]
        if not meets(value):
            raise DataError(f"{name}: {param} is {value}, not {need}")


def _fit_window(series: TechSeries, m: int) -> int:
    """The fit's window ``m``, which must lie within the series' changes."""
    if not 1 <= m <= series.T - 1:
        raise ValueError(f"{series.name}: window m={m} is not in [1, {series.T - 1}]")
    return m


def forecast_wright(
    series: TechSeries,
    params: WrightParams,
    horizons: int,
    future_x_growth=None,
    rho_star: float = RHO_STAR,
) -> DistForecast:
    """Experience-conditional distributional forecast.

    Future experience grows at ``future_x_growth`` per year (scalar or
    per-year series; defaults to the mean of all the series' past changes,
    i.e. the past trend continued without variance). The variances take the
    fit's window ``params.m``, which must lie in ``[1, series.T - 1]``: the
    exact one uses the last ``params.m`` realized experience changes; the
    simplified one is the large-horizon approximation, which assumes they
    were constant and also drops the ``-2 rho (1 + A/m)`` share of the
    variance, so it overstates the exact variance by a wide margin at
    horizons of a few years. ``rho_star`` must lie in [-1, 1], and a
    ``DataError`` names ``params.omega`` unless it is finite and
    ``params.sigma_eta`` unless it is finite and non-negative.
    """
    if horizons < 1:
        raise ValueError("need at least one horizon")
    _require(series.name, omega=params.omega, sigma_eta=params.sigma_eta)
    if not abs(rho_star) <= 1.0:
        raise ValueError(f"rho_star must lie in [-1, 1], got {rho_star}")
    m = _fit_window(series, params.m)
    past_x = np.diff(series.log_experience)
    fut = _future_diffs(future_x_growth, horizons, float(past_x.mean()))
    taus = np.arange(1, horizons + 1)
    y_last = float(series.log_cost[-1])
    fsum = np.cumsum(fut)
    mean = y_last + params.omega * fsum
    sigma_u = params.sigma_eta / math.sqrt(1.0 + rho_star * rho_star)
    var_exact = sigma_u * sigma_u * _ma1_unit_variance(rho_star, past_x[-m:], fsum, taus)
    var_simple = ma1_variance_approx(params.sigma_eta, rho_star, taus, m)
    return DistForecast(
        model="wright",
        base_year=int(series.years[-1]),
        horizons=taus,
        mean_log_cost=mean,
        var_exact=var_exact,
        var_simple=np.asarray(var_simple),
    )


def forecast_moore(
    series: TechSeries,
    params: MooreParams,
    horizons: int,
    theta_star: float = THETA_STAR,
) -> DistForecast:
    """Time-trend distributional forecast (unconditional on experience).
    The variances take the fit's window ``params.m``, which must lie in
    ``[1, series.T - 1]``, and ``theta_star`` must lie in [-1, 1]. A
    ``DataError`` names ``params.mu`` unless it is finite and ``params.K``
    unless it is finite and non-negative."""
    if horizons < 1:
        raise ValueError("need at least one horizon")
    _require(series.name, mu=params.mu, K=params.K)
    if not abs(theta_star) <= 1.0:
        raise ValueError(f"theta_star must lie in [-1, 1], got {theta_star}")
    m = _fit_window(series, params.m)
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
    log-space band width (proportional to the exact standard deviation). The
    ratio is ``inf`` where ``b``'s exact variance is zero and ``a``'s is not
    (``b``'s band collapses to its mean path) or where ``b``'s is so much
    smaller that the quotient overflows, and ``nan`` where both are zero;
    neither warns.
    """
    if a.base_year != b.base_year:
        raise ValueError("forecasts anchored at different base years")
    if len(a.horizons) != len(b.horizons) or np.any(a.horizons != b.horizons):
        raise ValueError("forecasts on different horizon grids")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.sqrt(a.var_exact / b.var_exact)
    return np.column_stack([a.horizons, a.mean_log_cost - b.mean_log_cost, ratio])


def constant_growth_series(name: str, T: int, r: float, mu: float) -> TechSeries:
    """Synthetic series with exactly constant log growth rates.

    Experience grows by ``r`` per year and log cost changes by ``mu``; the
    production column is the exact forward difference of experience, so the
    accumulation identity holds. The years are ``1..T`` and the last log
    cost is 0. Useful for forecasting from published parameter estimates
    when the underlying series is not available: slopes and band widths are
    meaningful, absolute levels are not. ``T`` must be at least 3, ``mu``
    finite and ``r`` finite and positive; a ``DataError`` names the first
    that is not, or a cost, production or experience level that is too
    large for a float or rounds to zero.
    """
    _require(name, T=T, mu=mu, r=r)
    t = np.arange(T)
    with np.errstate(over="ignore"):
        z = np.exp(r * t)
        q = z * (np.exp(r) - 1.0)
        cost = np.exp(mu * (t - (T - 1)))
    growth = f"{name}: constant growth (r={r}, mu={mu})"
    if any(np.isinf(v).any() for v in (z, q, cost)):
        raise DataError(f"{growth} overflows a float within {T} periods")
    # exp(r) - 1 is 0 for r below about 1e-16, and early costs round to 0
    if not (np.all(q > 0) and np.all(cost > 0)):
        raise DataError(f"{growth} underflows a float within {T} periods")
    return TechSeries(name=name, years=np.arange(1, T + 1), cost=cost, production=q, experience=z)
