"""Distributional validation of normalized errors.

Empirical CDFs against a normal or Student reference, probability integral
transforms against the uniform, Kolmogorov-Smirnov distances, and the two
cross-sectional consistency checks: the identity between the experience
exponent and the ratio of cost drift to experience growth, and the
smoothing law linking experience volatility to production drift/volatility.
SciPy supplies the reference CDFs and is imported on the first CDF
evaluation, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .variance import sigma_x_theory


def _reference_cdf(reference: str, df=None):
    if reference not in ("normal", "student"):
        raise ValueError(f"unknown reference '{reference}'")
    if reference == "student" and (df is None or not df >= 1):
        raise ValueError("student reference needs df >= 1")
    # scipy.special holds the CDFs that scipy.stats' norm and t evaluate,
    # without the slow import of scipy.stats. It is imported here, not at
    # module level, because it takes about 0.27 s, more than half of
    # `import expcurve`, and only a CDF evaluation needs it.
    from scipy.special import ndtr, stdtr

    if reference == "normal":
        return ndtr
    return lambda q: stdtr(df, q)


@dataclass(frozen=True)
class DistCheck:
    """Sorted sample, the reference CDF at each value (the PIT in sorted
    order; :func:`pit` keeps sample order) and the KS distance."""

    sample: np.ndarray
    ref_cdf: np.ndarray
    ks_stat: float

    @property
    def ecdf(self) -> np.ndarray:
        n = len(self.sample)
        return np.arange(1, n + 1) / n


def _ks_statistic(sorted_sample: np.ndarray, cdf_values: np.ndarray) -> float:
    """Sup distance between the empirical CDF of a sorted sample and a
    reference CDF evaluated at the sample points."""
    n = len(sorted_sample)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - cdf_values), np.max(cdf_values - grid_lo)))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic KS acceptance threshold at level ``alpha``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ecdf_vs_reference(sample, reference: str = "normal", df=None) -> DistCheck:
    """Compare a sample against a reference distribution.

    Returns the sorted sample, the reference CDF on it, and the exact KS
    statistic. Needs at least two observations.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    if len(s) < 2:
        raise ValueError("need at least 2 observations")
    if not np.all(np.isfinite(s)):
        raise ValueError("sample contains non-finite values")
    cdf = _reference_cdf(reference, df)(s)
    return DistCheck(sample=s, ref_cdf=cdf, ks_stat=_ks_statistic(s, cdf))


def pit(sample, reference: str = "normal", df=None) -> np.ndarray:
    """Probability integral transform: the reference CDF applied elementwise.

    Uniform output means the sample is distributed as the reference; excess
    mass in the outer deciles means the sample's tails are heavier.
    """
    s = np.asarray(sample, dtype=float)
    if s.size < 2:
        raise ValueError("need at least 2 observations")
    return _reference_cdf(reference, df)(s)


def _refuse(column: str, values: np.ndarray, ok: np.ndarray, need: str) -> None:
    """Raise ``ValueError`` naming ``column``, the row (counted from 1) and
    the value of the first entry of ``values`` that is not ``ok``; a scalar
    is a column of one."""
    for i in np.flatnonzero(~ok)[:1]:
        raise ValueError(f"{column} in row {i + 1} is {np.ravel(values)[i]}, not {need}")


def sahal_check(mu, r, omega) -> tuple[np.ndarray, np.ndarray]:
    """Exponent identity scatter data.

    From columns of cost drift ``mu``, experience growth ``r`` and
    experience exponent ``omega`` returns ``(mu_over_r, residual)``, where
    ``residual = omega - mu / r``. When both cost and experience trends are
    exponential, ``omega`` and ``mu / r`` coincide. Each value must be
    finite and ``r`` non-zero, and ``mu / r`` and the residual must not
    overflow a float (``ValueError``).
    """
    mu, r, omega = (np.asarray(c, dtype=float) for c in (mu, r, omega))
    for name, column in zip(("mu", "r", "omega"), (mu, r, omega)):
        _refuse(name, column, np.isfinite(column), "finite")
    _refuse("r", r, r != 0, "non-zero")
    with np.errstate(over="ignore"):
        mu_over_r = mu / r
        residual = omega - mu_over_r
    _refuse("mu / r", mu_over_r, np.isfinite(mu_over_r), "finite")
    _refuse("omega - mu / r", residual, np.isfinite(residual), "finite")
    return mu_over_r, residual


def tanh_check(g, sigma_q) -> np.ndarray:
    """Predicted experience volatility ``sigma_q * sqrt(tanh(g / 2))`` for
    columns of log production drift ``g`` and volatility ``sigma_q``.

    ``g`` must be finite and ``sigma_q`` non-negative with a finite square
    (``ValueError``); each value goes through :func:`sigma_x_theory`, which
    requires ``g > 0``.
    """
    g, sigma_q = np.asarray(g, dtype=float), np.asarray(sigma_q, dtype=float)
    _refuse("g", g, np.isfinite(g), "finite")
    with np.errstate(over="ignore"):  # the variance squares sigma_q
        ok = (0.0 <= sigma_q) & (sigma_q * sigma_q < np.inf)
    _refuse("sigma_q", sigma_q, ok, "non-negative with a finite square")
    # value by value, because np.tanh differs from math.tanh in the last bit
    # on about a third of inputs
    return np.sqrt([sigma_x_theory(a, b)[1] for a, b in zip(g.tolist(), sigma_q.tolist())])
