"""Closed-form forecast-error variances.

All four model variants are covered:

* drifting random walk with i.i.d. noise:   ``K**2 * (tau + tau**2/m)``
* experience curve with i.i.d. noise:       ``sigma_eta**2 * (tau + S_f**2/S_p2)``
  with ``S_f`` the summed future experience changes and ``S_p2`` the summed
  squared past changes,
* either model with MA(1) noise, via the innovation-weight decomposition of
  the forecast error (general form) or its constant-growth reduction,
* a large-horizon approximation of the constant-growth MA(1) form.

The factor ``A = tau + tau**2/m`` combines accumulated future noise (``tau``)
with parameter-estimation error (``tau**2/m``); it recurs everywhere and is
also the horizon rescaling used when errors of different horizons are pooled.
The long-run experience volatility implied by production sits here too, with
the other closed forms.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Relative floor applied when the constant-growth MA(1) formula is evaluated
# outside its meaningful range and dips non-positive.
_VARIANCE_FLOOR = 1e-12


def a_factor(tau, m):
    """Variance growth factor ``tau + tau**2 / m``. Elementwise on arrays."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    if np.any(np.asarray(m) <= 0):
        raise ValueError("m must be positive")
    out = tau + tau * tau / m
    return float(out) if out.ndim == 0 else out


def moore_variance(k, tau, m):
    """Forecast-error variance of the drifting random walk: ``k**2 * A``."""
    if k < 0:
        raise ValueError("scale must be non-negative")
    return k * k * a_factor(tau, m)


def wright_variance(sigma_eta, past_x, future_x) -> float:
    """Experience-curve forecast-error variance with realized experience.

    ``sigma_eta**2 * (tau + (sum future_x)**2 / (sum past_x**2))`` where
    ``tau = len(future_x)``. The second term is the parameter-error share: a
    volatile regressor (large ``sum past_x**2``) pins the slope down and
    shrinks it.
    """
    past_x = np.asarray(past_x, dtype=float)
    future_x = np.asarray(future_x, dtype=float)
    sp2 = float(past_x @ past_x)
    if sp2 <= 0.0:
        raise ValueError("degenerate past experience changes (sum of squares is zero)")
    tau = len(future_x)
    if tau == 0:
        return 0.0
    sf = float(future_x.sum())
    return sigma_eta * sigma_eta * (tau + sf * sf / sp2)


def _ma1_unit_variance(rho, past_x, future_sum, tau):
    """:func:`wright_ma1_variance` at ``sigma_u = 1``, batched.

    ``past_x`` holds windows of past experience changes along its last axis;
    ``future_sum`` (the summed future changes) and ``tau`` (``>= 1``) hold
    one entry per window and broadcast against the other axes.
    """
    if not abs(rho) <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    h = -(future_sum / np.vecdot(past_x, past_x))[..., None] * past_x
    middle = np.sum((h[..., :-1] + rho * h[..., 1:]) ** 2, axis=-1)
    return (
        rho * rho * h[..., 0] * h[..., 0]
        + middle
        + (rho + h[..., -1]) ** 2
        + (tau - 1) * (1.0 + rho) ** 2
        + 1.0
    )


def wright_ma1_variance(sigma_u, rho, past_x, future_x) -> float:
    """Experience-curve forecast-error variance under MA(1) noise.

    The slope error feeds each window innovation back into the forecast
    error with weight ``h_j = -(sum future_x / sum past_x**2) * past_x_j``
    (``-tau / m`` for every ``j`` under constant growth). Decomposing the
    error over the independent innovations ``u`` gives

    ``sigma_u**2 * (rho**2 h_1**2 + sum_j (h_j + rho h_{j+1})**2
    + (rho + h_m)**2 + (tau - 1)(1 + rho)**2 + 1)``.

    With ``rho = 0`` this is exactly :func:`wright_variance` at
    ``sigma_eta = sigma_u``.
    """
    past_x = np.asarray(past_x, dtype=float)
    future_x = np.asarray(future_x, dtype=float)
    if float(past_x @ past_x) <= 0.0:
        raise ValueError("degenerate past experience changes (sum of squares is zero)")
    tau = len(future_x)
    unit = _ma1_unit_variance(rho, past_x, future_x.sum(), tau)  # which checks rho
    return sigma_u * sigma_u * float(unit) if tau else 0.0


def ma1_variance_constant_x(sigma_u, rho, tau, m):
    """Constant-growth reduction of :func:`wright_ma1_variance`.

    ``sigma_u**2 * (-2 rho + (1 + 2(m-1) rho / m + rho**2) * A)``. The same
    expression gives the drifting-random-walk variance under MA(1) noise
    (substitute the walk's theta and innovation scale). Values below
    ``sigma_u**2 * 1e-12`` (possible only outside the meaningful parameter
    range) are floored with a warning. Elementwise on arrays, ``m`` included.
    """
    if np.any(np.asarray(m) < 1):
        raise ValueError("m must be at least 1")
    if not abs(rho) <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    s2 = sigma_u * sigma_u
    raw = s2 * (-2.0 * rho + (1.0 + 2.0 * (m - 1) * rho / m + rho * rho) * a_factor(tau, m))
    floor = s2 * _VARIANCE_FLOOR
    raw = np.asarray(raw)
    if np.any(raw < floor):
        warnings.warn(
            "constant-growth MA(1) variance fell below its positivity floor; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        raw = np.maximum(raw, floor)
    return float(raw) if raw.ndim == 0 else raw


def ma1_variance_approx(sigma_eta, rho, tau, m):
    """Large ``tau``, large ``m`` approximation of the MA(1) variance.

    ``sigma_eta**2 * (1 + rho)**2 / (1 + rho**2) * A`` -- a simple formula
    suitable for applications. With ``sigma_u**2 = sigma_eta**2 / (1 + rho**2)``
    it is :func:`ma1_variance_constant_x` without its ``-2 rho`` and
    ``-2 rho A / m`` terms, so ``approx - exact = 2 rho sigma_u**2 (1 + A/m)``.
    The relative gap shrinks as ``tau`` grows but is large at short horizons:
    at ``rho = 0.19``, ``m = 39`` the approximation overstates the variance by
    37% at ``tau = 1`` and by 5.8% at ``tau = 5``. Elementwise on arrays,
    ``m`` included.
    """
    if np.any(np.asarray(m) < 1):
        raise ValueError("m must be at least 1")
    factor = (1.0 + rho) ** 2 / (1.0 + rho * rho)
    return sigma_eta * sigma_eta * factor * a_factor(tau, m)


def sigma_x_theory(g: float, sigma_q: float) -> tuple[float, float]:
    """Long-run drift and variance of experience growth implied by production.

    Integration low-pass filters the production noise:
    ``E[dlog Z] ~= g`` and ``Var[dlog Z] ~= sigma_q**2 * tanh(g / 2)``, so
    experience is always smoother than production (``tanh(g/2) < 1``).
    Requires ``g > 0``.
    """
    if g <= 0.0:
        raise ValueError("g must be positive")
    return g, sigma_q * sigma_q * math.tanh(g / 2.0)
