"""Synthetic datasets and ensemble confidence bands.

Production is a geometric random walk with drift; experience integrates it
(optionally through the same initial-stock correction applied to real data);
log-cost changes follow the experience curve with MA(1) noise. Pushing many
such datasets through the identical hindcast/diagnostic pipeline yields the
sampling distribution of any statistic, which is how the overlapping-window
dependence of hindcast errors is handled.

Randomness is counter-keyed: stream ``(seed, replicate, technology, role)``
fully determines every draw, so a replicate is reproducible in isolation and
does not depend on the order in which replicates run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DistCheck, ecdf_vs_reference, pit
from .hindcast import HindcastConfig, _model_rows, run_hindcast
from .series import DataError, SeriesTable, _concat, _corrected_experience
from .variance import wright_ma1_variance

# Role ids for the RNG stream key.
_ROLE_PRODUCTION = 0
_ROLE_COST = 1
_ROLE_SHARED_PRODUCTION = 2


def _rng(seed, *key) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class SurrogateSpec:
    """Generator parameters for a synthetic dataset.

    Scalar parameters apply to every technology; per-technology arrays (one
    entry each) mimic a heterogeneous dataset. ``shared_production`` makes
    all technologies ride a single production path; ``corrected_experience``
    selects between the initial-stock construction used on real data and a
    plain running sum of production.
    """

    n_tech: int
    T: int | np.ndarray = 50
    g: float | np.ndarray = 0.1
    sigma_q: float | np.ndarray = 0.1
    omega: float | np.ndarray = -0.3
    sigma_eta: float | np.ndarray = 0.1
    rho: float | np.ndarray = 0.0
    seed: int = 0
    n_ensembles: int = 1000
    shared_production: bool = False
    corrected_experience: bool = True

    def __post_init__(self):
        # NaN fails every comparison below, so test finiteness first
        for field in ("n_tech", "T", "g", "sigma_q", "omega", "sigma_eta", "rho", "n_ensembles"):
            if not np.all(np.isfinite(getattr(self, field))):
                raise ValueError(f"{field} must be finite")
        if self.n_tech < 1:
            raise ValueError("n_tech must be positive")
        if self.n_ensembles < 1:
            raise ValueError("n_ensembles must be positive")
        for field in ("T", "g", "sigma_q", "omega", "sigma_eta", "rho"):
            val = getattr(self, field)
            if np.ndim(val) > 0 and len(np.asarray(val)) != self.n_tech:
                raise ValueError(f"{field} vector must have length n_tech")
        if np.any(np.asarray(self.sigma_q) < 0) or np.any(np.asarray(self.sigma_eta) < 0):
            raise ValueError("volatilities must be non-negative")
        if np.any(np.abs(np.asarray(self.rho)) > 1):
            raise ValueError("rho must lie in [-1, 1]")
        T = np.asarray(self.T)
        if np.any(T != np.round(T)):
            raise ValueError("T must be integral")
        if np.any(T < 4):
            raise ValueError("T must be at least 4 per technology")


@dataclass(frozen=True)
class EnsembleResult:
    """Pointwise mean and 2.5/97.5 nearest-rank percentile bands of a
    statistic over an ensemble of synthetic datasets."""

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_replicates: int


def gen_log_production(T: int, g: float, sigma_q: float, seed) -> np.ndarray:
    """Log of a geometric random walk: ``g t + sum_{j<=t} a_j``, starting at 0.

    Stays in log space, so it is safe for very long horizons where the level
    series would overflow. Combine with ``numpy.logaddexp.accumulate`` to get
    log cumulative production stably.
    """
    if T < 2:
        raise ValueError("need at least 2 periods")
    rng = _rng(seed)
    a = rng.normal(0.0, sigma_q, T - 1)
    return np.concatenate([[0.0], g * np.arange(1, T) + np.cumsum(a)])


def gen_production(T: int, g: float, sigma_q: float, seed) -> np.ndarray:
    """Geometric random walk: ``Q_t = exp(g t + sum_{j<=t} a_j)``, ``Q_0 = 1``.

    ``seed`` may be an integer or a ``numpy.random.Generator``. Same seed,
    same series.
    """
    return np.exp(gen_log_production(T, g, sigma_q, seed))


def gen_cost(x_diffs, omega: float, sigma_eta: float, rho: float, seed) -> np.ndarray:
    """Log-cost path driven by experience changes with MA(1) noise.

    Each change is ``omega * x + u_t + rho * u_{t-1}`` with
    ``sigma_u = sigma_eta / sqrt(1 + rho**2)``, so the marginal residual
    scale is ``sigma_eta`` from the first step (the pre-sample innovation is
    drawn from the stationary law, no startup transient). Returns the level
    series starting at 0, one element longer than ``x_diffs``.
    """
    if not abs(rho) <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    x = np.asarray(x_diffs, dtype=float)
    rng = _rng(seed)
    sigma_u = sigma_eta / math.sqrt(1.0 + rho * rho)
    u = rng.normal(0.0, sigma_u, len(x) + 1)
    e = u[1:] + rho * u[:-1]
    return np.concatenate([[0.0], np.cumsum(omega * x + e)])


def _growing_production(T, g, sigma_q, seed, base_key) -> tuple[np.ndarray, np.ndarray]:
    """Draw a production path, conditioning on overall growth; returns the
    path and its corrected experience, whose construction is the test.

    The initial-stock correction needs an end-to-end growth rate above
    ``GROWTH_FLOOR``, the test ``build_experience`` applies to real data;
    real datasets are implicitly selected the same way, since technologies
    whose production never grew cannot be corrected and are dropped. Redraws
    use attempt-extended stream keys, so the result is deterministic and the
    zero-attempt draw matches the unconditioned stream.
    """
    for attempt in range(1000):
        key = base_key if attempt == 0 else (*base_key, attempt)
        q = gen_production(T, g, sigma_q, _rng(seed, *key))
        try:
            return q, _corrected_experience("", q)
        except DataError:
            continue
    raise DataError(
        f"no growing production path found for stream {base_key} "
        f"(g={g}, sigma_q={sigma_q}, T={T})"
    )


def make_dataset(spec: SurrogateSpec, replicate: int = 0) -> SeriesTable:
    """Generate one synthetic dataset (one replicate of the spec) as a
    :class:`SeriesTable` with experience built.

    With the corrected experience construction, production paths are
    conditioned on overall growth (see ``_growing_production``). A shared
    path is conditioned over its full length only, so a technology whose
    shorter stretch of it did not grow raises ``DataError``.
    """

    def draw_production(T, g, sigma_q, key):  # a path and its experience
        if spec.corrected_experience:
            return _growing_production(T, g, sigma_q, spec.seed, key)
        q = gen_production(T, g, sigma_q, _rng(spec.seed, *key))
        return q, np.cumsum(q)

    fields = ("T", "g", "sigma_q", "omega", "sigma_eta", "rho")
    lengths, *per_tech = (np.broadcast_to(getattr(spec, f), spec.n_tech).tolist() for f in fields)
    lengths = [int(T) for T in lengths]
    shared_q = None
    if spec.shared_production:
        # one path, drawn with the first technology's g and sigma_q
        key = (replicate, 0, _ROLE_SHARED_PRODUCTION)
        shared_q, _ = draw_production(max(lengths), per_tech[0][0], per_tech[1][0], key)
    names, cost, production, experience = [], [], [], []
    for j, (T, g, sigma_q, omega, sigma_eta, rho) in enumerate(zip(lengths, *per_tech)):
        names.append(f"tech{j:03d}")
        if shared_q is None:
            q, z = draw_production(T, g, sigma_q, (replicate, j, _ROLE_PRODUCTION))
        else:
            q = shared_q[:T]
            z = _corrected_experience(names[j], q) if spec.corrected_experience else np.cumsum(q)
        rng = _rng(spec.seed, replicate, j, _ROLE_COST)
        cost.append(np.exp(gen_cost(np.diff(np.log(z)), omega, sigma_eta, rho, rng)))
        production.append(q)
        experience.append(z)
    years = np.concatenate([np.arange(1, T + 1) for T in lengths])
    return SeriesTable(
        names, lengths, years, _concat(cost), _concat(production), _concat(experience)
    )


def run_ensemble(spec: SurrogateSpec, pipeline) -> EnsembleResult:
    """Apply ``pipeline`` (dataset -> statistic vector) to every replicate.

    Returns the pointwise mean and the 2.5%/97.5% nearest-rank band; the
    band only means much with on the order of 100+ replicates. A pipeline
    failure aborts with the replicate index so the exact dataset can be
    regenerated via ``make_dataset(spec, replicate)``. Replicates run one
    after another in the calling thread; the CLI's ``--threads`` flag is
    accepted and has no effect, because a thread pool made the ensemble no
    faster.
    """

    def one(r: int) -> np.ndarray:
        try:
            return np.atleast_1d(np.asarray(pipeline(make_dataset(spec, r)), dtype=float))
        except Exception as exc:
            raise RuntimeError(
                f"pipeline failed on replicate {r} (seed={spec.seed}); "
                f"reproduce with make_dataset(spec, {r})"
            ) from exc

    matrix = np.vstack([one(r) for r in range(spec.n_ensembles)])
    n = matrix.shape[0]
    srt = np.sort(matrix, axis=0)
    lo_idx = max(int(math.ceil(0.025 * n)) - 1, 0)
    hi_idx = max(int(math.ceil(0.975 * n)) - 1, 0)
    return EnsembleResult(
        mean=matrix.mean(axis=0),
        lower=srt[lo_idx],
        upper=srt[hi_idx],
        n_replicates=n,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Normalized errors from a synthetic calibration study plus their
    distribution check against the applicable reference."""

    normalized: np.ndarray
    reference: str
    df: int | None
    check: DistCheck
    pit_values: np.ndarray

    @property
    def ks_stat(self) -> float:
        return self.check.ks_stat


def _count_errors(T: int, m: int) -> int:
    k = T - 1 - m
    return k * (k + 1) // 2


# The calibration study's generator; run_calibration_study sets n_tech, T
# and seed.
_CALIBRATION_SPEC = SurrogateSpec(
    n_tech=1,
    g=0.1,
    sigma_q=0.1,
    omega=-0.3,
    sigma_eta=0.1,
    rho=0.6,
    n_ensembles=1,
    shared_production=True,
    corrected_experience=False,
)


def run_calibration_study(
    m: int = 5,
    variance: str = "estimated",
    iid_windows: bool = False,
    *,
    n_tech: int = 200,
    periods: int = 50,
    seed: int = 0,
) -> CalibrationResult:
    """Check the error theory on data where the model is true by construction.

    Many technologies share a single production path (no initial-stock
    correction), each gets its own MA(1) cost series, and the full hindcast
    runs at window size ``m`` with horizons uncapped. The generator is fixed:
    ``g = sigma_q = sigma_eta = 0.1``, ``omega = -0.3`` and ``rho = 0.6``.
    Errors are normalized by the realized-experience MA(1) standard deviation
    at the generating ``rho`` and either the per-window estimated scale
    (reference: Student with ``m - 1`` degrees of freedom) or the true scale
    (reference: standard normal).

    ``iid_windows=True`` instead spreads the same total number of errors over
    independent minimal series of ``m + 2`` periods, one single-step error
    each, removing the overlapping-window dependence.
    """
    if variance not in ("estimated", "true"):
        raise ValueError("variance must be 'estimated' or 'true'")
    spec = replace(_CALIBRATION_SPEC, n_tech=n_tech, T=periods, seed=seed)
    rho = spec.rho
    su_true = spec.sigma_eta / math.sqrt(1.0 + rho * rho)

    if iid_windows:
        n_series = n_tech * _count_errors(periods, m)
        T_short = m + 2
        q = gen_production(
            T_short, spec.g, spec.sigma_q, _rng(seed, 0, 0, _ROLE_SHARED_PRODUCTION)
        )
        x = np.diff(np.log(np.cumsum(q)))  # m + 1 diffs
        xw, x_fut = x[:m], x[m:]
        rng = _rng(seed, 0, 0, _ROLE_COST)
        u = rng.normal(0.0, su_true, (n_series, T_short))
        e = u[:, 1:] + rho * u[:, :-1]
        yd = spec.omega * x + e
        sx2 = float(xw @ xw)
        omega_hat = (yd[:, :m] @ xw) / sx2
        raw = (spec.omega - omega_hat) * x_fut[0] + e[:, m]
        kernel = wright_ma1_variance(1.0, rho, xw, x_fut)
        if variance == "true":
            norm = raw / math.sqrt(kernel * su_true * su_true)
        else:
            resid = yd[:, :m] - omega_hat[:, None] * xw
            sig_eta_hat2 = (resid * resid).sum(axis=1) / (m - 1)
            su_hat2 = sig_eta_hat2 / (1.0 + rho * rho)
            norm = raw / np.sqrt(kernel * su_hat2)
    else:
        dataset = make_dataset(spec, 0)
        errors = run_hindcast(dataset, HindcastConfig(m=m, tau_max=None, rho=rho))
        wright = _model_rows(errors, "wright")
        raw = wright.raw_error
        v_est = wright.wright_variance
        if variance == "estimated":
            norm = raw / np.sqrt(v_est)
        else:
            # The variance is linear in sigma_u^2; rescale the per-window
            # value to the true innovation scale.
            sig_eta_hat2 = wright.sigma_eta_hat ** 2
            su_hat2 = sig_eta_hat2 / (1.0 + rho * rho)
            norm = raw / np.sqrt(v_est / su_hat2 * su_true * su_true)

    if variance == "estimated":
        reference, df = "student", m - 1
    else:
        reference, df = "normal", None
    check = ecdf_vs_reference(norm, reference, df=df)
    return CalibrationResult(
        normalized=norm,
        reference=reference,
        df=df,
        check=check,
        pit_values=pit(norm, reference, df=df),
    )
