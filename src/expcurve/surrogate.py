"""Synthetic datasets and ensemble confidence bands.

Production is a geometric random walk with drift; experience integrates it
(optionally through the same initial-stock correction applied to real data);
log-cost changes follow the experience curve with MA(1) noise. Pushing many
such datasets through the identical hindcast/diagnostic pipeline yields the
sampling distribution of any statistic, which is how the overlapping-window
dependence of hindcast errors is handled.

Randomness is counter-keyed: stream ``(seed, replicate, technology, role)``
fully determines every draw, so a replicate is reproducible in isolation and
does not depend on the order in which replicates run, nor on which others
are built with it. Replicates are built in blocks: a block hashes its
stream keys in batches, gives each stream a ``PCG64`` of its own
(``_streams``), and computes on all of its replicates' technologies at once,
as the rows of (path × year) matrices.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DistCheck, ecdf_vs_reference, pit
from .estimators import _window_fits
from .hindcast import HindcastConfig, _windows
from .series import GROWTH_FLOOR, DataError, SeriesTable, _corrected_experience, _discrete_growth
from .variance import _ma1_unit_variance

# Role ids for the RNG stream key.
_ROLE_PRODUCTION = 0
_ROLE_COST = 1
_ROLE_SHARED_PRODUCTION = 2

# About the number of (path × year) cells in one block of replicates that
# run_ensemble builds at once: 128 KB a matrix.
_BLOCK_CELLS = 2**14


# The constants of NumPy's SeedSequence hash.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(const: int, mult: int, n: int) -> np.ndarray:
    """``const`` and the ``n`` constants after it, each ``mult`` times the
    one before, modulo 2**32."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# generate_state's 8 steps, one per 32-bit output word
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(value, xor, mul):
    """SeedSequence's ``hashmix`` of uint32 words by two consecutive hash
    constants."""
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


class _State:
    """A stream's four ``uint64`` state words, which ``PCG64`` takes from
    ``generate_state``. ``_streams`` makes it an ``ISeedSequence`` at its
    first call, so importing this module does not load ``numpy.random``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seed: int, keys):
    """Yield the generator of stream ``(seed, *key)`` for each key in turn:
    the draws NumPy's ``SeedSequence(seed, spawn_key=key)`` seeds, each key
    with a ``PCG64`` of its own, so they may be drawn from in any order.

    The seed's pool comes from ``SeedSequence(seed)``. The rest of the hash
    (``mix_entropy`` of one more entropy word per key element, so each must
    lie in [0, 2**32), then ``generate_state(4, np.uint64)``) is done here
    for all the keys at once, as arrays. ``TestStreams`` in
    ``tests/test_surrogate.py`` pins the generators to NumPy's own.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_State)  # a no-op once registered
    seed = int(seed)
    columns = np.array(keys, dtype=np.uint32)
    # mix_entropy's hash steps take consecutive constants: 16 to fill and mix
    # the pool, 4 for each seed word past it, then 4 for each key word
    seed_steps = 16 + 4 * max(-(-seed.bit_length() // 32) - 4, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, seed_steps + 4 * columns.shape[1])[seed_steps:]
    h = _hash(columns[:, :, None], consts[:-1].reshape(-1, 4), consts[1:].reshape(-1, 4))
    pool = np.random.SeedSequence(seed).pool
    for c in range(columns.shape[1]):
        pool = _mix(pool, h[:, c])
    state = _hash(np.tile(pool, 2), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    # generate_state's own conversion of 8 uint32 words to 4 uint64
    for words in state.astype("<u4").view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(_State(words)))


@dataclass(frozen=True)
class SurrogateSpec:
    """Generator parameters for a synthetic dataset.

    Scalar parameters apply to every technology; per-technology arrays (one
    entry each) mimic a heterogeneous dataset. ``shared_production`` makes
    all technologies ride a single production path; ``corrected_experience``
    selects between the initial-stock construction used on real data and a
    plain running sum of production, which includes each year's own output
    (the corrected sum, like :class:`~expcurve.series.TechSeries`, excludes
    it). ``seed`` is a non-negative integer.
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
        for field in ("n_tech", "n_ensembles"):
            count = getattr(self, field)
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{field} must be a positive integer")
        # a generator here would be shared by every stream, unkeyed
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
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
    statistic over the ``spec.n_ensembles`` synthetic datasets of a spec."""

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _log_production(draws: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows of log production ``g t + sum_{j<=t} a_j``, each starting at 0,
    from rows of innovations ``a`` (one fewer than the periods)."""
    lq = np.zeros((len(draws), draws.shape[1] + 1))
    lq[:, 1:] = g[:, None] * np.arange(1, lq.shape[1]) + np.cumsum(draws, axis=1)
    return lq


def _log_cost(x: np.ndarray, u: np.ndarray, omega: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rows of log cost, each starting at 0 and changing by
    ``omega x_t + u_t + rho u_{t-1}``, from rows of experience changes ``x``
    and of innovations ``u`` (one more than the changes)."""
    lc = np.zeros((len(x), x.shape[1] + 1))
    e = u[:, 1:] + rho[:, None] * u[:, :-1]
    np.cumsum(omega[:, None] * x + e, axis=1, out=lc[:, 1:])
    return lc


def gen_log_production(T: int, g: float, sigma_q: float, seed) -> np.ndarray:
    """Log of a geometric random walk: ``g t + sum_{j<=t} a_j``, starting at 0.

    Stays in log space, so it is safe for very long horizons where the level
    series would overflow. Combine with ``numpy.logaddexp.accumulate`` to get
    log cumulative production stably.
    """
    if T < 2:
        raise ValueError("need at least 2 periods")
    a = np.random.default_rng(seed).normal(0.0, sigma_q, T - 1)
    return _log_production(a[None], np.array([float(g)]))[0]


def _normals(seed, keys, lengths, scale) -> np.ndarray:
    """Rows of normal draws, padded with zeros: row ``i`` holds the
    ``lengths[i]`` values ``Generator.normal(0.0, scale[i], lengths[i])``
    draws from stream ``keys[i]``.

    Each stream fills its row in place with standard normals, and the block
    is scaled once: ``Generator.normal`` is ``loc + scale * z`` element by
    element, so the bytes are those of a ``normal`` call per stream.
    """
    z = np.zeros((len(keys), lengths.max()))
    for row, n, rng in zip(z, lengths.tolist(), _streams(seed, keys)):
        rng.standard_normal(out=row[:n])
    return 0.0 + scale[:, None] * z


def _production(seed, keys, T, g, sigma_q, conditioned: bool) -> np.ndarray:
    """Production paths as the rows of a (path × year) matrix, one stream
    ``keys[i]`` per row of ``T[i]`` years, padded with ones.

    ``conditioned`` redraws each path that fails the growth test of the
    initial-stock correction (see ``make_dataset``); a path that passes
    keeps its first draw, the unconditioned stream. At redraw attempt ``k``
    all paths still failing draw, in one batch, from streams ``(*key, k)``;
    after 999 attempts the first path still failing raises ``DataError``. If
    that path has ``sigma_q = 0`` it raises at once, since no redraw moves it.
    """
    production = np.ones((len(keys), T.max()))
    todo = np.arange(len(keys))
    for attempt in range(1000):
        batch = [(*keys[i], attempt) if attempt else keys[i] for i in todo]
        draws = _normals(seed, batch, T[todo] - 1, sigma_q[todo])
        years = np.arange(draws.shape[1] + 1)
        # the padding is log production 0, so no exp overflows past a row's end
        paths = np.exp(np.where(years < T[todo, None], _log_production(draws, g[todo]), 0.0))
        production[todo, : paths.shape[1]] = paths
        todo = todo[~(_discrete_growth(paths, T[todo]) > GROWTH_FLOOR)]
        if not (conditioned and len(todo)):
            return production
        if sigma_q[todo[0]] == 0.0:  # a path with no noise is the same on every redraw
            break
    i = todo[0]
    raise DataError(
        f"no growing production path found for stream {keys[i]} "
        f"(g={g[i]}, sigma_q={sigma_q[i]}, T={T[i]})"
    )


def make_dataset(
    spec: SurrogateSpec, replicate: int | Sequence[int] = 0
) -> SeriesTable | list[SeriesTable]:
    """Generate one synthetic dataset (one replicate of the spec) as a
    :class:`SeriesTable` with experience built; given a sequence of
    replicates, return their tables in the same order.

    Each technology draws its production and cost from streams of its own,
    keyed ``(replicate, technology, role)``, so every replicate must lie in
    [0, 2**32). The replicates asked for are built as one block: the paths
    are the rows of (path × year) matrices, replicate by replicate and
    technology by technology within each. The block's production and cost
    stream keys are hashed in two batches (see ``_streams``), the redraws in
    one more batch per attempt, and each formula is applied once per block.
    Every row adds its terms in the order a single series would, so a table
    is the same whatever block it is built in, and a replicate is the same
    as a block of one. Then the block is cut into one table per replicate,
    each checked by the :class:`SeriesTable` constructor. A block that fails
    raises the error of one of its replicates, not necessarily the first to
    fail alone. A block pays the fixed costs of the streams and of the
    NumPy calls once for all of its replicates (see the module docstring).

    With the corrected experience construction, production paths are
    conditioned on overall growth: the initial-stock correction needs an
    end-to-end growth rate above ``GROWTH_FLOOR``, the test
    ``build_experience`` applies to real data, and real datasets are
    implicitly selected the same way, since technologies whose production
    never grew cannot be corrected and are dropped. A path that fails the
    test is redrawn (see ``_production``). A shared path is conditioned over
    its full length only, so a technology whose shorter stretch of it did
    not grow raises ``DataError``.
    """
    single = np.ndim(replicate) == 0
    block = [replicate] if single else list(replicate)
    for r in block:
        # a stream key element is one 32-bit word of the seeding entropy
        if not isinstance(r, (int, np.integer)) or not 0 <= r < 2**32:
            raise ValueError("replicate must be an integer in [0, 2**32)")
    if not block:
        return []
    n, size = spec.n_tech, len(block)
    T = np.broadcast_to(spec.T, n).astype(int)
    g, sigma_q, omega, sigma_eta, rho = (
        np.tile(np.broadcast_to(getattr(spec, f), n).astype(float), size)
        for f in ("g", "sigma_q", "omega", "sigma_eta", "rho")
    )
    names = [f"tech{j:03d}" for j in range(n)]
    rows_T = np.tile(T, size)
    corrected = spec.corrected_experience
    # a level that overflows or underflows a float fails the SeriesTable contract
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.shared_production:
            # one path a replicate, drawn with the first technology's g and sigma_q
            keys = [(r, 0, _ROLE_SHARED_PRODUCTION) for r in block]
            shared = (np.full(size, v) for v in (T.max(), g[0], sigma_q[0]))
            paths = _production(spec.seed, keys, *shared, corrected)
            production = np.repeat(paths, n, axis=0)
        else:
            keys = [(r, j, _ROLE_PRODUCTION) for r in block for j in range(n)]
            production = _production(spec.seed, keys, rows_T, g, sigma_q, corrected)
        if corrected:
            experience = _corrected_experience(names * size, production, rows_T)
        else:
            experience = np.cumsum(production, axis=1)
        cost_keys = [(r, j, _ROLE_COST) for r in block for j in range(n)]
        u = _normals(spec.seed, cost_keys, rows_T, sigma_eta / np.sqrt(1.0 + rho * rho))
        log_cost = _log_cost(np.diff(np.log(experience), axis=1), u, omega, rho)
        keep = np.arange(production.shape[1]) < rows_T[:, None]
        years = np.broadcast_to(np.arange(1, production.shape[1] + 1), keep.shape)
        columns = (years[keep], np.exp(log_cost[keep]), production[keep], experience[keep])
    tables = [SeriesTable(names, T, *cut) for cut in zip(*(np.split(c, size) for c in columns))]
    return tables[0] if single else tables


def run_ensemble(spec: SurrogateSpec, pipeline) -> EnsembleResult:
    """Apply ``pipeline`` (dataset -> statistic of any shape) to every replicate.

    Returns the pointwise mean and the 2.5%/97.5% band, each in the
    statistic's shape (a scalar gives a vector of one); the band only means
    much with on the order of 100+ replicates. The band is the nearest-rank
    quantile: of ``n`` replicates, the ``ceil(q n)``-th smallest, which is
    NumPy's ``method="inverted_cdf"``. A ``nan`` in any replicate makes that
    entry of the mean and of both band edges ``nan``. A pipeline failure
    aborts with the replicate index and the cause's message, so the exact
    dataset can be regenerated via ``make_dataset(spec, replicate)``.
    Replicates run in order in the calling thread; the CLI's ``--threads``
    flag is accepted and has no effect, because a thread pool made the
    ensemble no faster.

    The datasets are built in blocks of ``_BLOCK_CELLS // (n_tech * max T)``
    replicates (at least one) by one ``make_dataset`` call each, and the
    pipeline still takes one table per replicate. If building a block
    fails, its replicates are built again one at a time, so the pipelines
    of the replicates before the failing one run first and the error names
    the replicate it would name built alone. ``simulate``'s pipeline is
    ``hindcast.mse_curve``, which reads the window gather and builds no
    error table. On the bundled table (m = 5, ``tau_max`` 20) blocks hold
    four replicates.
    """

    def one(r: int, dataset) -> np.ndarray:
        try:
            if dataset is None:
                dataset = make_dataset(spec, r)
            return np.atleast_1d(np.asarray(pipeline(dataset), dtype=float))
        except Exception as exc:
            raise RuntimeError(
                f"pipeline failed on replicate {r} (seed={spec.seed}); "
                f"reproduce with make_dataset(spec, {r}): {exc}"
            ) from exc

    size = max(1, _BLOCK_CELLS // (spec.n_tech * int(np.max(spec.T))))
    rows = []
    for lo in range(0, spec.n_ensembles, size):
        block = range(lo, min(lo + size, spec.n_ensembles))
        try:
            datasets = make_dataset(spec, block)
        except Exception:
            datasets = [None] * len(block)  # built again by one()
        rows += map(one, block, datasets)
    matrix = np.stack(rows)
    lower, upper = np.quantile(matrix, [0.025, 0.975], axis=0, method="inverted_cdf")
    return EnsembleResult(mean=matrix.mean(axis=0), lower=lower, upper=upper)


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
    each, removing the overlapping-window dependence. Either way ``periods``
    must be at least ``m + 2``.

    Each design yields its raw errors, their unit-innovation MA(1) variance
    and their windows' residual variance from the library's window fit
    (``_window_fits``); one normalization then divides them by the scale of
    the reference.
    """
    if variance not in ("estimated", "true"):
        raise ValueError("variance must be 'estimated' or 'true'")
    spec = replace(_CALIBRATION_SPEC, n_tech=n_tech, T=periods, seed=seed)
    rho = spec.rho
    cfg = HindcastConfig(m=m, tau_max=None, rho=rho)  # checks m for both branches
    if periods < m + 2:  # no window plus one forecast, in either branch
        raise ValueError(f"periods must be at least m + 2 = {m + 2}")
    su_true = spec.sigma_eta / math.sqrt(1.0 + rho * rho)

    if iid_windows:
        k = periods - 1 - m  # the forecast origins of one overlapping series
        n_series, T_short = n_tech * (k * (k + 1) // 2), m + 2
        # m + 1 diffs of a one-technology dataset's shared path, stream (0, 0, 2)
        x = np.diff(make_dataset(replace(spec, n_tech=1, T=T_short), 0).log_experience)
        xw, x_fut = x[:m], x[m:]
        u = _normals(seed, [(0, 0, _ROLE_COST)], np.array([n_series * T_short]), np.array([su_true]))
        u = u.reshape(n_series, T_short)
        e = u[:, 1:] + rho * u[:, :-1]
        _, omega_hat, sig_eta2, _, _ = _window_fits(xw, spec.omega * xw + e[:, :m])
        raw = (spec.omega - omega_hat) * x_fut[0] + e[:, m]
        unit = _ma1_unit_variance(rho, xw, x_fut.sum(), 1)
    else:
        w = _windows(make_dataset(spec, 0), cfg)
        raw = w.e_wright
        sig_eta2 = w.sig_eta2[w.win]
        unit = _ma1_unit_variance(rho, w.xw[w.win], w.fsum, w.tau)

    if variance == "estimated":
        su_hat2 = sig_eta2 * (1.0 / (1.0 + rho * rho))
        norm, reference, df = raw / np.sqrt(unit * su_hat2), "student", m - 1
    else:
        norm, reference, df = raw / np.sqrt(unit * su_true * su_true), "normal", None
    check = ecdf_vs_reference(norm, reference, df=df)
    return CalibrationResult(
        normalized=norm,
        reference=reference,
        df=df,
        check=check,
        pit_values=pit(norm, reference, df=df),
    )
