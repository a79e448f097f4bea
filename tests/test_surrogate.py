import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from expcurve import (
    DataError,
    SurrogateSpec,
    gen_log_production,
    growth_stats,
    make_dataset,
    run_calibration_study,
    run_ensemble,
    sigma_x_theory,
)
from expcurve import surrogate
from expcurve.params_io import load_reference_params
from expcurve.series import GROWTH_FLOOR


# The per-technology generator that make_dataset replaced, kept as the oracle
# of its bytes: each series drawn, conditioned and built on its own.
def _reference_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _reference_production(T, g, sigma_q, rng):
    a = rng.normal(0.0, sigma_q, T - 1)
    return np.exp(np.concatenate([[0.0], g * np.arange(1, T) + np.cumsum(a)]))


def _reference_experience(name, q):
    if q[0] <= 0 or q[-1] <= 0:
        raise DataError("non-positive production at the series ends")
    g_d = float(np.exp(np.log(q[-1] / q[0]) / (len(q) - 1)) - 1.0)
    if not g_d > GROWTH_FLOOR:
        raise DataError(f"{name}: zero production growth rate (g_d={g_d:.3g})")
    return q[0] / g_d + np.concatenate([[0.0], np.cumsum(q[:-1])])


def _reference_cost(x, omega, sigma_eta, rho, rng):
    sigma_u = sigma_eta / math.sqrt(1.0 + rho * rho)
    u = rng.normal(0.0, sigma_u, len(x) + 1)
    e = u[1:] + rho * u[:-1]
    return np.exp(np.concatenate([[0.0], np.cumsum(omega * x + e)]))


def reference_dataset(spec, replicate):
    """The dataset make_dataset should return, and how many production
    paths it redrew."""
    redraws = 0

    def draw_production(T, g, sigma_q, base_key):
        nonlocal redraws
        if not spec.corrected_experience:
            q = _reference_production(T, g, sigma_q, _reference_rng(spec.seed, *base_key))
            return q, np.cumsum(q)
        for attempt in range(1000):
            key = base_key if attempt == 0 else (*base_key, attempt)
            q = _reference_production(T, g, sigma_q, _reference_rng(spec.seed, *key))
            try:
                return q, _reference_experience("", q)
            except DataError:
                redraws += 1
        raise DataError(
            f"no growing production path found for stream {base_key} "
            f"(g={g}, sigma_q={sigma_q}, T={T})"
        )

    fields = ("T", "g", "sigma_q", "omega", "sigma_eta", "rho")
    lengths, *per_tech = (np.broadcast_to(getattr(spec, f), spec.n_tech).tolist() for f in fields)
    lengths = [int(T) for T in lengths]
    shared_q = None
    if spec.shared_production:
        key = (replicate, 0, 2)
        shared_q, _ = draw_production(max(lengths), per_tech[0][0], per_tech[1][0], key)
    names, cost, production, experience = [], [], [], []
    for j, (T, g, sigma_q, omega, sigma_eta, rho) in enumerate(zip(lengths, *per_tech)):
        names.append(f"tech{j:03d}")
        if shared_q is None:
            q, z = draw_production(T, g, sigma_q, (replicate, j, 0))
        else:
            q = shared_q[:T]
            z = _reference_experience(names[j], q) if spec.corrected_experience else np.cumsum(q)
        rng = _reference_rng(spec.seed, replicate, j, 1)
        cost.append(_reference_cost(np.diff(np.log(z)), omega, sigma_eta, rho, rng))
        production.append(q)
        experience.append(z)
    years = np.concatenate([np.arange(1, T + 1) for T in lengths])
    columns = (years, *(np.concatenate(c) for c in (cost, production, experience)))
    return (names, lengths, *columns), redraws


def first_years(table, n):
    """Each series' first ``n`` years of cost and of production, as rows."""
    at = np.cumsum(table.T) - table.T
    years = at[:, None] + np.arange(n)
    return table.cost[years], table.production[years]


class TestGenProduction:
    def test_deterministic(self):
        a = gen_log_production(30, 0.1, 0.1, 42)
        b = gen_log_production(30, 0.1, 0.1, 42)
        assert_array_equal(a, b)

    def test_zero_volatility_exact_exponential(self):
        table = make_dataset(SurrogateSpec(n_tech=3, T=10, g=0.07, sigma_q=0.0, n_ensembles=1))
        _, q = first_years(table, 10)
        assert_allclose(np.diff(np.log(q)), 0.07, rtol=1e-12)

    def test_drift_matches(self):
        lq = gen_log_production(10_001, 0.1, 0.1, 5)
        d = np.diff(lq)
        assert d.mean() == pytest.approx(0.1, abs=0.003)
        assert d.std(ddof=1) == pytest.approx(0.1, abs=0.003)

    def test_starts_at_one(self):
        draws = np.random.default_rng(1).normal(0.0, 0.3, (3, 4))
        assert_array_equal(surrogate._log_production(draws, np.full(3, 0.2))[:, 0], 0.0)
        table = make_dataset(SurrogateSpec(n_tech=5, T=[4, 9, 5, 12, 6], g=0.2, sigma_q=0.3, n_ensembles=1))
        _, q = first_years(table, 1)
        assert_array_equal(q, 1.0)


class TestGenCost:
    def test_noise_free_linear_in_x(self):
        x = np.array([0.1, 0.2, 0.15])
        y = surrogate._log_cost(x[None], np.zeros((1, 4)), np.array([-0.3]), np.array([0.9]))[0]
        assert y[0] == 0.0
        assert_allclose(np.diff(y), -0.3 * x, atol=1e-15)

    def test_marginal_residual_scale_stationary(self):
        # first-step residual already has the full marginal scale
        spec = SurrogateSpec(n_tech=4000, T=4, omega=0.0, sigma_eta=0.2, rho=0.8, n_ensembles=1)
        cost, _ = first_years(make_dataset(spec), 2)
        firsts = np.log(cost[:, 1] / cost[:, 0])
        assert firsts.std() == pytest.approx(0.2, rel=0.05)

    def test_lag1_autocorrelation(self):
        x = np.zeros((1, 100_000))
        for rho, expect in ((0.0, 0.0), (0.6, 0.6 / 1.36)):
            u = np.random.default_rng(9).normal(0.0, 0.1 / math.sqrt(1 + rho * rho), (1, 100_001))
            y = surrogate._log_cost(x, u, np.array([0.0]), np.array([rho]))[0]
            e = np.diff(y)
            ac = np.corrcoef(e[:-1], e[1:])[0, 1]
            assert ac == pytest.approx(expect, abs=0.01)


class TestSigmaXTheory:
    def test_values(self):
        r, var = sigma_x_theory(0.1, 0.1)
        assert r == 0.1
        assert var == pytest.approx(0.01 * math.tanh(0.05), rel=1e-12)
        assert math.sqrt(var) == pytest.approx(0.02235, abs=2e-5)

    def test_vanishes_at_zero_growth(self):
        assert sigma_x_theory(1e-12, 0.3)[1] == pytest.approx(0.0, abs=1e-13)

    def test_requires_positive_growth(self):
        with pytest.raises(ValueError):
            sigma_x_theory(-0.1, 0.1)
        with pytest.raises(ValueError):
            sigma_x_theory(0.0, 0.1)

    def test_always_smaller_than_production_volatility(self):
        for g in (0.01, 0.1, 0.5, 2.0):
            _, var = sigma_x_theory(g, 0.2)
            assert var < 0.2**2

    def test_long_run_monte_carlo(self):
        lq = gen_log_production(10_000, 0.1, 0.1, 3)
        dlz = np.diff(np.logaddexp.accumulate(lq))[200:]
        _, var_th = sigma_x_theory(0.1, 0.1)
        assert dlz.var(ddof=1) == pytest.approx(var_th, rel=0.10)


class TestMakeDataset:
    def test_determinism_and_replicate_independence(self):
        spec = SurrogateSpec(n_tech=3, T=12, seed=7, n_ensembles=2)
        a = make_dataset(spec, 0)
        b = make_dataset(spec, 0)
        c = make_dataset(spec, 1)
        for x, y in zip(a, b):
            assert_allclose(x.cost, y.cost, rtol=0)
            assert_allclose(x.production, y.production, rtol=0)
        assert not np.allclose(a[0].cost, c[0].cost)

    def test_technologies_distinct(self):
        ds = make_dataset(SurrogateSpec(n_tech=2, T=12, seed=1, n_ensembles=1), 0)
        assert not np.allclose(ds[0].production, ds[1].production)

    def test_shared_production(self):
        spec = SurrogateSpec(
            n_tech=3, T=12, seed=2, n_ensembles=1, shared_production=True
        )
        ds = make_dataset(spec, 0)
        assert_allclose(ds[0].production, ds[1].production, rtol=0)
        assert not np.allclose(ds[0].cost, ds[1].cost)

    def test_experience_modes(self):
        corrected = make_dataset(
            SurrogateSpec(n_tech=1, T=12, seed=3, n_ensembles=1), 0
        )[0]
        plain = make_dataset(
            SurrogateSpec(
                n_tech=1, T=12, seed=3, n_ensembles=1, corrected_experience=False
            ),
            0,
        )[0]
        assert_allclose(plain.experience, np.cumsum(plain.production), rtol=1e-12)
        assert corrected.experience[0] > corrected.production[0]  # initial stock added

    def test_redraws_batched_through_streams(self, monkeypatch):
        # one initial-stock correction over every technology's row, and one
        # _streams call per redraw attempt, holding a key for each path still
        # failing the growth test with the attempt as a fourth element
        calls, built = [], []
        streams, build = surrogate._streams, surrogate._corrected_experience

        def recorded(seed, keys):
            calls.append([tuple(key) for key in keys])
            return streams(seed, keys)

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(surrogate, "_streams", recorded)
        monkeypatch.setattr(surrogate, "_corrected_experience", counted)
        T = np.array([4, 9, 30, 30, 50, 12])
        for g in (0.1, np.array([-0.05, 0.1, -0.05, 0.02, 0.1, -0.02])):
            calls.clear()
            built.clear()
            spec = SurrogateSpec(n_tech=6, T=T, g=g, sigma_q=0.1, seed=4, n_ensembles=1)
            ds = make_dataset(spec, 0)
            _, redraws = reference_dataset(spec, 0)
            attempts = [call for call in calls if len(call[0]) == 4]
            assert sum(map(len, attempts)) == redraws
            assert [{key[3] for key in call} for call in attempts] == [
                {k} for k in range(1, len(attempts) + 1)
            ]
            assert len(built) == 1
            for ts in ds:
                z = build([ts.name], ts.production[None], np.array([ts.T]))[0]
                assert_array_equal(ts.experience, z)
        assert len(attempts) > 1  # the second spec redrew some paths twice or more

    @pytest.mark.parametrize(
        "g0, g, T",
        [(0.1, -1.0, 6), (0.1, -8.0, 120), (-1.0, -1.0, 6)],
        ids=["shrinking", "underflowing", "both-shrinking"],
    )
    def test_redraws_exhausted(self, g0, g, T):
        # a path that never grows fails every attempt of its stream; one
        # whose production underflows to 0 fails the test without a warning;
        # of two such paths, the lower-index stream is named
        spec = SurrogateSpec(n_tech=2, T=np.array([9, T]), g=np.array([g0, g]),
                             sigma_q=np.array([0.1, 0.0]), seed=3, n_ensembles=1)
        j, g, sigma_q, T = (0, g0, 0.1, 9) if g0 < 0 else (1, g, 0.0, T)
        message = f"no growing production path found for stream (2, {j}, 0) (g={g}, sigma_q={sigma_q}, T={T})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make_dataset(spec, 2)

    def test_shared_path_not_growing_over_a_shorter_stretch(self):
        # the shared path is conditioned over its full length only
        spec = SurrogateSpec(n_tech=3, T=np.array([30, 4, 30]), g=0.02, sigma_q=0.3, seed=2,
                             n_ensembles=1, shared_production=True)
        with pytest.raises(DataError, match=r"^tech001: zero production growth rate \(g_d=-0.221\)$"):
            make_dataset(spec, 0)

    def test_per_tech_parameter_vectors(self):
        spec = SurrogateSpec(
            n_tech=2,
            T=np.array([10, 14]),
            g=np.array([0.05, 0.3]),
            sigma_q=0.1,
            omega=np.array([-0.2, -0.8]),
            sigma_eta=np.array([0.0, 0.0]),
            seed=5,
            n_ensembles=1,
        )
        ds = make_dataset(spec, 0)
        assert [ts.T for ts in ds] == [10, 14]
        for ts, om in zip(ds, (-0.2, -0.8)):
            d = ts.diffs()
            assert_allclose(d.y, om * d.x, atol=1e-12)

    def test_vector_length_validation(self):
        with pytest.raises(ValueError, match="length n_tech"):
            SurrogateSpec(n_tech=3, g=np.array([0.1, 0.2]))

    @pytest.mark.parametrize("field", ["n_tech", "n_ensembles"])
    def test_counts_must_be_integers(self, field):
        for bad in (2.0, 2.5, 0):
            with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
                SurrogateSpec(**{"n_tech": 2, field: bad})
        spec = SurrogateSpec(n_tech=np.int64(2), n_ensembles=np.int64(1), T=6)
        assert make_dataset(spec, 0).T.tolist() == [6, 6]

    def test_seed_must_be_a_non_negative_integer(self):
        # a generator would be shared by every stream, so the draws would
        # depend on their order
        for bad in (-1, 7.0, np.random.default_rng(7), None):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
                SurrogateSpec(n_tech=2, seed=bad)
        for good in (0, np.int64(7), 2**128 + 3):
            assert SurrogateSpec(n_tech=2, seed=good).seed == good

    def test_replicate_is_one_key_word(self):
        spec = SurrogateSpec(n_tech=2, T=6, seed=2**64 + 1, n_ensembles=1)
        for bad in (-1, 2**32, 1.0, [0, 2**32], [-1], [0, 1.0], [[0]]):
            with pytest.raises(ValueError, match=re.escape("replicate must be an integer in [0, 2**32)")):
                make_dataset(spec, bad)
        assert make_dataset(spec, []) == []
        assert TestMakeDatasetOracle.assert_same(spec, 2**32 - 1)

    def test_periods_checked_at_construction(self):
        with pytest.raises(ValueError, match="T must be integral"):
            SurrogateSpec(n_tech=1, T=50.7)
        with pytest.raises(ValueError, match="T must be integral"):
            SurrogateSpec(n_tech=2, T=np.array([12, 9.5]))
        with pytest.raises(ValueError, match="T must be at least 4 per technology"):
            SurrogateSpec(n_tech=1, T=3)
        with pytest.raises(ValueError, match="T must be at least 4 per technology"):
            SurrogateSpec(n_tech=3, T=np.array([30, 12, 3]))
        spec = SurrogateSpec(n_tech=2, T=np.array([4.0, 6.0]), n_ensembles=1)
        assert make_dataset(spec).T.tolist() == [4, 6]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["n_tech", "T", "g", "sigma_q", "omega", "sigma_eta", "rho", "n_ensembles"]
    )
    def test_non_finite_parameters_rejected(self, field, bad):
        # NaN passes every range check, so finiteness is tested on its own;
        # per-technology fields are also checked entry by entry
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SurrogateSpec(**{"n_tech": 2, field: bad})
        if field not in ("n_tech", "n_ensembles"):
            good = getattr(SurrogateSpec(n_tech=2), field)
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SurrogateSpec(n_tech=2, **{field: np.array([good, bad])})

    def test_integration_smoothing(self):
        ds = make_dataset(SurrogateSpec(n_tech=6, T=60, seed=11, n_ensembles=1), 0)
        for ts in ds:
            gs = growth_stats(ts)
            assert gs.sigma_x < gs.sigma_q

    def test_reference_table_mimicry(self):
        # a full heterogeneous dataset at published parameter scales
        from expcurve import HindcastConfig, load_reference_params, run_hindcast

        table = load_reference_params()
        spec = SurrogateSpec(
            n_tech=len(table),
            **{f: table[f] for f in ("T", "g", "sigma_q", "omega", "sigma_eta")},
            rho=0.19,
            seed=7,
            n_ensembles=1,
        )
        ds = make_dataset(spec, 0)
        assert_array_equal(ds.T, table["T"])
        errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=20, rho=0.19))
        expect = sum(sum(min(20, T - t) for t in range(6, T)) for T in table["T"].tolist())
        assert sum(1 for e in errs if e.model == "wright") == expect


MODES = {
    "corrected": {},
    "plain": {"corrected_experience": False},
    "shared": {"shared_production": True},
    "shared-plain": {"shared_production": True, "corrected_experience": False},
}


def _bundled_spec(**kwargs):
    table = load_reference_params()
    generator = {f: table[f] for f in ("T", "g", "sigma_q", "omega", "sigma_eta")}
    return SurrogateSpec(n_tech=len(table), **generator, rho=0.19, n_ensembles=1, **kwargs)


class TestMakeDatasetOracle:
    """make_dataset equals the per-technology generator bit for bit."""

    SPECS = {
        # T = 4 is the shortest spec; 130 and 200 cross NumPy's summation blocks
        "mixed": dict(n_tech=6, T=np.array([4, 9, 17, 130, 200, 5]),
                      g=np.array([0.15, 0.2, 0.1, 0.05, 0.12, 0.3]),
                      sigma_q=np.array([0.08, 0.1, 0.12, 0.09, 0.15, 0.05]),
                      omega=np.array([-0.5, -0.4, -0.3, -0.2, -0.35, -0.6]),
                      sigma_eta=0.07, rho=np.array([0.2, -0.3, 0.0, 0.6, 1.0, -1.0])),
        # some drifts below zero force redraws
        "redraws": dict(n_tech=8, T=np.array([4, 6, 12, 40, 4, 25, 7, 60]),
                        g=np.array([-0.05, 0.02, -0.1, 0.01, 0.0, -0.02, 0.1, 0.005]),
                        sigma_q=0.2, omega=-0.3, sigma_eta=0.1, rho=0.4),
        "equal": dict(n_tech=3, T=12, g=0.1, sigma_q=0.1, omega=-0.3, sigma_eta=0.1),
    }

    @staticmethod
    def assert_same(spec, replicate):
        try:
            expected, _ = reference_dataset(spec, replicate)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                make_dataset(spec, replicate)
            return False
        ds = make_dataset(spec, replicate)
        names, T, *columns = expected
        assert ds.names.tolist() == names and ds.T.tolist() == T
        for got, want in zip((ds.years, ds.cost, ds.production, ds.experience), columns):
            assert_array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ too
        return True

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_specs(self, name, mode):
        built = 0
        for seed in (0, 7, 2016):
            spec = SurrogateSpec(**self.SPECS[name], seed=seed, n_ensembles=1, **MODES[mode])
            built += sum(self.assert_same(spec, r) for r in (0, 1, 5))
        assert built > 0

    def test_redraw_spec_redraws(self):
        spec = SurrogateSpec(**self.SPECS["redraws"], seed=0, n_ensembles=1)
        assert reference_dataset(spec, 0)[1] > 0

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_bundled_table(self, mode):
        for seed in (7, 13):
            for r in (0, 3):
                assert self.assert_same(_bundled_spec(seed=seed, **MODES[mode]), r)


# seeds of one to five 32-bit words, and key elements at the word's edges
STREAM_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 1, 2**128 - 1, 2**128, 2**128 + 3)
KEY_ELEMENTS = (0, 1, 2**31, 2**32 - 1)


class TestStreams:
    """_streams yields, key by key, the generator NumPy builds from
    SeedSequence(seed, spawn_key=key)."""

    @staticmethod
    def assert_numpy_streams(seed, keys):
        for key, rng in zip(keys, surrogate._streams(seed, keys), strict=True):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
            assert rng.bit_generator.state == want.state
            assert_array_equal(rng.normal(size=50), np.random.Generator(want).normal(size=50))
        # each generator is its own: all of them taken first, then drawn from
        rngs = list(surrogate._streams(seed, keys))
        for key, rng in zip(keys, rngs, strict=True):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
            assert_array_equal(rng.normal(size=50), np.random.Generator(want).normal(size=50))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_numpy(self, seed):
        keys = [(a, b, c) for a in KEY_ELEMENTS for b in KEY_ELEMENTS for c in KEY_ELEMENTS]
        self.assert_numpy_streams(seed, keys)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**160 - 1),
        keys=st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 3), min_size=1, max_size=6),
    )
    def test_matches_numpy_property(self, seed, keys):
        self.assert_numpy_streams(seed, keys)

    def test_one_seed_sequence_per_call_and_pcg64_per_key(self, monkeypatch):
        # every surrogate draw comes through _streams, which takes the
        # seed's pool from one SeedSequence per call and gives each key a
        # PCG64 of its own, seeded from the key's state words
        def refused(*args, **kwargs):
            raise AssertionError("a stream was drawn from default_rng")

        sizes, seed_seqs, bitgens = [], [], []
        streams, seed_sequence, pcg64 = surrogate._streams, np.random.SeedSequence, np.random.PCG64

        def counted_streams(seed, batch):
            sizes.append(len(batch))
            return streams(seed, batch)

        def counted_seed_sequence(*args, **kwargs):
            assert "spawn_key" not in kwargs and len(args) == 1
            seed_seqs.append(args)
            return seed_sequence(*args, **kwargs)

        def counted_pcg64(seed):
            assert isinstance(seed, surrogate._State)
            bitgens.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "default_rng", refused)
        monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
        monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
        monkeypatch.setattr(surrogate, "_streams", counted_streams)
        for mode in sorted(MODES):
            spec = _bundled_spec(seed=7, **MODES[mode])
            for r in (0, 3):
                make_dataset(spec, r)
        for iid_windows in (True, False):
            run_calibration_study(5, iid_windows=iid_windows, n_tech=10, periods=20, seed=3)
        assert len(seed_seqs) == len(sizes) > 0
        assert len(bitgens) == sum(sizes)

    @pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-310, 0.07, 2.5])
    def test_normal_is_scaled_standard_normal(self, scale):
        # make_dataset fills each stream's row with standard normals and
        # scales the block once, which has normal's bytes only while normal
        # is loc + scale * z element by element
        want = np.random.Generator(np.random.PCG64(2016)).normal(0.0, scale, 1000)
        z = np.empty(1000)
        np.random.Generator(np.random.PCG64(2016)).standard_normal(out=z)
        assert (0.0 + scale * z).tobytes() == want.tobytes()


def assert_same_tables(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.names.tolist() == b.names.tolist() and a.T.tolist() == b.T.tolist()
        for column in ("years", "cost", "production", "experience"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


class TestBlocks:
    """A sequence of replicates is built as one block, with the tables each
    replicate gives alone."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", sorted(TestMakeDatasetOracle.SPECS))
    def test_sequence_equals_replicates_alone(self, name, mode):
        spec = SurrogateSpec(**TestMakeDatasetOracle.SPECS[name], seed=7, n_ensembles=1, **MODES[mode])
        built = 0
        for block in ([3], [0, 1, 5], range(6), np.arange(2, 9)[::-1]):
            try:
                want = [make_dataset(spec, r) for r in block]
            except DataError:
                with pytest.raises(DataError):
                    make_dataset(spec, block)
                continue
            assert_same_tables(make_dataset(spec, block), want)
            built += 1
        # the redraw spec's shared path shrinks over some technology's stretch
        assert built > 0 or (name, mode) == ("redraws", "shared")

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_ensemble_builds_blocks(self, mode, monkeypatch):
        # 40 series of up to 100 years: blocks of four replicates, the last
        # of two, and the pipeline sees each replicate's table in order
        spec = SurrogateSpec(n_tech=40, T=np.arange(61, 101), g=0.05, sigma_q=0.1, seed=3,
                             n_ensembles=10, **MODES[mode])
        build, blocks, seen = make_dataset, [], []

        def recorded(spec, replicate=0):
            blocks.append(list(replicate))
            return build(spec, replicate)

        monkeypatch.setattr(surrogate, "make_dataset", recorded)
        run_ensemble(spec, lambda ds: seen.append(ds) or [0.0])
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert_same_tables(seen, [build(spec, r) for r in range(10)])

    def test_failed_block_built_again_one_at_a_time(self):
        # the shared path of replicate 2 does not grow over tech001's
        # stretch, and the pipeline fails on replicate 1 of the same block:
        # the replicates are built again one at a time, so replicate 1 fails
        spec = SurrogateSpec(n_tech=3, T=np.array([30, 5, 30]), g=0.02, sigma_q=0.3, seed=15,
                             n_ensembles=6, shared_production=True)
        make_dataset(spec, [0, 1])
        for block in (2, range(6)):
            with pytest.raises(DataError, match="^tech001: zero production growth rate"):
                make_dataset(spec, block)
        seen = []

        def pipeline(ds):
            seen.append(ds)
            if len(seen) == 2:
                raise KeyError("boom")
            return [0.0]

        with pytest.raises(RuntimeError, match=r"^pipeline failed on replicate 1 ") as exc:
            run_ensemble(spec, pipeline)
        assert isinstance(exc.value.__cause__, KeyError)
        assert_same_tables(seen, make_dataset(spec, [0, 1]))


class TestRunEnsemble:
    def test_constant_statistic_collapses(self):
        spec = SurrogateSpec(n_tech=1, T=8, seed=0, n_ensembles=50)
        res = run_ensemble(spec, lambda ds: [4.2])
        assert_allclose(res.mean, [4.2])
        assert_allclose(res.lower, [4.2])
        assert_allclose(res.upper, [4.2])

    def test_band_ordering_and_coverage(self):
        # statistic: mean log-production growth; true value g = 0.1
        spec = SurrogateSpec(n_tech=4, T=30, seed=6, n_ensembles=120)
        res = run_ensemble(
            spec,
            lambda ds: [np.mean([growth_stats(ts).g for ts in ds])],
        )
        assert res.lower[0] <= res.mean[0] <= res.upper[0]
        assert res.lower[0] <= 0.1 <= res.upper[0]

    def test_thread_count_invariance(self):
        spec = SurrogateSpec(n_tech=2, T=10, seed=9, n_ensembles=16)
        stat = lambda ds: [ds[0].cost.sum(), ds[1].cost.sum()]
        a = run_ensemble(spec, stat)
        b = run_ensemble(spec, stat)
        assert_allclose(a.mean, b.mean, rtol=0)
        assert_allclose(a.lower, b.lower, rtol=0)
        assert_allclose(a.upper, b.upper, rtol=0)
        # a replicate depends only on its index, not on the order of the run
        backwards = [stat(make_dataset(spec, r)) for r in reversed(range(16))]
        assert_allclose(np.sort(backwards, axis=0)[0], a.lower, rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 39, 40, 41, 80, 81])
    def test_band_is_the_nearest_rank(self, n):
        # oracle: the ceil(q n)-th smallest of each entry, by an independent sort
        spec = SurrogateSpec(n_tech=1, T=6, seed=4, n_ensembles=n)
        stat = lambda ds: np.reshape(ds.cost, (2, 3))
        res = run_ensemble(spec, stat)
        values = np.stack([stat(make_dataset(spec, r)) for r in range(n)])
        for q, band in ((0.025, res.lower), (0.975, res.upper)):
            rank = math.ceil(q * n) - 1
            assert_array_equal(band, [[sorted(values[:, i, j])[rank] for j in range(3)] for i in range(2)])

    def test_nan_in_one_replicate_propagates(self):
        spec = SurrogateSpec(n_tech=1, T=6, seed=4, n_ensembles=40)
        calls = iter(range(spec.n_ensembles))

        def stat(ds):
            out = np.reshape(ds.cost, (2, 3)).copy()
            if next(calls) == 7:  # replicates run in order
                out[1, 2] = np.nan
            return out

        res = run_ensemble(spec, stat)
        for field in ("mean", "lower", "upper"):
            nan = np.isnan(getattr(res, field))
            assert nan[1, 2] and nan.sum() == 1, field

    def test_statistic_keeps_its_shape(self):
        spec = SurrogateSpec(n_tech=3, T=10, seed=5, n_ensembles=40)
        stat = lambda ds: np.reshape(ds.cost, (3, 10))[:2, :4]
        res = run_ensemble(spec, stat)
        flat = run_ensemble(spec, lambda ds: stat(ds).ravel())
        for field in ("mean", "lower", "upper"):
            assert getattr(res, field).shape == (2, 4)
            assert_array_equal(getattr(res, field).ravel(), getattr(flat, field))

    def test_failure_carries_replicate(self):
        spec = SurrogateSpec(n_tech=1, T=8, seed=0, n_ensembles=5)

        def bad(ds):
            raise KeyError("boom")

        with pytest.raises(RuntimeError, match="replicate 0"):
            run_ensemble(spec, bad)

    def test_ecdf_bands_bracket_normal_cdf(self):
        # true-scale normalized errors: the band around the ECDF statistic
        # should cover the normal CDF at nearly every grid point
        from expcurve import HindcastConfig, run_hindcast, wright_ma1_variance

        rho, sigma_eta = 0.6, 0.1
        su_true = sigma_eta / math.sqrt(1 + rho**2)
        grid = np.linspace(-2.5, 2.5, 11)

        def ecdf_stat(ds):
            errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=None, rho=rho))
            series = {ts.name: (ts.diffs().x, ts.years[0]) for ts in ds}
            norm = []
            for e in errs[errs.model == "wright"]:
                x, first_year = series[e.technology]
                o = e.origin_year - first_year
                v = wright_ma1_variance(su_true, rho, x[o - 5:o], x[o:o + e.tau])
                norm.append(e.raw_error / math.sqrt(v))
            return [(np.array(norm) <= q).mean() for q in grid]

        spec = SurrogateSpec(
            n_tech=12, T=18, omega=-0.3, sigma_eta=sigma_eta, rho=rho,
            seed=4, n_ensembles=80, shared_production=True, corrected_experience=False,
        )
        res = run_ensemble(spec, ecdf_stat)
        target = stats.norm.cdf(grid)
        covered = np.mean((res.lower <= target) & (target <= res.upper))
        assert covered >= 0.9

    def test_msq_bands_bracket_benchmark_line(self):
        # random-walk data: per-horizon mean squared normalized error vs 2A
        from expcurve import HindcastConfig, a_factor, mse_by_horizon, run_hindcast

        taus = np.arange(1, 6)

        def msq_stat(ds):
            errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=5, rho=0.0))
            table = mse_by_horizon(errs[errs.model == "moore"])
            return [table[int(t)][0] for t in taus]

        spec = SurrogateSpec(
            n_tech=25, T=16, omega=0.0, sigma_eta=0.1, rho=0.0, seed=2, n_ensembles=120
        )
        res = run_ensemble(spec, msq_stat)
        target = 2.0 * a_factor(taus, 5)
        assert np.all(res.lower <= target) and np.all(target <= res.upper)


class TestCalibrationStudy:
    def test_iid_windows_calibrated(self):
        res = run_calibration_study(
            m=5, variance="true", iid_windows=True, n_tech=20, periods=20, seed=1
        )
        n = len(res.normalized)
        assert n == 20 * (14 * 15) // 2
        assert res.reference == "normal"
        assert res.normalized.std() == pytest.approx(1.0, abs=0.03)
        assert stats.kstest(res.normalized, "norm").pvalue > 0.01

    def test_estimated_variance_uses_student(self):
        res = run_calibration_study(
            m=5, variance="estimated", n_tech=20, periods=20, seed=1
        )
        assert res.reference == "student"
        assert res.df == 4

    def test_error_count_matches_hindcast_arithmetic(self):
        res = run_calibration_study(m=5, variance="true", n_tech=10, periods=15, seed=2)
        assert len(res.normalized) == 10 * (9 * 10) // 2

    @pytest.mark.parametrize("iid_windows", [False, True], ids=["overlapping", "iid"])
    def test_window_size_checked_in_both_branches(self, iid_windows):
        with pytest.raises(ValueError, match="m must be an integer of at least 2"):
            run_calibration_study(
                m=1, variance="true", iid_windows=iid_windows, n_tech=3, periods=12
            )

    @pytest.mark.parametrize("iid_windows", [False, True], ids=["overlapping", "iid"])
    def test_periods_checked_in_both_branches(self, iid_windows):
        # a series of m + 1 periods has a window but nothing to forecast
        with pytest.raises(ValueError, match=r"^periods must be at least m \+ 2 = 7$"):
            run_calibration_study(
                m=5, variance="true", iid_windows=iid_windows, n_tech=10, periods=6
            )
        res = run_calibration_study(
            m=5, variance="true", iid_windows=iid_windows, n_tech=10, periods=7
        )
        assert len(res.normalized) == 10

    def test_bad_variance_mode(self):
        with pytest.raises(ValueError):
            run_calibration_study(variance="guessed")


@pytest.mark.parametrize("call, message", [
    (lambda: SurrogateSpec(n_tech=1, sigma_q=-0.1), "^volatilities must be non-negative$"),
    (lambda: SurrogateSpec(n_tech=2, sigma_eta=[0.1, -0.1]), "^volatilities must be non-negative$"),
    (lambda: SurrogateSpec(n_tech=1, rho=1.5), r"^rho must lie in \[-1, 1\]$"),
    (lambda: SurrogateSpec(n_tech=2, rho=[0.2, -1.01]), r"^rho must lie in \[-1, 1\]$"),
    (lambda: gen_log_production(1, 0.1, 0.1, 0), "^need at least 2 periods$"),
], ids=["sigma-q", "sigma-eta-vector", "rho", "rho-vector", "one-period"])
def test_generator_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
