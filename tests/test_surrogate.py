import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from expcurve import (
    SurrogateSpec,
    gen_cost,
    gen_log_production,
    gen_production,
    growth_stats,
    make_dataset,
    run_calibration_study,
    run_ensemble,
    sigma_x_theory,
)


class TestGenProduction:
    def test_deterministic(self):
        a = gen_production(30, 0.1, 0.1, 42)
        b = gen_production(30, 0.1, 0.1, 42)
        assert_allclose(a, b, rtol=0)

    def test_zero_volatility_exact_exponential(self):
        q = gen_production(10, 0.07, 0.0, 0)
        assert_allclose(np.diff(np.log(q)), 0.07, rtol=1e-12)

    def test_drift_matches(self):
        lq = gen_log_production(10_001, 0.1, 0.1, 5)
        d = np.diff(lq)
        assert d.mean() == pytest.approx(0.1, abs=0.003)
        assert d.std(ddof=1) == pytest.approx(0.1, abs=0.003)

    def test_starts_at_one(self):
        assert gen_production(5, 0.2, 0.3, 1)[0] == 1.0


class TestGenCost:
    def test_noise_free_linear_in_x(self):
        x = np.array([0.1, 0.2, 0.15])
        y = gen_cost(x, omega=-0.3, sigma_eta=0.0, rho=0.9, seed=0)
        assert_allclose(np.diff(y), -0.3 * x, atol=1e-15)

    def test_marginal_residual_scale_stationary(self):
        # first-step residual already has the full marginal scale
        firsts = np.array(
            [
                gen_cost([0.0], omega=0.0, sigma_eta=0.2, rho=0.8, seed=s)[1]
                for s in range(4000)
            ]
        )
        assert firsts.std() == pytest.approx(0.2, rel=0.05)

    def test_lag1_autocorrelation(self):
        x = np.zeros(100_000)
        for rho, expect in ((0.0, 0.0), (0.6, 0.6 / 1.36)):
            y = gen_cost(x, omega=0.0, sigma_eta=0.1, rho=rho, seed=9)
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

    def test_experience_built_once_per_path(self, monkeypatch):
        # the growth test of an accepted path builds its experience, which
        # the dataset keeps; with no redraws that is one build per technology
        from expcurve import surrogate

        calls = {"experience": 0, "production": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        build, draw = surrogate._corrected_experience, surrogate.gen_production
        monkeypatch.setattr(surrogate, "_corrected_experience", counted("experience", build))
        monkeypatch.setattr(surrogate, "gen_production", counted("production", draw))
        spec = SurrogateSpec(n_tech=6, T=np.array([4, 9, 30, 30, 50, 12]), seed=4, n_ensembles=1)
        ds = make_dataset(spec, 0)
        assert calls == {"experience": 6, "production": 6}  # no redraws
        for ts in ds:
            assert_array_equal(ts.experience, build(ts.name, ts.production))

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


class TestRunEnsemble:
    def test_constant_statistic_collapses(self):
        spec = SurrogateSpec(n_tech=1, T=8, seed=0, n_ensembles=50)
        res = run_ensemble(spec, lambda ds: [4.2])
        assert_allclose(res.mean, [4.2])
        assert_allclose(res.lower, [4.2])
        assert_allclose(res.upper, [4.2])
        assert res.n_replicates == 50

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

    def test_failure_carries_replicate(self):
        spec = SurrogateSpec(n_tech=1, T=8, seed=0, n_ensembles=5)

        def bad(ds):
            raise KeyError("boom")

        with pytest.raises(RuntimeError, match="replicate 0"):
            run_ensemble(spec, bad)

    def test_ecdf_bands_bracket_normal_cdf(self):
        # true-scale normalized errors: the band around the ECDF statistic
        # should cover the normal CDF at nearly every grid point
        from expcurve import HindcastConfig, run_hindcast

        rho, sigma_eta = 0.6, 0.1
        su_true = sigma_eta / math.sqrt(1 + rho**2)
        grid = np.linspace(-2.5, 2.5, 11)

        def ecdf_stat(ds):
            errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=None, rho=rho))
            wright = errs[errs.model == "wright"]
            su_hat2 = wright.sigma_eta_hat**2 / (1 + rho**2)
            norm = wright.raw_error / np.sqrt(wright.wright_variance / su_hat2 * su_true**2)
            return [(norm <= q).mean() for q in grid]

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

    def test_bad_variance_mode(self):
        with pytest.raises(ValueError):
            run_calibration_study(variance="guessed")
