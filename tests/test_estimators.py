import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from expcurve import (
    DiffSeries,
    WrightParams,
    fit_moore,
    fit_wright,
    fit_wright_ma1,
    full_sample_estimates,
    load_reference_params,
    pool_rho,
)


def ma1_diffs(rng, m, omega, sigma_eta, rho, x=None):
    if x is None:
        x = np.abs(rng.normal(0.1, 0.05, m)) + 0.01
    su = sigma_eta / math.sqrt(1 + rho * rho)
    u = rng.normal(0, su, m + 1)
    y = omega * x + u[1:] + rho * u[:-1]
    return DiffSeries(y=y, x=x)


def ma1_covariance(m, rho):
    """The dense tridiagonal covariance of ``m`` MA(1) terms with unit
    innovation variance."""
    cov = np.zeros((m, m))
    np.fill_diagonal(cov, 1 + rho**2)
    idx = np.arange(m - 1)
    cov[idx, idx + 1] = cov[idx + 1, idx] = rho
    return cov


def dense_loglik(d, omega, rho, sigma_u):
    """Exact Gaussian log-likelihood of the MA(1) regression at an arbitrary
    parameter point, from the dense covariance."""
    cov = sigma_u**2 * ma1_covariance(d.m, rho)
    e = d.y - omega * d.x
    sign, logdet = np.linalg.slogdet(cov)
    return -0.5 * (d.m * math.log(2 * math.pi) + logdet + e @ np.linalg.solve(cov, e))


class TestFitWright:
    def test_hand_example(self):
        w = fit_wright(DiffSeries(y=[1.0, 1.0], x=[1.0, 2.0]))
        assert w.omega == pytest.approx(0.6, abs=1e-15)
        assert w.sigma_eta == pytest.approx(math.sqrt(0.2), rel=1e-12)
        assert w.m == 2

    def test_noise_free_identity(self):
        x = np.array([0.5, 1.0, 0.25, 2.0])
        w = fit_wright(DiffSeries(y=-0.3 * x, x=x))
        assert w.omega == pytest.approx(-0.3, abs=1e-14)
        assert w.sigma_eta == pytest.approx(0.0, abs=1e-14)

    def test_constant_x_reduces_to_mean_ratio(self):
        rng = np.random.default_rng(4)
        r = 0.13
        y = rng.normal(-0.05, 0.1, 9)
        d = DiffSeries(y=y, x=np.full(9, r))
        w = fit_wright(d)
        mo = fit_moore(d)
        assert w.omega == pytest.approx(mo.mu / r, rel=1e-12)
        # estimator-level identity: omega * r == mu
        assert w.omega * r == pytest.approx(mo.mu, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_wright(DiffSeries(y=[1.0], x=[1.0]))

    def test_scale_equivariance(self):
        # multiplying all costs by a constant shifts log levels only
        from expcurve import SeriesTable, TechSeries, build_experience

        rng = np.random.default_rng(6)
        T = 15
        cost = np.exp(rng.normal(0, 0.5, T))
        prod = np.exp(rng.normal(0.1, 0.2, T)).cumsum() + 1
        pair = [
            TechSeries("a", np.arange(T), cost, prod),
            TechSeries("b", np.arange(T), 312.5 * cost, prod),
        ]
        a, b = (ts.diffs() for ts in build_experience(SeriesTable.from_series(pair)))
        wa, wb = fit_wright(a), fit_wright(b)
        assert wb.omega == pytest.approx(wa.omega, rel=1e-12)
        assert wb.sigma_eta == pytest.approx(wa.sigma_eta, rel=1e-9)
        assert fit_moore(b).K == pytest.approx(fit_moore(a).K, rel=1e-9)

    def test_unbiased(self):
        # 10k simulated windows; mean(omega_hat) - omega within 3 SE of 0
        rng = np.random.default_rng(12)
        omega, sigma_eta, m, n = -0.4, 0.1, 6, 10_000
        x = np.abs(rng.normal(0.1, 0.04, (n, m))) + 0.01
        eta = rng.normal(0, sigma_eta, (n, m))
        y = omega * x + eta
        om_hat = (x * y).sum(axis=1) / (x * x).sum(axis=1)
        se = om_hat.std(ddof=1) / math.sqrt(n)
        assert abs(om_hat.mean() - omega) < 3 * se


class TestFitMoore:
    def test_hand_example(self):
        mo = fit_moore(DiffSeries(y=[-0.1, -0.2, -0.3], x=[1, 1, 1]))
        assert mo.mu == pytest.approx(-0.2, abs=1e-12)
        assert mo.K == pytest.approx(0.1, rel=1e-12)

    def test_constant_diffs(self):
        mo = fit_moore(DiffSeries(y=[-0.5, -0.5], x=[1, 1]))
        assert mo.K == pytest.approx(0.0, abs=1e-15)

    def test_model_divergence_when_x_varies(self):
        d = DiffSeries(y=[0.4, -0.2], x=[1.0, 2.0])
        assert fit_moore(d).mu == pytest.approx(0.1, abs=1e-15)
        assert fit_wright(d).omega == pytest.approx(0.0, abs=1e-15)


class TestFitWrightMa1:
    def test_requires_four_diffs(self):
        d = DiffSeries(y=[0.1, 0.2, 0.1], x=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="at least 4"):
            fit_wright_ma1(d)

    def test_recovers_positive_rho(self):
        # consistency: median estimate over seeds lands near the truth
        hats = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            d = ma1_diffs(rng, 500, omega=-0.3, sigma_eta=0.1, rho=0.6)
            hats.append(fit_wright_ma1(d).rho)
        assert 0.55 <= float(np.median(hats)) <= 0.65

    def test_white_noise_gives_near_zero_rho(self):
        for seed in (100, 101, 102):
            rng = np.random.default_rng(seed)
            d = ma1_diffs(rng, 500, omega=-0.3, sigma_eta=0.1, rho=0.0)
            assert -0.1 <= fit_wright_ma1(d).rho <= 0.1

    def test_unit_rho_reported_at_boundary(self):
        rng = np.random.default_rng(3)
        u = rng.normal(0, 0.1, 501)
        x = np.full(500, 0.1)
        d = DiffSeries(y=-0.3 * x + u[1:] + u[:-1], x=x)
        f = fit_wright_ma1(d)
        assert abs(f.rho) >= 0.99
        assert f.boundary

    def test_sigma_relation_invariant(self):
        rng = np.random.default_rng(8)
        d = ma1_diffs(rng, 60, omega=-0.2, sigma_eta=0.15, rho=0.4)
        f = fit_wright_ma1(d)
        assert f.sigma_u == pytest.approx(
            f.sigma_eta / math.sqrt(1 + f.rho**2), rel=1e-12
        )

    def test_mle_dominates_ols_point(self):
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            d = ma1_diffs(rng, 30, omega=-0.3, sigma_eta=0.1, rho=0.5)
            f = fit_wright_ma1(d)
            ols = fit_wright(d)
            ll_ols = dense_loglik(d, ols.omega, 0.0, ols.sigma_eta)
            assert f.loglik >= ll_ols - 1e-9

    def test_loglik_field_matches_evaluator(self):
        rng = np.random.default_rng(21)
        d = ma1_diffs(rng, 40, omega=-0.3, sigma_eta=0.1, rho=0.3)
        f = fit_wright_ma1(d)
        assert f.loglik == pytest.approx(
            dense_loglik(d, f.omega, f.rho, f.sigma_u), rel=1e-10
        )


class TestMa1ProfileAgainstDenseGls:
    def test_profiled_slope_and_scale_match_dense_solve(self):
        from expcurve.estimators import _innovation_profiles

        rng = np.random.default_rng(17)
        m, rho = 25, 0.35
        d = ma1_diffs(rng, m, omega=-0.4, sigma_eta=0.12, rho=rho)
        ll, omega, su2 = _innovation_profiles(d.y[None], d.x[None], np.array([rho]), np.array([m]))
        # oracle: explicit generalized least squares with the dense covariance
        cov = ma1_covariance(m, rho)
        ci_x = np.linalg.solve(cov, d.x)
        omega_gls = (ci_x @ d.y) / (ci_x @ d.x)
        resid = d.y - omega_gls * d.x
        su2_gls = (resid @ np.linalg.solve(cov, resid)) / m
        sign, logdet = np.linalg.slogdet(cov)
        ll_gls = -0.5 * (m * math.log(2 * math.pi * su2_gls) + logdet + m)
        assert omega[0, 0] == pytest.approx(omega_gls, rel=1e-11)
        assert su2[0, 0] == pytest.approx(su2_gls, rel=1e-11)
        assert ll[0, 0] == pytest.approx(ll_gls, rel=1e-11)

    def test_optimum_not_beaten_by_scipy(self):
        from scipy.optimize import minimize_scalar

        from expcurve.estimators import _innovation_profiles

        for seed in range(4):
            rng = np.random.default_rng(60 + seed)
            d = ma1_diffs(rng, 80, omega=-0.3, sigma_eta=0.1, rho=0.45)
            f = fit_wright_ma1(d)

            def nll(rho):
                ll, _, _ = _innovation_profiles(
                    d.y[None], d.x[None], np.array([rho]), np.array([d.m])
                )
                return -float(ll[0, 0])

            res = minimize_scalar(nll, bounds=(-1, 1), method="bounded",
                                  options={"xatol": 1e-10})
            assert f.loglik >= -res.fun - 1e-8


class TestMa1Loglik:
    def test_matches_dense_gaussian(self):
        # oracle: the whitened sums and log-determinant of the recursion are
        # the quadratic forms and log-determinant of the dense covariance
        from expcurve.estimators import _innovation_sums

        rng = np.random.default_rng(5)
        m, omega, rho, su = 7, -0.25, 0.45, 0.08
        d = ma1_diffs(rng, m, omega=omega, sigma_eta=su * math.sqrt(1 + rho**2), rho=rho)
        e = d.y - omega * d.x
        syy, sxy, sxx, logdet = _innovation_sums(e[None], d.x[None], np.array([[rho]]), np.array([m]))
        cov = ma1_covariance(m, rho)
        sign, dense_logdet = np.linalg.slogdet(cov)
        assert syy.item() == pytest.approx(e @ np.linalg.solve(cov, e), rel=1e-12)
        assert sxy.item() == pytest.approx(d.x @ np.linalg.solve(cov, e), rel=1e-12)
        assert sxx.item() == pytest.approx(d.x @ np.linalg.solve(cov, d.x), rel=1e-12)
        assert logdet.item() == pytest.approx(dense_logdet, rel=1e-12)
        # and assembled at the scale su, the Gaussian density
        ll = -0.5 * (m * math.log(2 * math.pi * su**2) + logdet.item() + syy.item() / su**2)
        assert ll == pytest.approx(dense_loglik(d, omega, rho, su), rel=1e-12)


@st.composite
def ma1_batches(draw):
    """Series of mixed window length and MA(1) coefficient, and a row order."""
    specs = draw(
        st.lists(
            st.tuples(st.integers(4, 80), st.floats(-0.95, 0.999), st.integers(0, 10_000)),
            min_size=1,
            max_size=6,
        )
    )
    batch = [
        ma1_diffs(np.random.default_rng(seed), m, omega=-0.3, sigma_eta=0.1, rho=rho)
        for m, rho, seed in specs
    ]
    return batch, draw(st.permutations(range(len(batch))))


class TestFitWrightMa1Batch:
    @settings(max_examples=25, deadline=None)
    @given(ma1_batches())
    def test_batch_equals_single_fits_in_any_order(self, case):
        # WrightParams compares every field with ==, so equal means
        # bit-identical floats
        batch, order = case
        alone = [fit_wright_ma1(d) for d in batch]
        assert all(isinstance(f, WrightParams) for f in alone)
        assert fit_wright_ma1(batch) == alone
        assert fit_wright_ma1([batch[i] for i in order]) == [alone[i] for i in order]

    def test_batched_profiles_equal_one_dimensional_calls(self):
        from expcurve.estimators import _innovation_profiles

        rng = np.random.default_rng(9)
        lengths = np.array([31, 31, 17, 6, 4])
        rows = [ma1_diffs(rng, m, omega=-0.3, sigma_eta=0.1, rho=0.5) for m in lengths]
        y = np.zeros((len(rows), lengths[0]))
        x = np.zeros_like(y)
        for i, d in enumerate(rows):
            y[i, : d.m], x[i, : d.m] = d.y, d.x
        rhos = rng.uniform(-1, 1, (len(rows), 7))
        batched = _innovation_profiles(y, x, rhos, lengths)
        for i, d in enumerate(rows):
            single = _innovation_profiles(d.y[None], d.x[None], rhos[i], np.array([d.m]))
            for got, want in zip(batched, single):
                assert np.array_equal(got[i], want[0])
        with pytest.raises(ValueError, match="non-increasing"):
            _innovation_profiles(y[::-1], x[::-1], rhos, lengths[::-1])

    def test_degenerate_series_in_batch_raises(self):
        rng = np.random.default_rng(2)
        good = [ma1_diffs(rng, m, omega=-0.3, sigma_eta=0.1, rho=0.2) for m in (12, 30)]
        # positive experience changes whose squares underflow to zero: the
        # regressor is numerically all zero
        flat = DiffSeries(y=rng.normal(0, 0.1, 20), x=np.full(20, 1e-170))
        with pytest.raises(ValueError, match="degenerate regressor"):
            fit_wright_ma1([good[0], flat, good[1]])

    def test_short_series_in_batch_raises(self):
        rng = np.random.default_rng(2)
        batch = [ma1_diffs(rng, m, omega=-0.3, sigma_eta=0.1, rho=0.2) for m in (12, 3)]
        with pytest.raises(ValueError, match="at least 4 differences.*got 3"):
            fit_wright_ma1(batch)

    def test_tiny_max_iter_raises(self, monkeypatch):
        from expcurve import estimators

        rng = np.random.default_rng(2)
        batch = [ma1_diffs(rng, m, omega=-0.3, sigma_eta=0.1, rho=0.2) for m in (12, 30)]
        monkeypatch.setattr(estimators, "_MAX_ITER", 3)
        for arg in (batch, batch[0]):
            with pytest.raises(RuntimeError, match="did not converge; best rho so far"):
                fit_wright_ma1(arg)
        monkeypatch.setattr(estimators, "_MAX_ITER", 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            fit_wright_ma1(batch)

    def test_empty_sequence(self):
        assert fit_wright_ma1([]) == []

    def test_full_sample_estimates_one_row_per_series(self):
        from expcurve import SurrogateSpec, growth_stats, make_dataset
        from expcurve.params_io import PARAM_COLUMNS

        # repeated lengths share one matrix; lengths above 8 and 128 cross
        # NumPy's pairwise-summation blocks
        T = np.array([200, 4, 9, 130, 12, 5, 9, 30, 200])
        ds = make_dataset(SurrogateSpec(n_tech=len(T), T=T, seed=3, n_ensembles=1), 0)
        table = full_sample_estimates(ds)
        assert table.dtype.names == PARAM_COLUMNS
        assert table["technology"].tolist() == [ts.name for ts in ds]
        assert table["T"].tolist() == T.tolist()
        for ts, row in zip(ds, table):
            d = ts.diffs()
            gs, w, mo = growth_stats(ts), fit_wright(d), fit_moore(d)
            # T=4 leaves 3 differences, too few for the MA(1) fit
            rho = fit_wright_ma1(d).rho if ts.T > 4 else math.nan
            want = [mo.mu, mo.K, gs.g, gs.sigma_q, gs.r, gs.sigma_x, w.omega, w.sigma_eta, rho]
            got = [row[c] for c in PARAM_COLUMNS[2:]]
            bits = [np.array(v, dtype=float).view(np.uint64) for v in (got, want)]
            assert_array_equal(*bits)



class TestPoolRho:
    def test_simple_rule(self):
        rho_star, excl = pool_rho([0.2, 0.2, 1.0])
        assert rho_star == pytest.approx(0.2, abs=1e-15)
        assert excl == 1

    def test_single_entry(self):
        assert pool_rho([0.5]) == (0.5, 0)

    def test_all_excluded(self):
        with pytest.raises(ValueError, match="excluded"):
            pool_rho([1.0, -1.0])

    def test_reference_table(self):
        table = load_reference_params()
        assert len(table) == 51
        # the paper's 0.19; no row is exactly at +-0.99
        assert pool_rho(table["rho"]) == (0.19376190476190472, 9)

    def test_empty_column(self):
        with pytest.raises(ValueError, match="column is empty"):
            pool_rho([])

    def test_excludes_what_the_fit_flags(self):
        # 0.99 is a boundary estimate for fit_wright_ma1, so pooling drops it
        assert pool_rho([0.99, 0.1]) == (0.1, 1)
        assert pool_rho([-0.99, 0.1, math.nan]) == (0.1, 2)
        fits = [
            WrightParams(omega=-1, sigma_eta=0.1, m=5, rho=rho, sigma_u=0.1, boundary=flagged)
            for rho, flagged in ((0.99, True), (0.3, False))
        ]
        kept = [p.rho for p in fits if not p.boundary]
        assert pool_rho([p.rho for p in fits]) == (float(np.mean(kept)), 1)


@pytest.mark.parametrize("call, message", [
    # positive changes whose squares underflow to 0
    (lambda: fit_wright(DiffSeries(y=[0.1, 0.2], x=[1e-200, 1e-200])), "^degenerate regressor"),
    (lambda: fit_moore(DiffSeries(y=[0.1], x=[0.1])), "^need at least 2 differences, got 1$"),
], ids=["wright-underflow", "moore-short"])
def test_window_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
