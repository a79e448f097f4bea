import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expcurve import (
    DataError,
    DiffSeries,
    MooreParams,
    SurrogateSpec,
    WrightParams,
    compare_forecasts,
    constant_growth_series,
    fit_moore,
    fit_wright,
    forecast_moore,
    forecast_wright,
    load_reference_params,
    ma1_variance_approx,
    ma1_variance_constant_x,
    make_dataset,
    wright_ma1_variance,
)


def pv_row():
    return next(r for r in load_reference_params() if r["technology"] == "Photovoltaics")


def pv_setup(T=None):
    row = pv_row()
    T = row["T"] if T is None else T
    series = constant_growth_series("pv", T=T, r=row["r"], mu=row["mu"])
    w = WrightParams(omega=row["omega"], sigma_eta=row["sigma_eta"], m=T - 1)
    mo = MooreParams(mu=row["mu"], K=row["K"], m=T - 1)
    return row, series, w, mo


class TestConstantGrowthSeries:
    def test_exact_growth_and_accumulation(self):
        ts = constant_growth_series("c", T=12, r=0.2, mu=-0.1)
        d = ts.diffs()
        assert_allclose(d.x, 0.2, rtol=1e-12)
        assert_allclose(d.y, -0.1, rtol=1e-12)
        assert_allclose(np.diff(ts.experience), ts.production[:-1], rtol=1e-12)

    def test_anchoring(self):
        ts = constant_growth_series("c", T=8, r=0.1, mu=-0.05)
        assert ts.years.tolist() == list(range(1, 9))
        assert ts.log_cost[-1] == 0.0

    # each value is refused by name before any arithmetic reads it, so no
    # NumPy warning comes first; T, then mu, then r
    @pytest.mark.parametrize("T, mu, r, message", [
        (2, math.nan, 0.0, "T is 2, not at least 3"),
        (41, math.nan, -1.0, "mu is nan, not finite"),
        (41, math.inf, 0.318, "mu is inf, not finite"),
        (41, -math.inf, 0.318, "mu is -inf, not finite"),
        (41, -0.121, math.nan, "r is nan, not finite and positive"),
        (41, -0.121, math.inf, "r is inf, not finite and positive"),
        (41, -0.121, -math.inf, "r is -inf, not finite and positive"),
        (41, -0.121, 0.0, "r is 0.0, not finite and positive"),
    ])
    def test_bad_parameter_is_refused_by_name(self, T, mu, r, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^Photovoltaics: {message}$"):
                constant_growth_series("Photovoltaics", T=T, r=r, mu=mu)

    # Photovoltaics' row (T = 41) with one value raised until a level
    # overflows: r = 1000 overflows exp(r) itself, r = 20 the later
    # production and experience, and mu = -1000 the early costs
    @pytest.mark.parametrize("r, mu", [(1000.0, -0.121), (20.0, -0.121), (0.318, -1000.0)])
    def test_overflow_is_one_data_error(self, r, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^Photovoltaics: constant growth .* overflows a float"):
                constant_growth_series("Photovoltaics", T=41, r=r, mu=mu)

    # Photovoltaics' row with a level that rounds to zero: mu = 1000 makes
    # the early costs exp(1000 (t - 40)) zero, and r = 1e-300 or 1e-17 makes
    # exp(r) - 1, and so every production value, zero
    @pytest.mark.parametrize("r, mu", [(0.318, 1000.0), (1e-300, -0.121), (1e-17, -0.121)])
    def test_underflow_is_one_data_error(self, r, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^Photovoltaics: constant growth .* underflows a float"):
                constant_growth_series("Photovoltaics", T=41, r=r, mu=mu)


def surrogate_series():
    """A synthetic series of 30 years whose experience growth varies."""
    series = make_dataset(SurrogateSpec(n_tech=1, T=30, seed=3, n_ensembles=1), 0)[0]
    assert np.ptp(np.diff(series.log_experience)) > 0.01
    return series


class TestForecastWright:
    def test_pv_slope(self):
        row, series, w, _ = pv_setup()
        fc = forecast_wright(series, w, horizons=10)
        slopes = np.diff(np.concatenate([[series.log_cost[-1]], fc.mean_log_cost]))
        assert_allclose(slopes, row["omega"] * row["r"], rtol=1e-12)
        assert slopes[0] == pytest.approx(-0.12084, abs=1e-10)

    def test_default_future_growth_is_past_mean(self):
        # a surrogate series' experience grows at a different rate each year,
        # so no single change, nor the mean of the fit's window, gives these
        # steps; the mean of all the past changes does
        series = surrogate_series()
        past_x = np.diff(series.log_experience)
        w = WrightParams(omega=-0.3, sigma_eta=0.1, m=10)
        fc = forecast_wright(series, w, horizons=5)
        steps = np.diff(np.concatenate([[series.log_cost[-1]], fc.mean_log_cost]))
        assert_allclose(steps, w.omega * past_x.mean(), rtol=1e-12)
        assert abs(past_x[-10:].mean() / past_x.mean() - 1) > 1e-3

    def test_noise_free_bands_collapse(self):
        _, series, _, _ = pv_setup()
        w0 = WrightParams(omega=-0.38, sigma_eta=0.0, m=series.T - 1)
        fc = forecast_wright(series, w0, horizons=6)
        lo, hi = fc.band(2.0)
        assert_allclose(lo, fc.mean_log_cost, atol=1e-15)
        assert_allclose(hi, fc.mean_log_cost, atol=1e-15)

    def test_horizon1_consistency_rho_zero(self):
        # with rho = 0 and constant past growth: sigma^2 * (1 + 1/m) exactly
        _, series, w, _ = pv_setup()
        fc = forecast_wright(series, w, horizons=3, rho_star=0.0)
        m = series.T - 1
        assert fc.var_exact[0] == pytest.approx(
            w.sigma_eta**2 * (1 + 1 / m), rel=1e-12
        )

    def test_variance_paths_match_formula_under_constant_x(self):
        row, series, w, _ = pv_setup(T=40)
        rho = 0.19
        fc = forecast_wright(series, w, horizons=12, rho_star=rho)
        m = 39
        su = w.sigma_eta / math.sqrt(1 + rho**2)
        for i, tau in enumerate(fc.horizons):
            assert fc.var_exact[i] == pytest.approx(
                ma1_variance_constant_x(su, rho, int(tau), m), rel=1e-12
            )
            assert fc.var_simple[i] == pytest.approx(
                ma1_variance_approx(w.sigma_eta, rho, int(tau), m), rel=1e-12
            )

    def test_variance_strictly_increasing(self):
        _, series, w, _ = pv_setup()
        fc = forecast_wright(series, w, horizons=12)
        assert np.all(np.diff(fc.var_exact) > 0)
        assert np.all(np.diff(fc.var_simple) > 0)
        # also under a slowing future growth path
        fut = 0.3 * 0.85 ** np.arange(12) + 0.02
        fc2 = forecast_wright(series, w, horizons=12, future_x_growth=fut)
        assert np.all(np.diff(fc2.var_exact) > 0)

    def test_band_nesting_and_level_coherence(self):
        _, series, w, _ = pv_setup()
        fc = forecast_wright(series, w, horizons=8)
        lo1, hi1 = fc.band(1.0)
        lo15, hi15 = fc.band(1.5)
        lo2, hi2 = fc.band(2.0)
        assert np.all(lo2 < lo15) and np.all(lo15 < lo1)
        assert np.all(hi1 < hi15) and np.all(hi15 < hi2)
        llo, lhi = fc.level_band(2.0)
        assert_allclose(llo, np.exp(lo2), rtol=1e-15)
        assert_allclose(lhi, np.exp(hi2), rtol=1e-15)

    def test_future_growth_series_accepted(self):
        _, series, w, _ = pv_setup()
        fut = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        fc = forecast_wright(series, w, horizons=5, future_x_growth=fut)
        assert_allclose(
            np.diff(fc.mean_log_cost), w.omega * fut[1:5], rtol=1e-12
        )
        with pytest.raises(ValueError, match="shorter"):
            forecast_wright(series, w, horizons=9, future_x_growth=fut)
        with pytest.raises(ValueError, match="positive"):
            forecast_wright(series, w, horizons=2, future_x_growth=[0.1, -0.2])


class TestNonFiniteInputs:
    """NaN and infinite inputs raise instead of reaching the forecast; NaN
    fails every order comparison, so each check tests for what is valid."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_future_growth(self, bad):
        _, series, w, _ = pv_setup()
        for growth in (bad, [0.1, bad, 0.2]):
            with pytest.raises(ValueError, match="^future experience growth must be positive and finite"):
                forecast_wright(series, w, horizons=3, future_x_growth=growth)

    def test_growth_past_the_horizon_is_not_read(self):
        _, series, w, _ = pv_setup()
        fc = forecast_wright(series, w, horizons=2, future_x_growth=[0.1, 0.2, math.nan])
        assert np.all(np.isfinite(fc.mean_log_cost)) and np.all(np.isfinite(fc.var_exact))

    # a non-finite parameter or MA(1) coefficient is refused by name
    @pytest.mark.parametrize("bad", BAD)
    def test_wright_parameters(self, bad):
        _, series, w, _ = pv_setup()
        for name, need in (("sigma_eta", "finite and non-negative"), ("omega", "finite")):
            with pytest.raises(DataError, match=f"^pv: {name} is {bad}, not {need}$"):
                forecast_wright(series, replace(w, **{name: bad}), horizons=3)
        with pytest.raises(ValueError, match=r"^rho_star must lie in \[-1, 1\], got "):
            forecast_wright(series, w, horizons=3, rho_star=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_moore_parameters(self, bad):
        _, series, _, mo = pv_setup()
        for name, need in (("K", "finite and non-negative"), ("mu", "finite")):
            with pytest.raises(DataError, match=f"^pv: {name} is {bad}, not {need}$"):
                forecast_moore(series, replace(mo, **{name: bad}), horizons=3)
        with pytest.raises(ValueError, match=r"^theta_star must lie in \[-1, 1\], got "):
            forecast_moore(series, mo, horizons=3, theta_star=bad)


class TestForecastMoore:
    def test_pv_drift(self):
        row, series, _, mo = pv_setup()
        fc = forecast_moore(series, mo, horizons=10)
        assert_allclose(np.diff(fc.mean_log_cost), row["mu"], rtol=1e-12)

    def test_degenerate_point_path(self):
        _, series, _, _ = pv_setup()
        fc = forecast_moore(series, MooreParams(mu=-0.1, K=0.0, m=40), horizons=4, theta_star=0.0)
        assert_allclose(fc.var_exact, 0.0, atol=1e-18)
        lo, hi = fc.band(2.0)
        assert_allclose(lo, hi, atol=1e-15)

    def test_variance_is_constant_growth_ma1(self):
        _, series, _, mo = pv_setup()
        theta = 0.23
        fc = forecast_moore(series, mo, horizons=6, theta_star=theta)
        sv = mo.K / math.sqrt(1 + theta**2)
        m = series.T - 1
        for i, tau in enumerate(fc.horizons):
            assert fc.var_exact[i] == pytest.approx(
                ma1_variance_constant_x(sv, theta, int(tau), m), rel=1e-12
            )


class TestFitWindow:
    """A forecast takes its window from the fit's ``m``, not from the
    length of the series it is anchored on."""

    def test_moore_variances_at_the_fit_window(self):
        _, series, _, mo = pv_setup()
        theta = 0.19
        fc = forecast_moore(series, replace(mo, m=10), horizons=12, theta_star=theta)
        sv = mo.K / math.sqrt(1 + theta**2)
        assert_allclose(fc.var_exact, ma1_variance_constant_x(sv, theta, fc.horizons, 10), rtol=1e-12)
        assert_allclose(fc.var_simple, ma1_variance_approx(mo.K, theta, fc.horizons, 10), rtol=1e-12)

    def test_wright_variances_at_the_fit_window(self):
        _, series, w, _ = pv_setup()
        rho = 0.19
        fc = forecast_wright(series, replace(w, m=10), horizons=12, rho_star=rho)
        su = w.sigma_eta / math.sqrt(1 + rho**2)
        past_x = np.diff(series.log_experience)
        future = np.full(12, past_x.mean())
        exact = [wright_ma1_variance(su, rho, past_x[-10:], future[:tau]) for tau in fc.horizons]
        assert_allclose(fc.var_exact, exact, rtol=1e-12)
        assert_allclose(fc.var_simple, ma1_variance_approx(w.sigma_eta, rho, fc.horizons, 10), rtol=1e-12)
        # A(10) at m = 10 is 20, where the whole series' m = 40 gives 12.5
        factor = w.sigma_eta**2 * (1 + rho) ** 2 / (1 + rho**2)
        assert fc.var_simple[9] == pytest.approx(factor * 20, rel=1e-12)

    def test_wright_exact_variance_reads_the_last_m_changes(self):
        series = surrogate_series()
        rho = 0.19
        fut = np.array([0.3, 0.25, 0.2, 0.15])
        fc = forecast_wright(series, WrightParams(omega=-0.3, sigma_eta=0.1, m=10), 4, fut, rho)
        su = 0.1 / math.sqrt(1 + rho**2)
        past_x = np.diff(series.log_experience)
        exact = [wright_ma1_variance(su, rho, past_x[-10:], fut[:tau]) for tau in fc.horizons]
        assert_allclose(fc.var_exact, exact, rtol=1e-12)
        first = wright_ma1_variance(su, rho, past_x[:10], fut)
        assert abs(first / fc.var_exact[-1] - 1) > 1e-3

    @pytest.mark.parametrize("m", [0, 41])
    def test_window_outside_the_series_rejected(self, m):
        _, series, w, mo = pv_setup()
        message = rf"^pv: window m={m} is not in \[1, 40\]$"
        with pytest.raises(ValueError, match=message):
            forecast_wright(series, replace(w, m=m), horizons=3)
        with pytest.raises(ValueError, match=message):
            forecast_moore(series, replace(mo, m=m), horizons=3)


class TestCompare:
    def test_identical_inputs_zero_diff(self):
        _, series, w, _ = pv_setup()
        fa = forecast_wright(series, w, horizons=6)
        rows = compare_forecasts(fa, fa)
        assert_allclose(rows[:, 1], 0.0, atol=1e-15)
        assert_allclose(rows[:, 2], 1.0, rtol=1e-15)

    def test_pv_mean_paths_close(self):
        row, series, w, mo = pv_setup()
        fw = forecast_wright(series, w, horizons=12)
        fm = forecast_moore(series, mo, horizons=12)
        rows = compare_forecasts(fw, fm)
        gap = abs(row["omega"] * row["r"] - row["mu"])
        assert gap <= 0.0005
        for t, diff, _ in rows:
            assert abs(diff) <= gap * t + 1e-12

    def test_pv_wright_bands_narrower(self):
        # sigma_eta = 0.145 < K = 0.153 with matching MA factors
        _, series, w, mo = pv_setup()
        fw = forecast_wright(series, w, horizons=12, rho_star=0.19)
        fm = forecast_moore(series, mo, horizons=12, theta_star=0.19)
        rows = compare_forecasts(fw, fm)
        assert np.all(rows[:, 2] < 1.0)

    def test_width_ratio_constant_under_approx(self):
        _, series, w, mo = pv_setup()
        theta = rho = 0.19
        ratios = np.sqrt(
            np.asarray(ma1_variance_approx(w.sigma_eta, rho, np.arange(1, 13), 40))
            / np.asarray(ma1_variance_approx(mo.K, theta, np.arange(1, 13), 40))
        )
        assert_allclose(ratios, w.sigma_eta / mo.K, rtol=1e-12)

    def test_zero_variance_ratios_without_warning(self):
        _, series, w, mo = pv_setup()
        flat_moore = forecast_moore(series, replace(mo, K=0.0), horizons=4)
        flat_wright = forecast_wright(series, replace(w, sigma_eta=0.0), horizons=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            only_b = compare_forecasts(forecast_wright(series, w, horizons=4), flat_moore)
            both = compare_forecasts(flat_wright, flat_moore)
        assert np.all(only_b[:, 2] == math.inf)
        assert np.all(np.isnan(both[:, 2]))

    def test_mismatched_grids_rejected(self):
        _, series, w, mo = pv_setup()
        fa = forecast_wright(series, w, horizons=6)
        fb = forecast_moore(series, mo, horizons=7)
        with pytest.raises(ValueError, match="grids"):
            compare_forecasts(fa, fb)


class TestSahalForecastEquivalence:
    def test_identical_mean_paths_on_constant_window(self):
        ts = constant_growth_series("c", T=20, r=0.15, mu=-0.07)
        rng = np.random.default_rng(5)
        noisy_y = -0.5 * np.full(19, 0.15) + rng.normal(0, 0.05, 19)
        d = DiffSeries(y=noisy_y, x=np.full(19, 0.15))
        w = fit_wright(d)
        mo = fit_moore(d)
        # rebuild a series whose past x is constant and anchor both forecasts on it
        fw = forecast_wright(ts, w, horizons=8, future_x_growth=0.15)
        fm = forecast_moore(ts, MooreParams(mu=mo.mu, K=mo.K, m=19), horizons=8)
        assert_allclose(fw.mean_log_cost, fm.mean_log_cost, rtol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda s, w, mo: forecast_wright(s, w, horizons=0), "^need at least one horizon$"),
    (lambda s, w, mo: forecast_moore(s, mo, horizons=0), "^need at least one horizon$"),
    (lambda s, w, mo: forecast_wright(s, w, 3, rho_star=-1.01),
     r"^rho_star must lie in \[-1, 1\], got -1.01$"),
    (lambda s, w, mo: forecast_moore(s, mo, 3, theta_star=2.0),
     r"^theta_star must lie in \[-1, 1\], got 2.0$"),
    # a 20-year constant-growth series, with its moore fit, ends 21 years earlier
    (lambda s, w, mo: compare_forecasts(forecast_wright(s, w, 3), forecast_moore(
        *pv_setup(T=20)[1::2], 3)), "^forecasts anchored at different base years$"),
], ids=["wright-horizons", "moore-horizons", "rho-star", "theta-star", "base-years"])
def test_forecast_checks(call, message):
    _, series, w, mo = pv_setup()
    with pytest.raises(ValueError, match=message):
        call(series, w, mo)
