import csv
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from expcurve import (
    DiffSeries,
    HindcastConfig,
    HindcastError,
    HindcastTable,
    SeriesTable,
    SurrogateSpec,
    TechSeries,
    fit_moore,
    fit_wright,
    ma1_variance_constant_x,
    make_dataset,
    mse_by_horizon,
    pooled_errors,
    read_errors_csv,
    run_calibration_study,
    run_hindcast,
    wright_ma1_variance,
    write_errors_csv,
)
from expcurve import hindcast
from expcurve.hindcast import ERROR_COLUMNS, _model_slice, mse_curve, read_error_columns
from expcurve.surrogate import _CALIBRATION_SPEC


def surrogate(n_tech=1, T=20, seed=0, **kw):
    spec = SurrogateSpec(n_tech=n_tech, T=T, seed=seed, n_ensembles=1, **kw)
    return make_dataset(spec, 0)


class TestConfig:
    def test_defaults(self):
        cfg = HindcastConfig()
        assert (cfg.m, cfg.tau_max, cfg.rho) == (5, 20, 0.19)

    def test_validation(self):
        with pytest.raises(ValueError):
            HindcastConfig(m=1)
        with pytest.raises(ValueError):
            HindcastConfig(tau_max=0)
        HindcastConfig(tau_max=None)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"m": 5.0}, "m"), ({"m": 5, "tau_max": 2.5}, "tau_max"), ({"tau_max": 20.0}, "tau_max"),
         ({"rho": 1.5}, "rho"), ({"rho": -1.01}, "rho"), ({"rho": math.nan}, "rho")],
    )
    def test_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            HindcastConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = HindcastConfig(m=np.int64(5), tau_max=np.int64(4), rho=np.float64(-1.0))
        assert len(run_hindcast(surrogate(T=12), cfg)) > 0


class TestBookkeeping:
    def test_minimal_series_single_error(self):
        errs = run_hindcast(surrogate(T=7), HindcastConfig(m=5))
        assert len(errs) == 2
        assert {e.model for e in errs} == {"moore", "wright"}
        assert all(e.tau == 1 for e in errs)

    def test_count_formula_t10(self):
        errs = run_hindcast(surrogate(T=10), HindcastConfig(m=5, tau_max=20))
        assert sum(1 for e in errs if e.model == "moore") == 10
        assert sum(1 for e in errs if e.model == "wright") == 10

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            T = int(rng.integers(8, 40))
            m = int(rng.integers(2, min(T - 2, 10) + 1))
            tau_max = int(rng.integers(1, 30))
            errs = run_hindcast(
                surrogate(T=T, seed=int(rng.integers(10_000))),
                HindcastConfig(m=m, tau_max=tau_max),
            )
            expect = sum(min(tau_max, T - t) for t in range(m + 1, T))
            assert sum(1 for e in errs if e.model == "wright") == expect

    def test_too_short_series_skipped_with_notice(self, tmp_path):
        ds = surrogate(n_tech=3, T=6)
        with pytest.warns(UserWarning, match="too short") as record:
            errs = run_hindcast(ds, HindcastConfig(m=5))
        assert [str(w.message) for w in record] == [
            f"tech00{i}: too short for m=5 (T=6); skipped" for i in range(3)
        ]
        assert len(errs) == 0
        assert errs == HindcastTable(**{n: () for n in hindcast._FIELDS})
        write_errors_csv(tmp_path / "errors.csv", errs)
        assert (tmp_path / "errors.csv").read_bytes() == (",".join(ERROR_COLUMNS) + "\r\n").encode()

    def test_deterministic_order_and_threads(self):
        ds = surrogate(n_tech=4, T=15, seed=3)
        cfg = HindcastConfig(m=4, tau_max=6)
        a = run_hindcast(ds, cfg)
        b = run_hindcast(ds, cfg)
        assert a == b
        keys = [(e.technology, e.origin_year, e.tau, e.model) for e in a]
        assert keys == sorted(keys)


class TestForecastsAndEstimates:
    def test_window_estimates_match_fitters(self):
        ds = surrogate(T=16, seed=8)
        ts = ds[0]
        m = 5
        errs = run_hindcast(ds, HindcastConfig(m=m, tau_max=3))
        d = ts.diffs()
        for e in errs:
            o = e.origin_year - ts.years[0]
            win = DiffSeries(y=d.y[o - m:o], x=d.x[o - m:o])
            assert e.K_hat == pytest.approx(fit_moore(win).K, rel=1e-12)
            assert e.sigma_eta_hat == pytest.approx(fit_wright(win).sigma_eta, rel=1e-12)

    def test_point_forecasts(self):
        ds = surrogate(T=12, seed=5)
        ts = ds[0]
        m = 5
        errs = run_hindcast(ds, HindcastConfig(m=m, tau_max=4))
        y = ts.log_cost
        x = ts.log_experience
        d = ts.diffs()
        for e in errs:
            o = e.origin_year - ts.years[0]
            win_x, win_y = d.x[o - m:o], d.y[o - m:o]
            if e.model == "wright":
                om = (win_x @ win_y) / (win_x @ win_x)
                yhat = y[o] + om * (x[o + e.tau] - x[o])
            else:
                yhat = y[o] + win_y.mean() * e.tau
            assert e.raw_error == pytest.approx(y[o + e.tau] - yhat, abs=1e-12)

    def test_window_purity_pre_window_corruption(self):
        # corrupting observations before a window must not change its errors
        ds = surrogate(T=18, seed=2)
        ts = ds[0]
        cfg = HindcastConfig(m=5, tau_max=4)
        before = {
            (e.origin_year, e.tau, e.model): e.raw_error
            for e in run_hindcast(SeriesTable.from_series([ts]), cfg)
        }
        cost = np.array(ts.cost)
        cost[:3] *= 31.7  # touches only years before origin index >= 8 windows
        corrupted = TechSeries(ts.name, ts.years, cost, ts.production, ts.experience)
        after = run_hindcast(SeriesTable.from_series([corrupted]), cfg)
        for e in after:
            if e.origin_year - ts.years[0] - cfg.m >= 3:
                assert e.raw_error == pytest.approx(
                    before[(e.origin_year, e.tau, e.model)], abs=1e-12
                )

    def test_error_decomposition_identity(self):
        # raw error = (omega - omega_hat) * sum(future x) + sum(future eta)
        omega = -0.5
        ds = surrogate(T=20, sigma_eta=0.08, omega=omega, rho=0.0, seed=9)
        ts = ds[0]
        d = ts.diffs()
        eta = d.y - omega * d.x
        m = 6
        errs = run_hindcast(ds, HindcastConfig(m=m, tau_max=4))
        for e in errs:
            if e.model != "wright":
                continue
            o = e.origin_year - ts.years[0]
            xw, yw = d.x[o - m:o], d.y[o - m:o]
            om_hat = (xw @ yw) / (xw @ xw)
            decomposed = (omega - om_hat) * d.x[o:o + e.tau].sum() + eta[o:o + e.tau].sum()
            assert e.raw_error == pytest.approx(decomposed, abs=1e-10)

    def test_noise_free_wright_zero_errors(self):
        ds = surrogate(T=14, sigma_eta=0.0, omega=-0.3, seed=4)
        errs = run_hindcast(ds, HindcastConfig(m=5))
        for e in errs:
            if e.model == "wright":
                assert abs(e.raw_error) < 1e-12

    def test_variance_fields_match_formulas(self):
        # The calibration study divides each experience-curve error by the
        # realized-experience MA(1) standard deviation of its window and
        # horizon, at the estimated or the true innovation scale.
        m, n_tech, periods, seed = 5, 3, 14, 10
        spec = dataclasses.replace(_CALIBRATION_SPEC, n_tech=n_tech, T=periods, seed=seed)
        ds = make_dataset(spec, 0)
        rho = spec.rho
        errs = run_hindcast(ds, HindcastConfig(m=m, tau_max=None, rho=rho))
        wright = [e for e in errs if e.model == "wright"]
        series = {ts.name: (ts.diffs().x, ts.years[0]) for ts in ds}
        for variance in ("estimated", "true"):
            res = run_calibration_study(m=m, variance=variance, n_tech=n_tech, periods=periods, seed=seed)
            assert len(res.normalized) == len(wright)
            for e, norm in zip(wright, res.normalized):
                x, first_year = series[e.technology]
                o = e.origin_year - first_year
                scale = e.sigma_eta_hat if variance == "estimated" else spec.sigma_eta
                su = scale / math.sqrt(1 + rho**2)
                expect = e.raw_error / math.sqrt(wright_ma1_variance(su, rho, x[o - m:o], x[o:o + e.tau]))
                assert norm == pytest.approx(expect, rel=1e-12)

    def test_sign_agreement_near_constant_x(self):
        # with smooth experience the two models err nearly identically
        ds = surrogate(n_tech=5, T=40, g=0.1, sigma_q=0.02, omega=-0.3, sigma_eta=0.1, seed=6)
        errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=10))
        pair: dict = {}
        for e in errs:
            pair.setdefault((e.technology, e.origin_year, e.tau), {})[e.model] = e.raw_error
        both = np.array([[v["moore"], v["wright"]] for v in pair.values() if len(v) == 2])
        corr = np.corrcoef(both[:, 0], both[:, 1])[0, 1]
        assert corr > 0.9


class TestNormalizationFields:
    def test_pooled_hand_value(self):
        # single error with E=0.2, K_hat=0.1, tau=1, m=5 pools to 2/sqrt(1.2)
        assert 0.2 / 0.1 / math.sqrt(1.2) == pytest.approx(1.8257, abs=1e-4)
        ds = surrogate(T=7, seed=1)
        errs = run_hindcast(ds, HindcastConfig(m=5, rho=0.0))
        e = [x for x in errs if x.model == "moore"][0]
        assert e.pooled_error == pytest.approx(
            e.raw_error / (e.K_hat * math.sqrt(e.A)), rel=1e-12
        )

    def test_wright_pooling_rho_zero_reduction(self):
        ds = surrogate(T=12, seed=13)
        errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=4, rho=0.0))
        for e in errs:
            if e.model == "wright":
                assert e.pooled_error == pytest.approx(
                    e.raw_error / (e.sigma_eta_hat * math.sqrt(e.A)), rel=1e-12
                )

    def test_pooled_errors_recompute_matches_fields(self):
        ds = surrogate(n_tech=2, T=14, seed=3)
        cfg = HindcastConfig(m=5, tau_max=6, rho=0.19)
        errs = run_hindcast(ds, cfg)
        recomputed = pooled_errors(errs, cfg)
        assert_allclose(recomputed, [e.pooled_error for e in errs], rtol=1e-12)

    def test_pooled_errors_match_the_column(self):
        # one pooling kernel: moore rows agree bit for bit, and wright rows
        # differ only by the two sigma_u formulas, in the last bits (ROADMAP
        # item 4 makes them one, and this check bit-equality)
        cfg = HindcastConfig(m=5, tau_max=None, rho=0.19)
        errs = run_hindcast(surrogate(n_tech=8, T=30, seed=2), cfg)
        recomputed = pooled_errors(errs, cfg)
        moore = _model_slice(errs.model, "moore")
        assert_array_equal(recomputed[moore], errs.pooled_error[moore])
        wright = _model_slice(errs.model, "wright")
        assert_allclose(recomputed[wright], errs.pooled_error[wright], rtol=2e-15)

    def test_pooled_errors_alternative_rho(self):
        ds = surrogate(T=14, seed=3)
        errs = run_hindcast(ds, HindcastConfig(m=5, rho=0.19))
        alt = pooled_errors(errs, HindcastConfig(m=5, rho=0.5))
        for val, e in zip(alt, errs):
            if e.model == "wright":
                su = e.sigma_eta_hat / math.sqrt(1.25)
                m = round(e.tau**2 / (e.A - e.tau))
                assert val == pytest.approx(
                    e.raw_error / math.sqrt(ma1_variance_constant_x(su, 0.5, e.tau, m)),
                    rel=1e-12,
                )

    def test_zero_scale_windows_kept_as_nan(self):
        T = 10
        cost = np.ones(T)  # constant cost: log diffs exactly zero, K_hat = 0
        q = 2.0 * 1.1 ** np.arange(T)
        ts = TechSeries("flat", np.arange(T), cost, q)
        from expcurve import build_experience

        with pytest.warns(UserWarning, match="zero residual scale"):
            dataset = build_experience(SeriesTable.from_series([ts]))
            errs = run_hindcast(dataset, HindcastConfig(m=5))
        assert len(errs) > 0
        assert all(math.isnan(e.normalized_error) for e in errs)
        assert all(e.raw_error == pytest.approx(0.0, abs=1e-12) for e in errs)
        assert np.isnan(errs.pooled_error).all()
        assert np.isnan(pooled_errors(errs, HindcastConfig(m=5))).all()


class TestMseByHorizon:
    def test_horizon_coverage(self):
        ds = surrogate(T=10, seed=0)
        errs = run_hindcast(ds, HindcastConfig(m=5))
        table = mse_by_horizon(errs[errs.model == "moore"], normalization="moore")
        assert set(table) == {1, 2, 3, 4}

    def test_hand_average(self):
        ds = surrogate(T=10, seed=0)
        errs = run_hindcast(ds, HindcastConfig(m=5))
        doctored = errs[(errs.model == "moore") & (errs.tau == 1)]
        doctored.normalized_error = np.where(np.arange(len(doctored)) % 2, 1.0, 3.0)
        table = mse_by_horizon(doctored)
        mean, count = table[1]
        assert count == len(doctored)
        assert mean == pytest.approx((9.0 + 1.0) * (count // 2) / count, rel=1e-12)

    def test_rejects_bad_args(self):
        ds = surrogate(T=8, seed=0)
        errs = run_hindcast(ds, HindcastConfig(m=5))
        with pytest.raises(ValueError):
            mse_by_horizon(errs[:0])
        with pytest.raises(ValueError):
            mse_by_horizon(errs, normalization="raw")



def table_curve(errs, tau_max):
    """The (model x horizon) mean squared normalized error read from an
    error table, ``nan`` where no error reaches a horizon."""
    by_model = [mse_by_horizon(errs[_model_slice(errs.model, model)]) for model in ("moore", "wright")]
    return np.array([[by_tau.get(tau, (np.nan,))[0] for tau in range(1, tau_max + 1)] for by_tau in by_model])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert_array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


class TestMseCurve:
    """``mse_curve`` reads the window gather, yet it equals the curve read
    from the full error table bit for bit."""

    def test_uniform_surrogate(self):
        ds = surrogate(n_tech=20, T=50, seed=11)
        cfg = HindcastConfig(m=5, tau_max=20)
        curve = mse_curve(ds, cfg)
        assert curve.shape == (2, 20) and np.all(np.isfinite(curve))
        assert_same_bits(curve, table_curve(run_hindcast(ds, cfg), 20))

    def test_mixed_lengths_skip_the_short_series(self):
        spec = SurrogateSpec(n_tech=4, T=np.array([5, 12, 30, 50]), rho=0.3, seed=4, n_ensembles=1)
        ds = make_dataset(spec, 0)
        cfg = HindcastConfig(m=5, tau_max=20)
        with pytest.warns(UserWarning, match=r"tech000: too short for m=5 \(T=5\); skipped"):
            curve = mse_curve(ds, cfg)
        with pytest.warns(UserWarning, match=r"tech000: too short for m=5 \(T=5\); skipped"):
            errs = run_hindcast(ds, cfg)
        assert_same_bits(curve, table_curve(errs, 20))

    def test_zero_scale_windows_give_nan(self):
        T = 10
        ts = TechSeries("flat", np.arange(T), np.ones(T), 2.0 * 1.1 ** np.arange(T))
        from expcurve import build_experience

        cfg = HindcastConfig(m=5)
        with pytest.warns(UserWarning, match="zero residual scale"):
            dataset = build_experience(SeriesTable.from_series([ts]))
            curve = mse_curve(dataset, cfg)
        with pytest.warns(UserWarning, match="zero residual scale"):
            errs = run_hindcast(dataset, cfg)
        assert np.all(np.isnan(curve))
        assert_same_bits(curve, table_curve(errs, 20))

    def test_horizons_past_the_longest_reach(self):
        ds = surrogate(n_tech=3, T=12, seed=6)
        cfg = HindcastConfig(m=5, tau_max=20)
        curve = mse_curve(ds, cfg)
        # the longest series reaches T - 1 - m = 6 horizons
        assert np.all(np.isfinite(curve[:, :6])) and np.all(np.isnan(curve[:, 6:]))
        assert_same_bits(curve, table_curve(run_hindcast(ds, cfg), 20))

    def test_no_series_long_enough(self):
        with pytest.warns(UserWarning, match="too short"):
            curve = mse_curve(surrogate(T=6), HindcastConfig(m=5, tau_max=3))
        assert curve.shape == (2, 3) and np.all(np.isnan(curve))
        # uncapped, the longest reach is no horizon at all
        with pytest.warns(UserWarning, match="too short"):
            curve = mse_curve(surrogate(T=6), HindcastConfig(m=5, tau_max=None))
        assert curve.shape == (2, 0)

    def test_uncapped_horizons(self):
        ds = surrogate(n_tech=2, T=15, seed=2)
        cfg = HindcastConfig(m=4, tau_max=None)
        curve = mse_curve(ds, cfg)
        assert curve.shape == (2, 10)
        assert_same_bits(curve, table_curve(run_hindcast(ds, cfg), 10))

class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = surrogate(n_tech=2, T=12, seed=9)
        errs = run_hindcast(ds, HindcastConfig(m=5, tau_max=4))
        path = tmp_path / "errors.csv"
        write_errors_csv(path, errs)
        back = read_errors_csv(path)
        assert len(back) == len(errs)
        for a, b in zip(errs, back):
            assert a.technology == b.technology
            assert a.origin_year == b.origin_year
            assert (a.tau, a.model) == (b.tau, b.model)
            assert a.raw_error == b.raw_error  # exact: 17 significant digits
            assert a.pooled_error == b.pooled_error
            assert a.A == b.A


class TestReadErrorColumns:
    """``read_error_columns`` is the one parse of an error CSV: any subset of
    its columns reads as the same columns of ``read_errors_csv``."""

    @pytest.fixture
    def path(self, tmp_path):
        # two window sizes in one file, as two hindcasts written one after the other
        ds = surrogate(n_tech=2, T=12, seed=9)
        parts = [run_hindcast(ds, HindcastConfig(m=m, tau_max=4)) for m in (4, 6)]
        both = {n: np.concatenate([getattr(p, n) for p in parts]) for n in (*ERROR_COLUMNS, "m")}
        path = tmp_path / "errors.csv"
        write_errors_csv(path, HindcastTable(**both))
        return path

    @pytest.mark.parametrize("names", [
        ERROR_COLUMNS,
        ("model", "tau", "A", "pooled_error"),
        ("pooled_error", "model"),
        ("technology", "normalized_error", "origin_year"),
        ("A",),
        (),
    ])
    def test_columns_equal_the_whole_table(self, path, names):
        whole = read_errors_csv(path)
        columns = read_error_columns(path, names)
        assert list(columns) == list(dict.fromkeys((*names, "tau", "A", "m")))
        assert sorted(set(columns["m"].tolist())) == [4, 6]
        for name, col in columns.items():
            want = getattr(whole, name)
            assert col.dtype == want.dtype and col.tobytes() == want.tobytes(), name

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cut.csv"
        path.write_text(",".join(c for c in ERROR_COLUMNS if c not in ("model", "A")) + "\n")
        with pytest.raises(ValueError, match=r"^error CSV missing column\(s\): model, A$"):
            read_error_columns(path, ("model", "tau", "A", "pooled_error"))
        # tau and A are read whether or not they are named
        with pytest.raises(ValueError, match=r"^error CSV missing column\(s\): A$"):
            read_error_columns(path, ("pooled_error",))

    def test_unread_columns_are_not_parsed(self, path, tmp_path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][ERROR_COLUMNS.index("K_hat")] = "oops"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        names = ("model", "pooled_error")
        got, want = read_error_columns(bad, names), read_error_columns(path, names)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)
        with pytest.raises(ValueError, match="'oops'.* at data row 3,"):
            read_errors_csv(bad)


# SHA-256 of errors.csv for surrogate(n_tech=3, T=20, seed=2016) at m=5,
# captured from the record-by-record engine that the columnar one replaced.
GOLDEN_ERRORS_CSV = {
    None: "1996d561f92b49754020602cc3e56429624b4f2a14d3696876d54fe79c8ca0e8",
    4: "31874de37fbb5d0178cbbf18288fa9e1b103bcf34331cc2f2a147726f707e9db",
}


# The same at T = 8, 13 and 21, captured from the per-series gather that the
# one-matrix gather replaced: windows and horizons near series boundaries.
GOLDEN_MIXED_ERRORS_CSV = {
    None: "433a6087f324ccadb587f7f095d4937730e8d9f0f20cfb01bb439e04967921f5",
    4: "9dce9c54d3c2751181a096571ff5c64658032893f434797adb947904c36c33b4",
}


def errors_csv_digest(path, dataset, tau_max):
    write_errors_csv(path, run_hindcast(dataset, HindcastConfig(m=5, tau_max=tau_max)))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("tau_max", [None, 4])
def test_errors_csv_golden_bytes(tmp_path, tau_max):
    ds = surrogate(n_tech=3, T=20, seed=2016)
    assert errors_csv_digest(tmp_path / "errors.csv", ds, tau_max) == GOLDEN_ERRORS_CSV[tau_max]


@pytest.mark.parametrize("tau_max", [None, 4])
def test_errors_csv_golden_bytes_mixed_lengths(tmp_path, tau_max):
    ds = surrogate(n_tech=3, T=np.array([8, 13, 21]), seed=2016)
    digest = errors_csv_digest(tmp_path / "errors.csv", ds, tau_max)
    assert digest == GOLDEN_MIXED_ERRORS_CSV[tau_max]


class TestTable:
    def test_rows_are_records(self):
        ds = surrogate(n_tech=2, T=9, seed=4)
        errs = run_hindcast(ds, HindcastConfig(m=4, tau_max=3))
        rows = list(errs)
        assert len(rows) == len(errs)
        assert all(type(r) is HindcastError for r in rows)
        assert errs[0] == rows[0] and errs[-1] == rows[-1]
        assert [errs[i] for i in range(len(errs))] == rows
        assert dataclasses.replace(errs[1], tau=99).tau == 99
        assert rows[0].m == 4 and rows[0].origin_year - ds[0].years[0] == 4

    def test_fields_are_the_csv_columns(self):
        assert [f.name for f in dataclasses.fields(HindcastError)] == [*ERROR_COLUMNS, "m"]

    def test_model_rows_are_strided_views(self):
        errs = run_hindcast(surrogate(n_tech=2, T=9, seed=4), HindcastConfig(m=4, tau_max=3))
        for model in ("moore", "wright"):
            rows = errs[_model_slice(errs.model, model)]
            assert rows == errs[errs.model == model]
            assert np.shares_memory(rows.raw_error, errs.raw_error)
        swapped = errs[np.r_[1, 0, 2:len(errs)]]
        for model in ("moore", "wright"):
            with pytest.raises(ValueError, match="every second row"):
                _model_slice(swapped.model, model)

    def test_sub_tables(self):
        errs = run_hindcast(surrogate(n_tech=2, T=9, seed=4), HindcastConfig(m=4, tau_max=3))
        moore = errs[errs.model == "moore"]
        assert isinstance(moore, HindcastTable)
        assert list(moore) == [e for e in errs if e.model == "moore"]
        assert list(errs[:3]) == list(errs)[:3]
        assert errs != errs[:3]

    def test_pooling_needs_window_size(self):
        # pooling reads every row's m, so a table cannot be made without it
        errs = run_hindcast(surrogate(T=9, seed=4), HindcastConfig(m=4))
        columns = {f.name: getattr(errs, f.name) for f in dataclasses.fields(HindcastError)}
        del columns["m"]
        with pytest.raises(TypeError, match="missing column 'm'"):
            HindcastTable(**columns)

    def test_window_size_below_two_rejected(self):
        errs = run_hindcast(surrogate(T=9, seed=4), HindcastConfig(m=4))
        columns = {f.name: getattr(errs, f.name) for f in dataclasses.fields(HindcastError)}
        for bad in (1, 0):
            m = errs.m.copy()
            m[3] = bad
            with pytest.raises(ValueError, match="^window size m must be at least 2$"):
                HindcastTable(**columns | {"m": m})


def _closed_form_count(T, m, tau_max):
    cap = T if tau_max is None else tau_max
    return sum(min(cap, T - t) for t in range(m + 1, T))


@st.composite
def hindcast_cases(draw):
    lengths = draw(st.lists(st.integers(4, 40), min_size=1, max_size=3))
    m = draw(st.integers(2, 10))
    tau_max = draw(st.one_of(st.none(), st.integers(1, 30)))
    rho = draw(st.floats(-0.9, 0.9))
    seed = draw(st.integers(0, 10_000))
    spec = SurrogateSpec(n_tech=len(lengths), T=np.array(lengths), seed=seed, n_ensembles=1)
    return make_dataset(spec, 0), HindcastConfig(m=m, tau_max=tau_max, rho=rho)


@st.composite
def purity_cases(draw):
    """A hindcast case, one of its technologies, a cut-off index and a
    factor for each cost before that index."""
    dataset, cfg = draw(hindcast_cases())
    j = draw(st.integers(0, len(dataset) - 1))
    cut = draw(st.integers(1, dataset[j].T - 1))
    factors = draw(st.lists(st.floats(0.01, 100.0), min_size=cut, max_size=cut))
    return dataset, cfg, j, cut, np.array(factors)


def _with_costs(ts, cost):
    return TechSeries(ts.name, ts.years, cost, ts.production, ts.experience)


def _hindcast_quietly(dataset, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_hindcast(dataset, cfg)


class TestTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(hindcast_cases())
    def test_count_matches_closed_form(self, case):
        dataset, cfg = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            errs = run_hindcast(dataset, cfg)
        expect = sum(_closed_form_count(ts.T, cfg.m, cfg.tau_max) for ts in dataset)
        assert len(errs) == 2 * expect

    @settings(max_examples=60, deadline=None)
    @given(hindcast_cases())
    def test_columns_match_row_views(self, case):
        dataset, cfg = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            errs = run_hindcast(dataset, cfg)
        rows = list(errs)
        for field in dataclasses.fields(HindcastError):
            column = getattr(errs, field.name)
            assert_array_equal(column, np.array([getattr(r, field.name) for r in rows], dtype=column.dtype))

    @settings(max_examples=60, deadline=None)
    @given(purity_cases())
    def test_window_purity(self, case):
        # An error depends on its window and the years after it only: costs
        # changed before a window's first observation leave every column of
        # its rows, and every row of the other technologies, bit-identical.
        dataset, cfg, j, cut, factors = case
        ts = dataset[j]
        cost = np.array(ts.cost)
        cost[:cut] *= factors
        changed = SeriesTable.from_series([*dataset[:j], _with_costs(ts, cost), *dataset[j + 1:]])
        before = _hindcast_quietly(dataset, cfg)
        after = _hindcast_quietly(changed, cfg)
        assert len(after) == len(before)
        if not len(before):
            return
        keep = (before.technology != ts.name) | (before.origin_year - ts.years[0] - before.m >= cut)
        for field in dataclasses.fields(HindcastError):
            a, b = getattr(before, field.name)[keep], getattr(after, field.name)[keep]
            assert a.tobytes() == b.tobytes(), field.name

    @settings(max_examples=60, deadline=None)
    @given(hindcast_cases(), st.floats(1e-3, 1e3))
    def test_cost_scale_invariance(self, case, c):
        # Normalized and pooled errors are free of the cost unit. The only
        # change allowed is the rounding of log(c * cost) = log(c) + log(cost):
        # rtol=1e-9 and atol=1e-12, plus a few ulps of the log costs carried
        # through each error and its window's scale estimate. That allowance
        # is below 1e-12 relative unless the scale estimate is tiny, as for
        # m = 2 and two nearly equal cost changes.
        dataset, cfg = case
        scaled = SeriesTable.from_series([_with_costs(ts, ts.cost * c) for ts in dataset])
        before = _hindcast_quietly(dataset, cfg)
        after = _hindcast_quietly(scaled, cfg)
        if not len(before):
            return
        log_cost = max(np.abs(ts.log_cost).max() for ts in [*dataset, *scaled])
        scale = np.minimum(before.K_hat, before.sigma_eta_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pairs = [(after.normalized_error, before.normalized_error)] + [
                (pooled_errors(after, alt), pooled_errors(before, alt))
                for alt in (cfg, HindcastConfig(m=cfg.m, rho=0.0))
            ]
        for new, old in pairs:
            assert_array_equal(np.isnan(new), np.isnan(old))
            ok = ~np.isnan(old)
            with np.errstate(divide="ignore"):
                slack = 16 * np.finfo(float).eps * log_cost * (1 + before.tau + np.abs(old)) / scale
            bound = 1e-12 + 1e-9 * np.abs(old) + slack
            assert np.all(np.abs(new - old)[ok] <= bound[ok])

    @settings(max_examples=40, deadline=None)
    @given(hindcast_cases())
    def test_csv_round_trip(self, tmp_path_factory, case):
        dataset, cfg = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            errs = run_hindcast(dataset, cfg)
        path = tmp_path_factory.mktemp("csv") / "errors.csv"
        write_errors_csv(path, errs)
        back = read_errors_csv(path)
        for name in ("technology", "origin_year", "tau", "model", "raw_error", "K_hat",
                     "sigma_eta_hat", "A", "normalized_error", "pooled_error", "m"):
            assert getattr(back, name).tobytes() == getattr(errs, name).tobytes(), name
        assert back == errs
