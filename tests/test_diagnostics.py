import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from expcurve import (
    ecdf_vs_reference,
    ks_critical_value,
    ks_statistic,
    pit,
    sahal_check,
    tanh_check,
)


class TestEcdfVsReference:
    def test_reference_sample_passes(self):
        rng = np.random.default_rng(0)
        check = ecdf_vs_reference(rng.standard_normal(10_000), "normal")
        assert check.ks_stat < ks_critical_value(10_000, 0.01)

    def test_quantile_construction_minimal_distance(self):
        n = 500
        sample = stats.norm.ppf(np.arange(1, n + 1) / (n + 1))
        check = ecdf_vs_reference(sample, "normal")
        assert check.ks_stat <= 1 / (n + 1) + 1e-9

    def test_constant_sample_far_from_continuous(self):
        check = ecdf_vs_reference(np.zeros(100), "normal")
        assert check.ks_stat >= 0.5

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        sample = rng.standard_t(df=6, size=750)
        ours = ecdf_vs_reference(sample, "student", df=6).ks_stat
        scipys = stats.kstest(sample, lambda q: stats.t(6).cdf(q)).statistic
        assert ours == pytest.approx(scipys, rel=1e-10)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(0.3, 1.4, 400)
        a = ecdf_vs_reference(sample, "normal").ks_stat
        b = ecdf_vs_reference(-sample, "normal").ks_stat
        assert 0.0 <= a <= 1.0
        assert a == pytest.approx(b, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=200)
        a = ecdf_vs_reference(sample, "normal").ks_stat
        b = ecdf_vs_reference(sample[::-1], "normal").ks_stat
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ecdf_vs_reference([1.0], "normal")
        with pytest.raises(ValueError):
            ecdf_vs_reference([1.0, 2.0], "student")  # df missing
        with pytest.raises(ValueError):
            ecdf_vs_reference([1.0, 2.0], "cauchy")
        for df in (0.5, float("nan")):
            with pytest.raises(ValueError, match="df >= 1"):
                ecdf_vs_reference([1.0, 2.0], "student", df=df)


class TestPit:
    @pytest.mark.parametrize("df", [None, 0.5, float("nan")])
    def test_bad_student_df_rejected(self, df):
        with pytest.raises(ValueError, match="df >= 1"):
            pit([1.0, 2.0], "student", df=df)

    def test_median_maps_to_half(self):
        vals = pit([0.0, 0.0], "normal")
        assert_allclose(vals, [0.5, 0.5])

    def test_range_and_idempotence(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=1000)
        p = pit(sample, "normal")
        assert np.all((p >= 0) & (p <= 1))
        # PIT of uniform values against uniform is the identity
        u = np.sort(p)
        again = np.sort(stats.uniform.cdf(u))
        assert_allclose(again, u, atol=1e-12)

    def test_uniform_when_reference_true(self):
        rng = np.random.default_rng(2)
        p = pit(rng.standard_normal(20_000), "normal")
        assert stats.kstest(p, "uniform").pvalue > 0.01

    def test_heavy_tails_give_u_shape(self):
        rng = np.random.default_rng(3)
        p = pit(rng.standard_t(df=4, size=10_000), "normal")
        outer = np.mean((p < 0.1) | (p > 0.9))
        assert outer > 0.2


class TestSahalCheck:
    def test_identity_rows(self):
        mu_over_r, residual = sahal_check([-0.12, 0.2], [0.3, 0.4], [-0.4, 0.5])
        assert mu_over_r.tolist() == [-0.12 / 0.3, 0.2 / 0.4]
        assert residual.tolist() == [-0.4 - -0.12 / 0.3, 0.5 - 0.2 / 0.4]
        assert residual[0] == pytest.approx(0.0, abs=1e-15)

    def test_reference_pv_row(self):
        # -0.121 / 0.318 lands within a point of the fitted exponent -0.380
        mu_over_r, residual = sahal_check([-0.121], [0.318], [-0.380])
        assert mu_over_r[0] == pytest.approx(-0.3805, abs=1e-4)
        assert abs(residual[0]) < 1e-3

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError, match="r must be non-zero"):
            sahal_check([-0.1, -0.1], [0.2, 0.0], [-0.5, -0.5])


class TestTanhCheck:
    def test_pairs(self):
        theory = tanh_check([0.1, 0.3], [0.1, 0.2])
        # each value is sigma_x_theory's, bit for bit
        assert theory.tolist() == [math.sqrt(0.1 * 0.1 * math.tanh(0.05)), math.sqrt(0.2 * 0.2 * math.tanh(0.15))]
        assert tanh_check([], []).shape == (0,)

    def test_exact_geometric_both_zero(self):
        assert tanh_check([0.1], [0.0]).tolist() == [0.0]

    def test_nonpositive_growth_rejected(self):
        with pytest.raises(ValueError, match="g must be positive"):
            tanh_check([0.1, 0.0], [0.1, 0.1])
