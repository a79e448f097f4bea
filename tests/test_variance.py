import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from expcurve import (
    a_factor,
    ma1_variance_approx,
    ma1_variance_constant_x,
    moore_variance,
    wright_ma1_variance,
    wright_variance,
)
from expcurve.variance import _ma1_unit_variance


def dense_ma1_variance(su, rho, past_x, future_x):
    """Variance of the window regression's forecast error from dense weights.

    The error is ``sum(future eta) - (omega_hat - omega) * sum(future_x)``
    with ``omega_hat - omega = pinv(past_x) @ eta_past``. Written as weights
    ``w`` on the innovations ``u_0..u_{m+tau}`` of ``eta_t = u_t + rho u_{t-1}``,
    its variance is ``su**2 |w|**2``.
    """
    past_x, future_x = np.asarray(past_x, float), np.asarray(future_x, float)
    slope_map = np.linalg.pinv(past_x[:, None])[0]
    eta_weights = np.concatenate([-future_x.sum() * slope_map, np.ones(len(future_x))])
    n = len(eta_weights)
    eta_from_u = np.eye(n, n + 1, k=1) + rho * np.eye(n, n + 1)
    w = eta_from_u.T @ eta_weights
    return su * su * (w @ w)


class TestAFactor:
    def test_values(self):
        assert a_factor(1, 5) == pytest.approx(1.2, abs=1e-15)
        assert a_factor(20, 5) == pytest.approx(100.0, abs=1e-12)

    def test_infinite_window_limit(self):
        assert a_factor(7, math.inf) == pytest.approx(7.0)

    def test_vectorized(self):
        assert_allclose(a_factor(np.array([1, 2]), 4), [1.25, 3.0])


class TestMooreVariance:
    def test_unit(self):
        assert moore_variance(1.0, 1, 5) == pytest.approx(1.2)

    def test_hand_value(self):
        # 0.153^2 * (12 + 144/40)
        assert moore_variance(0.153, 12, 40) == pytest.approx(
            0.153**2 * (12 + 144 / 40), rel=1e-14
        )

    def test_zero_scale(self):
        assert moore_variance(0.0, 9, 5) == 0.0


class TestWrightVariance:
    def test_hand_value(self):
        assert wright_variance(1.0, [1, 2], [3]) == pytest.approx(2.8, abs=1e-14)

    def test_constant_x_equals_moore(self):
        r, m, tau, s = 0.21, 8, 5, 0.3
        v = wright_variance(s, np.full(m, r), np.full(tau, r))
        assert v == pytest.approx(moore_variance(s, tau, m), rel=1e-14)

    def test_single_step_no_parameter_error(self):
        assert wright_variance(0.5, [1.0, 2.0], [0.0]) == pytest.approx(0.25)

    def test_empty_future(self):
        assert wright_variance(1.0, [1.0], []) == 0.0

    def test_degenerate_past(self):
        with pytest.raises(ValueError, match="degenerate"):
            wright_variance(1.0, [0.0, 0.0], [1.0])

    def test_monotone_in_past_information(self):
        fut = [0.3, 0.2]
        small = wright_variance(1.0, [0.1] * 5, fut)
        large = wright_variance(1.0, [0.4] * 5, fut)
        assert large < small


class TestMa1Variance:
    def test_hand_value(self):
        v = wright_ma1_variance(0.1, 0.6, [1, 2], [3])
        assert v == pytest.approx(0.032320, rel=1e-12)

    def test_rho_zero_reduction(self):
        rng = np.random.default_rng(9)
        past = np.abs(rng.normal(0.1, 0.05, 7)) + 0.01
        fut = np.abs(rng.normal(0.1, 0.05, 3)) + 0.01
        assert wright_ma1_variance(0.2, 0.0, past, fut) == pytest.approx(
            wright_variance(0.2, past, fut), rel=1e-13
        )

    def test_constant_x_reduction(self):
        for rho in (-0.7, -0.2, 0.19, 0.8):
            for tau, m in ((1, 2), (4, 5), (12, 9)):
                v17 = wright_ma1_variance(0.3, rho, np.full(m, 0.15), np.full(tau, 0.15))
                v19 = ma1_variance_constant_x(0.3, rho, tau, m)
                assert v17 == pytest.approx(v19, rel=1e-12)

    def test_single_window_diff(self):
        # m=1: the first and last window weights are the same element
        v = wright_ma1_variance(0.1, 0.5, [0.2], [0.2])
        h = -0.2 * 0.2 / 0.04
        expect = 0.01 * (0.25 * h * h + (0.5 + h) ** 2 + 1.0)
        assert v == pytest.approx(expect, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # simulate the generating process and compare the sample variance
        rng = np.random.default_rng(42)
        m, tau, omega, rho, sigma_eta = 6, 4, -0.4, 0.6, 0.12
        past = rng.lognormal(-2, 0.5, m)
        fut = rng.lognormal(-2, 0.5, tau)
        su = sigma_eta / math.sqrt(1 + rho**2)
        n = 200_000
        u = rng.normal(0, su, (n, m + tau + 1))
        e = u[:, 1:] + rho * u[:, :-1]
        yw = omega * past + e[:, :m]
        om_hat = (yw @ past) / (past @ past)
        err = (omega - om_hat) * fut.sum() + e[:, m:].sum(axis=1)
        assert err.var() == pytest.approx(
            wright_ma1_variance(su, rho, past, fut), rel=0.02
        )


class TestConstantXMa1:
    def test_rho_zero(self):
        assert ma1_variance_constant_x(0.7, 0.0, 6, 5) == pytest.approx(
            0.49 * a_factor(6, 5), rel=1e-14
        )

    def test_hand_value(self):
        # -0.38 + (1 + 2*4*0.19/5 + 0.19^2) * 100
        expect = -0.38 + (1 + 2 * 4 * 0.19 / 5 + 0.19**2) * 100
        assert ma1_variance_constant_x(1.0, 0.19, 20, 5) == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx(133.63, abs=1e-10)

    def test_floor_guard_warns(self):
        with pytest.warns(RuntimeWarning, match="floor"):
            v = ma1_variance_constant_x(1.0, 1.0, 0, 5)
        assert v >= 0.0

    def test_positive_on_valid_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            rho = rng.uniform(-1, 1)
            tau = rng.integers(1, 30)
            m = rng.integers(2, 50)
            assert ma1_variance_constant_x(0.5, rho, int(tau), int(m)) > 0

    @pytest.mark.parametrize(
        "tau, m", [(10, 20), (11, 20)] + [(tau, 39) for tau in range(1, 13)]
    )
    def test_dense_innovation_oracle(self, tau, m):
        rho, su, r = 0.19, 0.7, 0.15
        assert ma1_variance_constant_x(su, rho, tau, m) == pytest.approx(
            dense_ma1_variance(su, rho, np.full(m, r), np.full(tau, r)), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.19, 0.6, 1.0])
    def test_dense_innovation_oracle_realized_experience(self, rho):
        rng = np.random.default_rng(5)
        su = 0.7
        for m, tau in ((1, 1), (2, 7), (5, 1), (5, 20), (13, 9), (39, 12)):
            past, fut = rng.lognormal(-2, 0.7, m), rng.lognormal(-2, 0.7, tau)
            expect = dense_ma1_variance(su, rho, past, fut)
            assert wright_ma1_variance(su, rho, past, fut) == pytest.approx(expect, rel=1e-12, abs=0)
        # eight windows of m = 6, each with its own horizon, in one batch
        pasts, fut = rng.lognormal(-2, 0.7, (8, 6)), rng.lognormal(-2, 0.7, 8)
        taus = np.array([3, 1, 8, 2, 2, 5, 7, 4])
        fsum = np.array([fut[:t].sum() for t in taus])
        batch = su * su * _ma1_unit_variance(rho, pasts, fsum, taus)
        expect = [dense_ma1_variance(su, rho, p, fut[:t]) for p, t in zip(pasts, taus)]
        assert_allclose(batch, expect, rtol=1e-12, atol=0)


class TestApproxVariance:
    def test_rho_zero(self):
        assert ma1_variance_approx(0.3, 0.0, 4, 9) == pytest.approx(
            0.09 * a_factor(4, 9), rel=1e-14
        )

    def test_hand_value(self):
        v = ma1_variance_approx(1.0, 0.19, 10, 20)
        assert v == pytest.approx((1.19**2 / (1 + 0.19**2)) * 15, rel=1e-14)
        assert v == pytest.approx(20.5014, abs=1e-3)

    def test_approaches_exact_for_large_tau_m(self):
        rho = 0.19
        su = 1.0 / math.sqrt(1 + rho**2)
        v19 = ma1_variance_constant_x(su, rho, 200, 400)
        v20 = ma1_variance_approx(1.0, rho, 200, 400)
        assert v20 / v19 == pytest.approx(1.0, abs=5e-3)


class TestReductionChainAndMonotonicity:
    def test_full_chain_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            m = int(rng.integers(2, 30))
            tau = int(rng.integers(1, 25))
            rho = float(rng.uniform(-0.95, 0.95))
            s = float(rng.uniform(0.01, 2.0))
            past = rng.lognormal(-2, 0.7, m)
            fut = rng.lognormal(-2, 0.7, tau)
            # MA(1) -> iid at rho = 0
            assert wright_ma1_variance(s, 0.0, past, fut) == pytest.approx(
                wright_variance(s, past, fut), rel=1e-12
            )
            # iid -> A-form under constant growth
            r = float(rng.uniform(0.02, 0.5))
            assert wright_variance(s, np.full(m, r), np.full(tau, r)) == pytest.approx(
                moore_variance(s, tau, m), rel=1e-12
            )
            # MA(1) -> constant-growth closed form
            assert wright_ma1_variance(
                s, rho, np.full(m, r), np.full(tau, r)
            ) == pytest.approx(ma1_variance_constant_x(s, rho, tau, m), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(-1.0, 1.0),
        m=st.integers(2, 60),
        tau=st.integers(1, 60),
        s=st.floats(0.01, 2.0),
        r=st.floats(0.02, 0.5),
        data=st.data(),
    )
    def test_exact_reductions_property(self, rho, m, tau, s, r, data):
        # criterion 1a's three identities, to its 1e-12 relative bound
        changes = st.floats(1e-3, 1.0)
        past = np.array(data.draw(st.lists(changes, min_size=m, max_size=m)))
        fut = np.array(data.draw(st.lists(changes, min_size=tau, max_size=tau)))
        pairs = (
            (wright_ma1_variance(s, 0.0, past, fut), wright_variance(s, past, fut)),
            (wright_variance(s, np.full(m, r), np.full(tau, r)), moore_variance(s, tau, m)),
            (
                wright_ma1_variance(s, rho, np.full(m, r), np.full(tau, r)),
                ma1_variance_constant_x(s, rho, tau, m),
            ),
        )
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * want

    def test_monotone_in_tau_and_scale(self):
        for f in (
            lambda t, s: moore_variance(s, t, 7),
            lambda t, s: ma1_variance_constant_x(s, 0.3, t, 7),
            lambda t, s: ma1_variance_approx(s, 0.3, t, 7),
            lambda t, s: wright_variance(s, [0.1] * 7, [0.1] * t),
        ):
            vals = [f(t, 0.4) for t in range(1, 10)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert f(5, 0.8) > f(5, 0.4)
