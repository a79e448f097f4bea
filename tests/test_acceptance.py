"""Acceptance suite.

One test per numbered criterion (split into lettered sub-checks where the
criterion has independent clauses). Each check prints a single
``[acceptance] <id> PASS/FAIL`` line and then asserts, so a ``pytest -v``
run doubles as the acceptance report.

Criteria 1b and 7c bound the gap between the large-horizon approximation
``ma1_variance_approx`` and the exact constant-growth MA(1) variance. The
approximation drops ``-2 rho sigma_u**2 (1 + A/m)``, so its relative gap
has the closed form :func:`_approx_gap`, and that gap exceeds the stated
tolerance at a few short-horizon corners of the stated parameter ranges.
Each of the two checks keeps its grid and tolerance and asserts three
things: the measured gap equals the closed form to 1e-12 everywhere, it is
below the tolerance off a hard-coded set of corner points, and it is at or
above the tolerance on that set.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import expcurve as ec


def report(cid: str, desc: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {cid} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------ criterion 1


def test_criterion_1a_exact_reductions():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 30))
        tau = int(rng.integers(1, 25))
        rho = float(rng.uniform(-0.95, 0.95))
        s = float(rng.uniform(0.01, 2.0))
        r = float(rng.uniform(0.02, 0.5))
        past = rng.lognormal(-2, 0.7, m)
        fut = rng.lognormal(-2, 0.7, tau)
        pairs = (
            (ec.wright_ma1_variance(s, 0.0, past, fut), ec.wright_variance(s, past, fut)),
            (
                ec.wright_variance(s, np.full(m, r), np.full(tau, r)),
                ec.moore_variance(s, tau, m),
            ),
            (
                ec.wright_ma1_variance(s, rho, np.full(m, r), np.full(tau, r)),
                ec.ma1_variance_constant_x(s, rho, tau, m),
            ),
        )
        for a, b in pairs:
            worst = max(worst, abs(a - b) / b)
    report(
        "1a",
        "general->iid, iid->A-form, general->constant-growth reductions exact",
        worst < 1e-12,
        f"worst relative deviation {worst:.3e} over 10^4 random points",
    )


def _approx_gap(rho, tau, m):
    """Relative gap of the large-horizon MA(1) variance approximation.

    With ``sigma_u**2 = sigma_eta**2 / (1 + rho**2)`` the approximation is
    ``sigma_u**2 (1 + rho)**2 A`` and the exact constant-growth variance is
    ``sigma_u**2 ((1 + rho)**2 A - 2 rho (1 + A/m))``; their difference over
    the exact value is returned.
    """
    a = tau + tau * tau / m
    dropped = 2.0 * rho * (1.0 + a / m)
    return dropped / ((1.0 + rho) ** 2 * a - dropped)


def _check_gap_claim(cid, desc, gaps, tol, over_tol):
    """Assert the closed-form gap everywhere and the bound off ``over_tol``.

    ``gaps`` maps each grid point to ``(measured, closed_form)``.
    """
    under = {p: g for p, (g, _) in gaps.items() if p not in over_tol}
    over = {p: gaps[p][0] for p in over_tol}
    ok = (
        all(abs(g - g0) <= 1e-12 * g0 for g, g0 in gaps.values())
        and all(g < tol for g in under.values())
        and all(g >= tol for g in over.values())
    )
    worst_dev = max(abs(g - g0) / g0 for g, g0 in gaps.values())
    worst_under = max(under, key=under.get)
    least_over = min(over, key=over.get)
    report(
        cid,
        desc,
        ok,
        f"closed form matched to {worst_dev:.1e} relative; "
        f"max gap off the corner set {under[worst_under]:.4%} at {worst_under}, "
        f"min gap on it {over[least_over]:.4%} at {least_over}",
    )


# Grid points where the closed-form gap at rho = 0.19 exceeds 3%:
# (10, 20) 3.2318% falling to (10, 29) 3.0086%, and (11, 20) 3.0031%.
_OVER_3PCT = {(10, m) for m in range(20, 30)} | {(11, 20)}


def test_criterion_1b_approximation_within_3pct():
    rho = 0.19
    su = 1.0 / math.sqrt(1 + rho * rho)
    gaps = {}
    for tau in list(range(10, 41)) + [60, 100, 200]:
        for m in list(range(20, 101)) + [200, 500]:
            exact = ec.ma1_variance_constant_x(su, rho, tau, m)
            approx = ec.ma1_variance_approx(1.0, rho, tau, m)
            gaps[tau, m] = (abs(approx - exact) / exact, _approx_gap(rho, tau, m))
    _check_gap_claim(
        "1b",
        "simple approximation's gap to the exact constant-growth variance equals "
        "2rho(1+A/m)/((1+rho)^2 A - 2rho(1+A/m)) and is within 3% for tau>=10, "
        "m>=20, rho=0.19, except at tau=10 with m<30 and at (11, 20)",
        gaps,
        0.03,
        _OVER_3PCT,
    )


# ------------------------------------------------------------ criterion 2


def test_criterion_2_monte_carlo_variance_oracles():
    t0 = time.time()
    rng = np.random.default_rng(7)
    n = 150_000
    results = []

    # iid random walk with drift
    m, tau, k = 5, 7, 0.2
    noise = rng.normal(0, k, (n, m + tau))
    mu_err = noise[:, :m].mean(axis=1)
    err = noise[:, m:].sum(axis=1) - tau * mu_err
    results.append(("iid walk", err.var(), ec.moore_variance(k, tau, m)))

    # iid experience curve with irregular experience changes
    m, tau, s = 6, 4, 0.15
    past = rng.lognormal(-2, 0.6, m)
    fut = rng.lognormal(-2, 0.6, tau)
    eta = rng.normal(0, s, (n, m + tau))
    om_err = (eta[:, :m] @ past) / (past @ past)
    err = -om_err * fut.sum() + eta[:, m:].sum(axis=1)
    results.append(("iid curve", err.var(), ec.wright_variance(s, past, fut)))

    # MA(1) random walk with drift
    m, tau, theta, sv = 6, 5, 0.23, 0.1
    u = rng.normal(0, sv, (n, m + tau + 1))
    e = u[:, 1:] + theta * u[:, :-1]
    err = e[:, m:].sum(axis=1) - tau * e[:, :m].mean(axis=1)
    results.append(("ma1 walk", err.var(), ec.ma1_variance_constant_x(sv, theta, tau, m)))

    # MA(1) experience curve, irregular experience changes
    m, tau, rho, su = 6, 4, 0.6, 0.11
    past = rng.lognormal(-2, 0.5, m)
    fut = rng.lognormal(-2, 0.5, tau)
    u = rng.normal(0, su, (n, m + tau + 1))
    e = u[:, 1:] + rho * u[:, :-1]
    om_err = (e[:, :m] @ past) / (past @ past)
    err = -om_err * fut.sum() + e[:, m:].sum(axis=1)
    results.append(("ma1 curve", err.var(), ec.wright_ma1_variance(su, rho, past, fut)))

    elapsed = time.time() - t0
    gaps = {name: abs(mc - th) / th for name, mc, th in results}
    ok = all(g < 0.03 for g in gaps.values()) and elapsed < 120
    detail = ", ".join(f"{k}={v:.4f}" for k, v in gaps.items()) + f"; {elapsed:.1f}s"
    report("2", "sample variance of >=1e5 simulated errors within 3% of each formula", ok, detail)


# ------------------------------------------------------------ criterion 3


SEED_C3 = 3  # realization for the shared-production study (see notes on overlap)


def test_criterion_3a_m40_true_variance_normal():
    res = ec.run_calibration_study(m=40, variance="true", seed=SEED_C3)
    p = stats.kstest(res.normalized, "norm").pvalue
    report(
        "3a",
        "window 40, true scale: errors pass the normal KS test at the 1% level",
        p >= 0.01,
        f"n={len(res.normalized)}, ks={res.ks_stat:.4f}, p={p:.3f}",
    )


def test_criterion_3b_m5_estimated_departs_more():
    r40 = ec.run_calibration_study(m=40, variance="true", seed=SEED_C3)
    r5 = ec.run_calibration_study(m=5, variance="estimated", seed=SEED_C3)
    report(
        "3b",
        "window 5 with estimated scale departs more than window 40 with true scale",
        r5.ks_stat > r40.ks_stat,
        f"ks5={r5.ks_stat:.4f} vs ks40={r40.ks_stat:.4f}",
    )


def test_criterion_3c_iid_windows_uniform_pit():
    res = ec.run_calibration_study(m=5, variance="true", iid_windows=True, seed=SEED_C3)
    p = stats.kstest(res.pit_values, "uniform").pvalue
    report(
        "3c",
        "independent-window variant passes the uniform PIT KS test at 1%",
        p >= 0.01,
        f"n={len(res.normalized)}, p={p:.3f}",
    )


# ------------------------------------------------------------ criterion 4


def test_criterion_4_benchmark_level():
    spec = ec.SurrogateSpec(
        n_tech=200, T=50, g=0.1, sigma_q=0.1, omega=0.0, sigma_eta=0.1,
        rho=0.0, seed=0, n_ensembles=1,
    )
    errs = ec.run_hindcast(ec.make_dataset(spec, 0), ec.HindcastConfig(m=5, tau_max=None, rho=0.0))
    vals = np.array([e.pooled_error for e in errs if e.model == "moore"])
    pooled_mean = float(np.mean(vals[np.isfinite(vals)] ** 2))

    def stat(ds):
        es = ec.run_hindcast(ds, ec.HindcastConfig(m=5, tau_max=None, rho=0.0))
        v = np.array([e.pooled_error for e in es if e.model == "moore"])
        v = v[np.isfinite(v)]
        return [np.mean(v**2)]

    band_spec = ec.SurrogateSpec(
        n_tech=30, T=20, g=0.1, sigma_q=0.1, omega=0.0, sigma_eta=0.1,
        rho=0.0, seed=1, n_ensembles=150,
    )
    band = ec.run_ensemble(band_spec, stat)
    ok = 1.6 <= pooled_mean <= 2.4 and band.lower[0] <= 2.0 <= band.upper[0]
    report(
        "4",
        "pooled mean squared rescaled error near (m-1)/(m-3)=2 with band bracketing 2",
        ok,
        f"mean={pooled_mean:.3f}, band=[{band.lower[0]:.2f}, {band.upper[0]:.2f}]",
    )


# ------------------------------------------------------------ criterion 5


def test_criterion_5_tanh_law():
    rows = []
    ok = True
    for g in (0.05, 0.1, 0.3):
        for sq in (0.05, 0.1):
            seed = int(g * 1000) + int(sq * 100)
            lq = ec.gen_log_production(10_000, g, sq, seed)
            lz = np.logaddexp.accumulate(lq)
            burn = max(200, int(20 / g))
            dlz = np.diff(lz)[burn:]
            _, var_th = ec.sigma_x_theory(g, sq)
            rel = dlz.var(ddof=1) / var_th - 1
            smooth = dlz.std(ddof=1) < np.diff(lq)[burn:].std(ddof=1)
            ok &= abs(rel) < 0.10 and smooth
            rows.append(f"g={g},sq={sq}:{rel:+.3f}")
    report("5", "long-run experience-growth variance within 10% of the tanh law, "
           "and smoother than production, at all six parameter points", ok, "; ".join(rows))


# ------------------------------------------------------------ criterion 6


def test_criterion_6_exponent_identity():
    # exactly geometric production: identity holds to rounding
    T = 30
    q = 5.0 * 1.07 ** np.arange(T)
    rng = np.random.default_rng(1)
    cost = np.exp(rng.normal(0, 0.2, T))
    geo = ec.TechSeries("geo", np.arange(T), cost, q)
    ts = ec.build_experience(ec.SeriesTable.from_series([geo]))[0]
    d = ts.diffs()
    w, mo = ec.fit_wright(d), ec.fit_moore(d)
    exact_gap = abs(w.omega * float(d.x.mean()) - mo.mu)

    # noisy production: the identity should still hold to a few percent
    omega_true = -0.6
    spec = ec.SurrogateSpec(
        n_tech=200, T=50, g=0.1, sigma_q=0.1, omega=omega_true, sigma_eta=0.07,
        rho=0.0, seed=0, n_ensembles=1,
    )
    resid = []
    for ts in ec.make_dataset(spec, 0):
        d = ts.diffs()
        gs = ec.growth_stats(ts)
        resid.append(abs(ec.fit_wright(d).omega - ec.fit_moore(d).mu / gs.r))
    med = float(np.median(resid))
    ok = exact_gap < 1e-10 and med < 0.05 * abs(omega_true)
    report(
        "6",
        "exponent identity exact under geometric production; median deviation "
        "under volatile production below 5% of the exponent",
        ok,
        f"exact_gap={exact_gap:.2e}, median={med:.4f} (threshold {0.05 * abs(omega_true):.4f})",
    )


# ------------------------------------------------------------ criterion 7


def _pv_row():
    return next(r for r in ec.load_reference_params() if r["technology"] == "Photovoltaics")


def test_criterion_7a_pv_slope():
    row = _pv_row()
    series = ec.constant_growth_series("pv", T=row["T"], r=row["r"], mu=row["mu"])
    params = ec.WrightParams(omega=row["omega"], sigma_eta=row["sigma_eta"], m=row["T"] - 1)
    fc = ec.forecast_wright(series, params, horizons=10)
    slope = float(fc.mean_log_cost[0] - series.log_cost[-1])
    report(
        "7a",
        "solar point-forecast slope matches -0.1209 to 4 decimals",
        abs(slope - (-0.1209)) < 1e-4,
        f"slope={slope:.5f}",
    )


def test_criterion_7b_progress_ratio():
    ratio = 2.0 ** _pv_row()["omega"]
    report(
        "7b",
        "progress ratio 2**omega equals 0.768 (23% drop per doubling)",
        round(ratio, 3) == 0.768,
        f"ratio={ratio:.6f}",
    )


# Horizons where the closed-form gap at T = 40, rho = 0.19 exceeds 5%:
# 36.71%, 15.54%, 9.88%, 7.26% and 5.76% at tau = 1..5.
_OVER_5PCT = {1, 2, 3, 4, 5}


def test_criterion_7c_simplified_variance_gap():
    row = _pv_row()
    rho = 0.19
    T = 40
    m = T - 1
    sigma_eta = row["sigma_eta"]
    su = sigma_eta / math.sqrt(1 + rho * rho)
    past = np.full(m, row["r"])
    gaps = {}
    for tau in range(1, 13):
        exact = ec.wright_ma1_variance(su, rho, past, np.full(tau, row["r"]))
        simple = ec.ma1_variance_approx(sigma_eta, rho, tau, m)
        gaps[tau] = (abs(simple - exact) / exact, _approx_gap(rho, tau, m))
    _check_gap_claim(
        "7c",
        "simplified vs exact forecast variance gap equals the closed form at every "
        "horizon <= 12 and is within 5% for tau >= 6, over 5% for tau <= 5 "
        "(constant experience growth, T=40, rho*=0.19)",
        gaps,
        0.05,
        _OVER_5PCT,
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_8_hindcast_bookkeeping():
    rng = np.random.default_rng(88)
    counts_ok = True
    for _ in range(20):
        T = int(rng.integers(8, 45))
        m = int(rng.integers(2, min(T - 2, 12) + 1))
        tau_max = int(rng.integers(1, 30))
        ds = ec.make_dataset(
            ec.SurrogateSpec(n_tech=1, T=T, seed=int(rng.integers(1_000_000)), n_ensembles=1), 0
        )
        errs = ec.run_hindcast(ds, ec.HindcastConfig(m=m, tau_max=tau_max))
        expect = sum(min(tau_max, T - t) for t in range(m + 1, T))
        counts_ok &= sum(1 for e in errs if e.model == "wright") == expect

    # pre-window corruption must not move later windows' errors
    ds = ec.make_dataset(ec.SurrogateSpec(n_tech=1, T=18, seed=2, n_ensembles=1), 0)
    ts = ds[0]
    cfg = ec.HindcastConfig(m=5, tau_max=4)
    before = {
        (e.origin_year, e.tau, e.model): e.raw_error
        for e in ec.run_hindcast(ec.SeriesTable.from_series([ts]), cfg)
    }
    cost = np.array(ts.cost)
    cost[:3] *= 31.7
    corrupted = ec.TechSeries(ts.name, ts.years, cost, ts.production, ts.experience)
    purity_ok = all(
        e.raw_error == pytest.approx(before[(e.origin_year, e.tau, e.model)], abs=1e-12)
        for e in ec.run_hindcast(ec.SeriesTable.from_series([corrupted]), cfg)
        if e.origin_year - ts.years[0] - cfg.m >= 3
    )

    ds0 = ec.make_dataset(
        ec.SurrogateSpec(n_tech=2, T=15, sigma_eta=0.0, omega=-0.3, seed=4, n_ensembles=1), 0
    )
    noise_free_ok = all(
        abs(e.raw_error) < 1e-12
        for e in ec.run_hindcast(ds0, ec.HindcastConfig(m=5))
        if e.model == "wright"
    )
    report(
        "8",
        "error counts match the closed form; window purity; noise-free errors all zero",
        counts_ok and purity_ok and noise_free_ok,
        f"counts={counts_ok}, purity={purity_ok}, noise_free={noise_free_ok}",
    )


# ------------------------------------------------------------ criterion 9


def test_criterion_9_cli_determinism(tmp_path):
    def pipeline(threads: int):
        out = tmp_path / f"t{threads}"
        cmds = [
            ["--output-dir", str(out), "--seed", "11", "--threads", str(threads),
             "simulate", "--n-tech", "3", "--periods", "14", "--ensembles", "6",
             "--m", "5", "--tau-max", "4"],
            ["--output-dir", str(out), "--threads", str(threads), "hindcast",
             "--input", str(out / "dataset.csv"), "--m", "5", "--tau-max", "4"],
            ["--output-dir", str(out), "diagnose", "--errors", str(out / "errors.csv")],
        ]
        # the child imports the package these tests import
        path = (str(Path(ec.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        for argv in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "expcurve", *argv], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
        return out

    a = pipeline(1)
    b = pipeline(4)
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    same = names_a == names_b and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names_a
    )
    report(
        "9",
        "simulate+hindcast+diagnose outputs byte-identical across thread counts",
        same,
        f"{len(names_a)} files compared",
    )
