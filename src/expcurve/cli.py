"""Command-line surface.

Subcommands: ``estimate`` (parameter table from a cost/production CSV),
``hindcast`` (rolling-origin errors), ``diagnose`` (distribution checks on a
hindcast CSV), ``simulate`` (synthetic datasets, ensemble bands, calibration
studies), ``forecast`` (distributional forecasts for one technology).

Every run writes its outputs atomically (temp file, then rename) plus a
``<command>_manifest.txt`` recording the normalized options, the seed, the
package version, and a SHA-256 of each input file. The manifest excludes the
``--threads`` flag, which is accepted and has no effect: identical manifests
mean bit-identical outputs. All floats are serialized with 17 significant digits,
so piping one command's CSV into the next loses no precision.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _csvio
from .diagnostics import ecdf_vs_reference, ks_critical_value, sahal_check, tanh_check
from .estimators import MooreParams, WrightParams, fit_moore, fit_wright, full_sample_estimates
from .forecast import (
    compare_forecasts,
    constant_growth_series,
    forecast_moore,
    forecast_wright,
)
from .hindcast import (
    HindcastConfig,
    _model_rows,
    mse_by_horizon,
    read_errors_csv,
    run_hindcast,
    write_errors_csv,
)
from .params_io import read_params_csv, reference_params_path, write_params_csv
from .series import DataError, build_experience, ingest_csv, write_csv
from .surrogate import SurrogateSpec, make_dataset, run_calibration_study, run_ensemble


def _atomic(path: Path, writer) -> None:
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _atomic(path, lambda p: Path(p).write_text(text, encoding="utf-8"))


def _write_csv(path: Path, header, *blocks) -> None:
    _atomic(path, lambda p: _csvio.write_csv(p, header, *blocks))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, command: str, options: dict, seed, inputs: dict) -> None:
    lines = [f"command={command}", f"seed={seed}", f"version={__version__}"]
    for key in sorted(options):
        lines.append(f"option.{key}={options[key]}")
    for name in sorted(inputs):
        lines.append(f"input.{name}.sha256={_sha256(inputs[name])}")
    _write_text(outdir / f"{command}_manifest.txt", "\n".join(lines) + "\n")


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    outdir = _outdir(args)
    dataset = build_experience(ingest_csv(args.input))
    table = full_sample_estimates(dataset)
    _atomic(outdir / "params.csv", lambda p: write_params_csv(p, table))
    if args.emit_series:
        _atomic(outdir / "series.csv", lambda p: write_csv(p, dataset))
    _write_manifest(
        outdir,
        "estimate",
        {"emit_series": args.emit_series},
        args.seed,
        {"data": args.input},
    )
    print(f"wrote {outdir / 'params.csv'} ({len(table)} technologies)")
    return 0


# ----------------------------------------------------------------- hindcast


def cmd_hindcast(args) -> int:
    outdir = _outdir(args)
    cfg = HindcastConfig(m=args.m, tau_max=args.tau_max, rho=args.rho_star)
    dataset = build_experience(ingest_csv(args.input))
    errors = run_hindcast(dataset, cfg)
    _atomic(outdir / "errors.csv", lambda p: write_errors_csv(p, errors))
    _write_manifest(
        outdir,
        "hindcast",
        {"m": cfg.m, "tau_max": cfg.tau_max, "rho_star": cfg.rho},
        args.seed,
        {"data": args.input},
    )
    print(f"wrote {outdir / 'errors.csv'} ({len(errors)} errors)")
    return 0


# ----------------------------------------------------------------- diagnose


def cmd_diagnose(args) -> int:
    outdir = _outdir(args)
    errors = read_errors_csv(args.errors)
    if not len(errors):
        raise DataError("error CSV has no rows")
    # the most common window size; a tie goes to the smaller one
    sizes, counts = np.unique(errors.m, return_counts=True)
    m = int(sizes[np.argmax(counts)])
    df = m - 1 if args.reference == "student" else None

    summary = [f"reference={args.reference}", f"df={df}", f"window_m={m}"]
    ecdf_blocks, pit_blocks = [], []
    for model in ("moore", "wright"):
        vals = _model_rows(errors, model).pooled_error
        finite = vals[np.isfinite(vals)]
        dropped = len(vals) - len(finite)
        if len(finite) < 2:
            summary.append(f"{model}: too few errors (n={len(finite)})")
            continue
        check = ecdf_vs_reference(finite, args.reference, df=df)
        models = np.full(len(finite), model)
        ecdf_blocks.append([models, check.sample, check.ecdf, check.ref_cdf])
        pit_blocks.append([models, check.pit_values])
        summary.append(
            f"{model}: n={len(finite)} dropped_nan={dropped} "
            f"ks={check.ks_stat:.6f} ks_critical_1pct={ks_critical_value(len(finite)):.6f}"
        )
    _write_csv(outdir / "ecdf.csv", ["model", "value", "ecdf", "ref_cdf"], *ecdf_blocks)
    _write_csv(outdir / "pit.csv", ["model", "pit"], *pit_blocks)

    inputs = {"errors": args.errors}
    if args.params:
        inputs["params"] = args.params
        table = read_params_csv(args.params)
        _write_csv(
            outdir / "sahal.csv",
            ["technology", "omega", "mu_over_r", "residual"],
            [table["technology"], table["omega"], *sahal_check(table["mu"], table["r"], table["omega"])],
        )
        growing = table[table["g"] > 0]
        skipped = len(table) - len(growing)
        _write_csv(
            outdir / "tanh.csv",
            ["technology", "g", "sigma_q", "r", "sigma_x_observed", "sigma_x_theory"],
            [growing[c] for c in ("technology", "g", "sigma_q", "r", "sigma_x")]
            + [tanh_check(growing["g"], growing["sigma_q"])],
        )
        summary.append(f"sahal: n={len(table)}")
        summary.append(f"tanh: n={len(growing)} skipped_nonpositive_growth={skipped}")

    _write_text(outdir / "summary.txt", "\n".join(summary) + "\n")
    _write_manifest(
        outdir, "diagnose", {"reference": args.reference}, args.seed, inputs
    )
    print(f"wrote diagnostics to {outdir}")
    return 0


# ----------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    inputs = {}
    if args.calibration:
        result = run_calibration_study(
            m=args.m,
            variance=args.variance,
            iid_windows=args.iid_windows,
            n_tech=args.n_tech,
            periods=args.periods,
            seed=args.seed,
        )
        check = result.check
        _write_csv(
            outdir / "calibration_ecdf.csv",
            ["value", "ecdf", "ref_cdf"],
            [check.sample, check.ecdf, check.ref_cdf],
        )
        _write_csv(outdir / "calibration_pit.csv", ["pit"], [result.pit_values])
        _write_text(
            outdir / "summary.txt",
            f"n={len(result.normalized)}\nreference={result.reference}\n"
            f"df={result.df}\nks={result.ks_stat:.6f}\n"
            f"ks_critical_1pct={ks_critical_value(len(result.normalized)):.6f}\n",
        )
        _write_manifest(
            outdir,
            "simulate",
            {
                "calibration": True,
                "m": args.m,
                "variance": args.variance,
                "iid_windows": args.iid_windows,
                "n_tech": args.n_tech,
                "periods": args.periods,
            },
            args.seed,
            inputs,
        )
        print(f"wrote calibration study to {outdir} (ks={result.ks_stat:.4f})")
        return 0

    if args.mimic:
        table = read_params_csv(args.mimic)
        inputs["mimic"] = args.mimic
        generator = {f: table[f] for f in ("T", "g", "sigma_q", "omega", "sigma_eta")}
        generator.update(n_tech=len(table), rho=args.rho_star)
    else:
        generator = dict(
            n_tech=args.n_tech,
            T=args.periods,
            g=args.g,
            sigma_q=args.sigma_q,
            omega=args.omega,
            sigma_eta=args.sigma_eta,
            rho=args.rho,
        )
    spec = SurrogateSpec(
        **generator,
        seed=args.seed,
        n_ensembles=max(args.ensembles, 1),
        shared_production=args.shared_production,
        corrected_experience=not args.no_correction,
    )

    _atomic(outdir / "dataset.csv", lambda p: write_csv(p, make_dataset(spec, 0)))

    if args.ensembles > 0:
        cfg = HindcastConfig(m=args.m, tau_max=args.tau_max, rho=args.rho_star)
        taus = np.arange(1, args.tau_max + 1)

        def stat(dataset):
            errs = run_hindcast(dataset, cfg)
            out = np.full(2 * len(taus), np.nan)
            for k, model in enumerate(("moore", "wright")):
                table = mse_by_horizon(_model_rows(errs, model))
                for i, tau in enumerate(taus):
                    if int(tau) in table:
                        out[k * len(taus) + i] = table[int(tau)][0]
            return out

        result = run_ensemble(spec, stat)
        half = len(taus)
        for k, model in enumerate(("moore", "wright")):
            sub = slice(k * half, (k + 1) * half)
            _write_csv(
                outdir / f"bands_{model}.csv",
                ["grid", "stat_mean", "lo", "hi"],
                [taus.astype(float), result.mean[sub], result.lower[sub], result.upper[sub]],
            )

    _write_manifest(
        outdir,
        "simulate",
        {
            "calibration": False,
            "mimic": bool(args.mimic),
            "n_tech": spec.n_tech,
            "periods": args.periods if not args.mimic else "per-technology",
            "g": args.g,
            "sigma_q": args.sigma_q,
            "omega": args.omega,
            "sigma_eta": args.sigma_eta,
            "rho": args.rho,
            "rho_star": args.rho_star,
            "ensembles": args.ensembles,
            "m": args.m,
            "tau_max": args.tau_max,
            "shared_production": args.shared_production,
            "no_correction": args.no_correction,
        },
        args.seed,
        inputs,
    )
    print(f"wrote surrogate outputs to {outdir}")
    return 0


# ----------------------------------------------------------------- forecast


def _forecast_columns(fc) -> dict:
    """The columns of a forecast CSV, by header name in file order."""
    (lo1, hi1), (lo15, hi15), (lo2, hi2) = (fc.band(k) for k in (1.0, 1.5, 2.0))
    lo2_level, hi2_level = fc.level_band(2.0)
    return {
        "year": fc.years, "mean_log_cost": fc.mean_log_cost, "var_exact": fc.var_exact,
        "var_simple": fc.var_simple, "lo_2sd": lo2, "lo_1sd": lo1, "hi_1sd": hi1, "hi_2sd": hi2,
        "mean_cost_level": fc.mean_cost_level, "tau": fc.horizons, "lo_1_5sd": lo15,
        "hi_1_5sd": hi15, "lo_2sd_level": lo2_level, "hi_2sd_level": hi2_level,
    }


def cmd_forecast(args) -> int:
    outdir = _outdir(args)
    inputs = {}
    if args.input:
        inputs["data"] = args.input
        dataset = ingest_csv(args.input)
        if args.tech not in dataset.names:
            raise DataError(f"technology '{args.tech}' not found in {args.input}")
        series = build_experience(dataset[dataset.names == args.tech])[0]
        diffs = series.diffs()
        wparams, mparams = fit_wright(diffs), fit_moore(diffs)
    else:
        if args.params:
            inputs["params"] = args.params
        table = read_params_csv(args.params or reference_params_path())
        rows = table[table["technology"] == args.tech]
        if not len(rows):
            raise DataError(f"technology '{args.tech}' not found in parameter table")
        # a name given twice takes its last row
        T, mu, K, r, omega, sigma_eta = rows[-1][["T", "mu", "K", "r", "omega", "sigma_eta"]].item()
        series = constant_growth_series(args.tech, T=T, r=r, mu=mu)
        wparams = WrightParams(omega=omega, sigma_eta=sigma_eta, m=T - 1)
        mparams = MooreParams(mu=mu, K=K, m=T - 1)
    fw = forecast_wright(
        series,
        wparams,
        horizons=args.horizon,
        future_x_growth=args.future_growth,
        rho_star=args.rho_star,
    )
    fm = forecast_moore(series, mparams, horizons=args.horizon, theta_star=args.theta_star)
    for name, fc in (("forecast_wright.csv", fw), ("forecast_moore.csv", fm)):
        columns = _forecast_columns(fc)
        _write_csv(outdir / name, list(columns), columns.values())
    comp = compare_forecasts(fw, fm)
    _write_csv(
        outdir / "comparison.csv",
        ["tau", "mean_diff_wright_minus_moore", "band_width_ratio"],
        [comp[:, 0].astype(np.int64), comp[:, 1], comp[:, 2]],
    )
    _write_manifest(
        outdir,
        "forecast",
        {
            "tech": args.tech,
            "horizon": args.horizon,
            "future_growth": args.future_growth,
            "rho_star": args.rho_star,
            "theta_star": args.theta_star,
            "reference_params": not (args.input or args.params),
        },
        args.seed,
        inputs,
    )
    print(f"wrote forecasts to {outdir}")
    return 0


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcurve",
        description="Experience-curve and time-trend cost forecasting toolkit.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count(),
        help="accepted for compatibility; has no effect (all work runs in one thread)",
    )
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="whole-sample parameter table from a data CSV")
    p.add_argument("--input", required=True, help="CSV: technology,year,cost,production")
    p.add_argument(
        "--emit-series",
        action="store_true",
        help="also write the series with derived experience columns",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("hindcast", help="rolling-origin pseudo-forecast errors")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=5, help="window size in differences")
    p.add_argument("--tau-max", type=int, default=20, help="maximum forecast horizon")
    p.add_argument("--rho-star", type=float, default=0.19, help="pooled MA(1) coefficient")
    p.set_defaults(func=cmd_hindcast)

    p = sub.add_parser("diagnose", help="distribution checks on a hindcast error CSV")
    p.add_argument("--errors", required=True, help="errors.csv from the hindcast command")
    p.add_argument("--params", default=None, help="params.csv for the identity/volatility checks")
    p.add_argument("--reference", choices=("student", "normal"), default="student")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="synthetic datasets, bands, calibration studies")
    p.add_argument("--n-tech", type=int, default=200)
    p.add_argument("--periods", type=int, default=50)
    p.add_argument("--g", type=float, default=0.1)
    p.add_argument("--sigma-q", type=float, default=0.1)
    p.add_argument("--omega", type=float, default=-0.3)
    p.add_argument("--sigma-eta", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.0, help="generator MA(1) coefficient")
    p.add_argument("--ensembles", type=int, default=1000)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--tau-max", type=int, default=20)
    p.add_argument("--rho-star", type=float, default=0.19)
    p.add_argument("--shared-production", action="store_true")
    p.add_argument(
        "--no-correction",
        action="store_true",
        help="plain cumulative production instead of the initial-stock correction",
    )
    p.add_argument("--mimic", default=None, help="params.csv whose rows set per-technology parameters")
    p.add_argument("--calibration", action="store_true", help="run the theory calibration study")
    p.add_argument("--variance", choices=("estimated", "true"), default="estimated")
    p.add_argument("--iid-windows", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("forecast", help="distributional forecast for one technology")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", default=None, help="data CSV (fits parameters on the full sample)")
    source.add_argument(
        "--params", default=None, help="parameter table (uses a constant-growth anchor)"
    )
    p.add_argument("--tech", required=True)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--future-growth", type=float, default=None)
    p.add_argument("--rho-star", type=float, default=0.19)
    p.add_argument("--theta-star", type=float, default=0.23)
    p.set_defaults(func=cmd_forecast)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
