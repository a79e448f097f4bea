"""Command-line surface.

Subcommands: ``estimate`` (parameter table from a cost/production CSV),
``hindcast`` (rolling-origin errors), ``diagnose`` (distribution checks on a
hindcast CSV), ``simulate`` (synthetic datasets, ensemble bands, calibration
studies), ``forecast`` (distributional forecasts for one technology).

A command only computes: it returns its outputs (file name to writer, in
write order), its options and its input files. :func:`main` does every write.
It creates ``--output-dir``, runs the command, writes each output and then a
``<command>_manifest.txt`` to a temp file and, only once every write has
succeeded, renames them into place, the manifest last. So a run that fails
to compute or write removes its temp files and leaves ``--output-dir`` as it
was (empty if it was created); only a failed rename can leave part of a run.
The manifest records the command, the seed, the package version, the
options and a SHA-256 of each input file, hashed before any output is
written. The options are the parsed namespace less the entries in
``_NOT_OPTIONS``: the command and the seed, ``--threads`` (accepted, with no
effect) and ``--output-dir``, and the file inputs. A command adds what it
derives (``forecast`` whether it used the bundled table). ``simulate
--calibration`` keeps the six options its study reads; the other
``simulate`` modes drop ``variance`` and ``iid_windows`` and record
``mimic`` as a flag, ``n_tech`` as generated and ``periods`` as
``per-technology`` under ``--mimic``. So identical manifests mean
bit-identical outputs. All floats are serialized with 17 significant
digits, so piping one command's CSV into the next loses no precision.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _csvio
from .diagnostics import ecdf_vs_reference, ks_critical_value, sahal_check, tanh_check
from .estimators import (
    RHO_STAR, THETA_STAR, MooreParams, WrightParams, fit_moore, fit_wright, full_sample_estimates
)
from .forecast import (
    compare_forecasts,
    constant_growth_series,
    forecast_moore,
    forecast_wright,
)
from .hindcast import (
    MODELS,
    HindcastConfig,
    _model_slice,
    mse_curve,
    read_error_columns,
    run_hindcast,
    write_errors_csv,
)
from .params_io import read_params_csv, reference_params_path, write_params_csv
from .series import DataError, build_experience, ingest_csv, write_csv
from .surrogate import SurrogateSpec, make_dataset, run_calibration_study, run_ensemble


def _csv(header, *blocks):
    """A writer of one CSV: ``header`` and the rows of each block."""
    return lambda path: _csvio.write_csv(path, header, *blocks)


def _text(text: str):
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# Parsed entries that are not options: the command and the seed, which have
# lines of their own, what has no effect on the outputs, and the file inputs,
# which are recorded by SHA-256.
_NOT_OPTIONS = {
    "command", "seed", "threads", "output_dir", "func", "input", "errors", "params", "mimic"
}


def _options(args, **derived) -> dict:
    """The options of a parsed command line, with the values it derives."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS} | derived


def _manifest(args, options: dict, inputs: dict) -> str:
    lines = [f"command={args.command}", f"seed={args.seed}", f"version={__version__}"]
    for key in sorted(options):
        lines.append(f"option.{key}={options[key]}")
    for name in sorted(inputs):
        lines.append(f"input.{name}.sha256={_sha256(inputs[name])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- estimate


def cmd_estimate(args) -> tuple[dict, dict, dict]:
    dataset = build_experience(ingest_csv(args.input))
    if not len(dataset):
        raise DataError("data CSV has no rows")
    table = full_sample_estimates(dataset)
    outputs = {"params.csv": lambda p: write_params_csv(p, table)}
    if args.emit_series:
        outputs["series.csv"] = lambda p: write_csv(p, dataset)
    return outputs, _options(args), {"data": args.input}


# ----------------------------------------------------------------- hindcast


def _check_reach(T, cfg: HindcastConfig) -> None:
    """Reject series lengths ``T`` of which none gives one error: a window
    of ``m`` differences plus one forecast."""
    if np.max(T, initial=0) < cfg.m + 2:
        raise ValueError(f"no series has the m + 2 = {cfg.m + 2} periods that one error needs")


def cmd_hindcast(args) -> tuple[dict, dict, dict]:
    cfg = HindcastConfig(m=args.m, tau_max=args.tau_max, rho=args.rho_star)
    dataset = build_experience(ingest_csv(args.input))
    _check_reach(dataset.T, cfg)
    errors = run_hindcast(dataset, cfg)
    return {"errors.csv": lambda p: write_errors_csv(p, errors)}, _options(args), {"data": args.input}


# ----------------------------------------------------------------- diagnose


def cmd_diagnose(args) -> tuple[dict, dict, dict]:
    """ECDF, PIT and KS checks of the pooled errors of a hindcast CSV.

    Reads only the ``model``, ``tau``, ``A`` and ``pooled_error`` columns
    and the window size ``m`` the reader recovers from ``tau`` and ``A``, so
    the other columns may be missing or hold anything. The moore and wright
    rows must alternate, as a hindcast writes them; the Student reference
    takes ``m - 1`` degrees of freedom from the most common ``m``.
    """
    errors = read_error_columns(args.errors, ("model", "tau", "A", "pooled_error"))
    if not len(errors["tau"]):
        raise DataError("error CSV has no rows")
    # the most common window size; a tie goes to the smaller one
    sizes, counts = np.unique(errors["m"], return_counts=True)
    m = int(sizes[np.argmax(counts)])
    df = m - 1 if args.reference == "student" else None

    summary = [f"reference={args.reference}", f"df={df}", f"window_m={m}"]
    ecdf_blocks, pit_blocks = [], []
    for model in MODELS:
        vals = errors["pooled_error"][_model_slice(errors["model"], model)]
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
    outputs = {
        "ecdf.csv": _csv(["model", "value", "ecdf", "ref_cdf"], *ecdf_blocks),
        "pit.csv": _csv(["model", "pit"], *pit_blocks),
    }

    inputs = {"errors": args.errors}
    if args.params:
        inputs["params"] = args.params
        table = read_params_csv(args.params)
        outputs["sahal.csv"] = _csv(
            ["technology", "omega", "mu_over_r", "residual"],
            [table["technology"], table["omega"], *sahal_check(table["mu"], table["r"], table["omega"])],
        )
        growing = table[table["g"] > 0]
        skipped = len(table) - len(growing)
        outputs["tanh.csv"] = _csv(
            ["technology", "g", "sigma_q", "r", "sigma_x_observed", "sigma_x_theory"],
            [growing[c] for c in ("technology", "g", "sigma_q", "r", "sigma_x")]
            + [tanh_check(growing["g"], growing["sigma_q"])],
        )
        summary.append(f"sahal: n={len(table)}")
        summary.append(f"tanh: n={len(growing)} skipped_nonpositive_growth={skipped}")

    outputs["summary.txt"] = _text("\n".join(summary) + "\n")
    return outputs, _options(args), inputs


# ----------------------------------------------------------------- simulate


def cmd_simulate(args) -> tuple[dict, dict, dict]:
    options, inputs = _options(args), {}
    if args.calibration:
        study = ("m", "variance", "iid_windows", "n_tech", "periods")
        result = run_calibration_study(**{k: options[k] for k in study}, seed=args.seed)
        check = result.check
        outputs = {
            "calibration_ecdf.csv": _csv(
                ["value", "ecdf", "ref_cdf"], [check.sample, check.ecdf, check.ref_cdf]
            ),
            "calibration_pit.csv": _csv(["pit"], [result.pit_values]),
            "summary.txt": _text(
                f"n={len(result.normalized)}\nreference={result.reference}\n"
                f"df={result.df}\nks={result.ks_stat:.6f}\n"
                f"ks_critical_1pct={ks_critical_value(len(result.normalized)):.6f}\n"
            ),
        }
        # the options the study reads
        return outputs, {k: options[k] for k in ("calibration", *study)}, inputs

    if args.mimic:
        table = read_params_csv(args.mimic)
        inputs["mimic"] = args.mimic
        generator = {f: table[f] for f in ("T", "g", "sigma_q", "omega", "sigma_eta")}
        generator.update(n_tech=len(table), rho=args.rho_star)
    else:
        generator = {f: options[f] for f in ("n_tech", "g", "sigma_q", "omega", "sigma_eta", "rho")}
        generator["T"] = args.periods
    spec = SurrogateSpec(
        **generator,
        seed=args.seed,
        n_ensembles=args.ensembles or 1,
        shared_production=args.shared_production,
        corrected_experience=not args.no_correction,
    )
    cfg = HindcastConfig(m=args.m, tau_max=args.tau_max, rho=args.rho_star)
    bands, first = {}, []
    if args.ensembles > 0:
        _check_reach(spec.T, cfg)

        def statistic(dataset):
            if not first:  # run_ensemble builds replicate 0 first
                first.append(dataset)
            return mse_curve(dataset, cfg)

        # one row per model, one column per horizon; nan where no error reaches it
        result = run_ensemble(spec, statistic)
        grid = np.arange(1, cfg.tau_max + 1, dtype=float)
        for k, model in enumerate(MODELS):
            bands[f"bands_{model}.csv"] = _csv(
                ["grid", "stat_mean", "lo", "hi"],
                [grid, result.mean[k], result.lower[k], result.upper[k]],
            )
    # replicate 0 is kept from the ensemble, not built again: a mimic dataset
    # is 946 rows, about 40 KB
    dataset = first[0] if first else make_dataset(spec, 0)
    outputs = {"dataset.csv": lambda p: write_csv(p, dataset)} | bands

    periods = "per-technology" if args.mimic else args.periods
    options.update(mimic=bool(args.mimic), n_tech=spec.n_tech, periods=periods)
    del options["variance"], options["iid_windows"]  # calibration only
    return outputs, options, inputs


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


# What a forecast needs of a parameter row: T and r build the series it
# starts from, and K and sigma_eta are scales.
_ROW_NEEDS = {
    "T": (lambda v: v >= 3, "at least 3"),
    "mu": (math.isfinite, "finite"),
    "K": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "r": (lambda v: 0 < v < math.inf, "finite and positive"),
    "omega": (math.isfinite, "finite"),
    "sigma_eta": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
}


def cmd_forecast(args) -> tuple[dict, dict, dict]:
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
        values = dict(zip(_ROW_NEEDS, rows[-1][list(_ROW_NEEDS)].item()))
        for name, (meets, need) in _ROW_NEEDS.items():
            if not meets(values[name]):
                raise DataError(f"parameter row of '{args.tech}': {name} is {values[name]}, not {need}")
        T, mu, K, r, omega, sigma_eta = values.values()
        series = constant_growth_series(args.tech, T=T, r=r, mu=mu)
        wparams = WrightParams(omega=omega, sigma_eta=sigma_eta, m=T - 1)
        mparams = MooreParams(mu=mu, K=K, m=T - 1)
    outputs = {}
    # finite parameters can still overflow a float; such a run is refused
    with np.errstate(over="ignore", invalid="ignore"):
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
            if not all(np.isfinite(c).all() for c in columns.values()):
                raise DataError(f"{args.tech}: the {fc.model} forecast overflows a float")
            outputs[name] = _csv(list(columns), columns.values())
    comp = compare_forecasts(fw, fm)
    outputs["comparison.csv"] = _csv(
        ["tau", "mean_diff_wright_minus_moore", "band_width_ratio"],
        [comp[:, 0].astype(np.int64), comp[:, 1], comp[:, 2]],
    )
    return outputs, _options(args, reference_params=not (args.input or args.params)), inputs


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
    # the hindcast options, which `simulate` reads for its bands
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--m", type=int, default=5, help="window size in differences")
    window.add_argument("--tau-max", type=int, default=20, help="maximum forecast horizon")
    window.add_argument("--rho-star", type=float, default=RHO_STAR, help="pooled MA(1) coefficient")

    p = sub.add_parser("estimate", help="whole-sample parameter table from a data CSV")
    p.add_argument("--input", required=True, help="CSV: technology,year,cost,production")
    p.add_argument(
        "--emit-series",
        action="store_true",
        help="also write the series with derived experience columns",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("hindcast", parents=[window], help="rolling-origin pseudo-forecast errors")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_hindcast)

    p = sub.add_parser("diagnose", help="distribution checks on a hindcast error CSV")
    p.add_argument("--errors", required=True, help="errors.csv from the hindcast command")
    p.add_argument("--params", default=None, help="params.csv for the identity/volatility checks")
    p.add_argument("--reference", choices=("student", "normal"), default="student")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "simulate", parents=[window], help="synthetic datasets, bands, calibration studies"
    )
    p.add_argument("--n-tech", type=int, default=200)
    p.add_argument("--periods", type=int, default=50)
    p.add_argument("--g", type=float, default=0.1)
    p.add_argument("--sigma-q", type=float, default=0.1)
    p.add_argument("--omega", type=float, default=-0.3)
    p.add_argument("--sigma-eta", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.0, help="generator MA(1) coefficient")
    p.add_argument("--ensembles", type=int, default=1000)
    p.add_argument("--shared-production", action="store_true")
    p.add_argument(
        "--no-correction",
        action="store_true",
        help="plain cumulative production instead of the initial-stock correction",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mimic", default=None, help="params.csv whose rows set per-technology parameters")
    mode.add_argument("--calibration", action="store_true", help="run the theory calibration study")
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
    p.add_argument("--rho-star", type=float, default=RHO_STAR)
    p.add_argument("--theta-star", type=float, default=THETA_STAR)
    p.set_defaults(func=cmd_forecast)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.output_dir)
    temps = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        outputs, options, inputs = args.func(args)
        outputs[f"{args.command}_manifest.txt"] = _text(_manifest(args, options, inputs))
        for name, writer in outputs.items():
            temps.append(out / (name + ".tmp"))
            writer(temps[-1])
        for name, tmp in zip(outputs, temps):  # the manifest last
            os.replace(tmp, out / name)
    except (DataError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for tmp in temps:  # what a failure left unrenamed
            tmp.unlink(missing_ok=True)
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
