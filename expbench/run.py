"""expcurve benchmark: one seeded workload per run, timed and checked.

Usage, from the root of a checkout:

    python3 expbench/run.py --workload cli-chain --seed 7 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``cli-chain``, ``ensemble-mimic`` and
``library-pool``. The package is imported from ``src/`` of the checkout.

With ``--trace 0`` the run sets up several times, then repeats passes for
``--seconds`` with tracing off and reports the end-to-end metrics. With
``--trace 1`` it spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics, the tracing overhead, a per-layer
table and a span dump. Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run reports and span dumps go to
``.expbench_out/`` in the checkout.

After the timed passes every run makes one untimed pass of the same workload
at the reference seed and sizes and compares its outputs with
``expbench/reference/<workload>.json``. ``--capture-reference`` rewrites that
file; use it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".expbench_out"
SETUP_REPEATS = 5
MAX_PROBLEMS_SHOWN = 10

END_TO_END = {"setup_s": "s", "pass_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "estimators.fit_wright_ma1.s": "s",
    "estimators.fit_wright_ma1.calls": "count",
    "hindcast.run_hindcast.s": "s",
    "hindcast.run_hindcast.self_s": "s",
    "hindcast.run_hindcast.records": "count",
    "hindcast.write_errors_csv.s": "s",
    "hindcast.write_errors_csv.rows": "count",
    "hindcast.read_errors_csv.s": "s",
    "hindcast.pooled_errors.s": "s",
    "hindcast.mse_by_horizon.s": "s",
    "hindcast.mse_by_horizon.calls": "count",
    "variance.ma1_variance_constant_x.s": "s",
    "variance.ma1_variance_constant_x.calls": "count",
    "series.ingest_csv.s": "s",
    "series.ingest_csv.rows": "count",
    "series.build_experience.s": "s",
    "series.write_csv.s": "s",
    "surrogate.make_dataset.s": "s",
    "surrogate.make_dataset.calls": "count",
    "surrogate.gen_production.calls": "count",
    "surrogate.production_accept_ratio": "ratio",
    "surrogate.run_ensemble.self_s": "s",
    "diagnostics.ecdf_vs_reference.s": "s",
    "diagnostics.ecdf_vs_reference.n": "count",
    "diagnostics.pit.s": "s",
    "forecast.forecast_wright.s": "s",
    "forecast.forecast_moore.s": "s",
    "cli.cmd_estimate.self_s": "s",
    "cli.cmd_hindcast.self_s": "s",
    "cli.cmd_diagnose.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "trace.overhead_s": "s",
}

# ROADMAP Baseline figures (200 series, T=50; 2-core sandbox, Python 3.11.7):
# (label, seconds, work, span, field, unit of work, how the work is counted).
BASELINE = (
    ("run_hindcast 200x50 uncapped", 4.3, 396_000, "hindcast.run_hindcast", "s", "records", "hindcast.run_hindcast"),
    ("pooled_errors, per call", 3.6, 396_000, "hindcast.pooled_errors", "per_call", "records", "hindcast.run_hindcast"),
    ("fit_wright_ma1 x200", 7.0, 200, "estimators.fit_wright_ma1", "s", "calls", "estimators.fit_wright_ma1"),
    ("read_errors_csv", 3.6, 276_000, "hindcast.read_errors_csv", "s", "rows", "hindcast.read_errors_csv"),
    ("write_errors_csv", 2.3, 276_000, "hindcast.write_errors_csv", "s", "rows", "hindcast.write_errors_csv"),
    ("diagnose command", 7.3, 276_000, "cli.cmd_diagnose", "s", "error rows", "hindcast.read_errors_csv"),
    ("estimate command", 5.4, 200, "cli.cmd_estimate", "s", "MA(1) fits", "estimators.fit_wright_ma1"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli-chain", "ensemble-mimic", "library-pool"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-reference", action="store_true")
    return p.parse_args(argv)


def loadavg_1min():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit(root: Path):
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timing_summary(samples) -> dict:
    """Median and count, plus the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(ordered, n=1000, method="inclusive")[int(pct * 10) - 1]
            break
    return out


class Verifier:
    """Counts operations and failures; checks each operation's outputs.

    The first successful run of an operation gets the full check; later runs
    must reproduce its outputs byte for byte.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, results) -> None:
        for op, _seconds, error, result in results:
            self.attempted += 1
            if error:
                problems = [error]
            else:
                fp = self.workload.fingerprint(op, result)
                if op not in self.first:
                    self.first[op] = (fp, self.workload.check(op, result))
                first_fp, problems = self.first[op]
                if fp != first_fp:
                    problems = ["output differs from the first pass"]
            if problems:
                self.failed += 1
                if len(self.problems) < MAX_PROBLEMS_SHOWN:
                    self.problems.append(f"{op}: " + "; ".join(problems[:3]))


def run_passes(workload, verify, seconds, tracer=None, tag="pass"):
    """Repeat passes until ``seconds`` have elapsed (at least one)."""
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        pass_id = f"{tag}{len(samples)}"
        if tracer is not None:
            tracer.pass_id = pass_id
        t = perf_counter()
        results = workload.run_pass()
        pass_s = perf_counter() - t
        if tracer is not None:
            tracer.pass_id = None
        verify(results)
        samples.append({"id": pass_id, "pass_s": pass_s, "stages": workload.stage_times(results)})
        del results
    return samples


def per_layer_metrics(rows: dict, overhead_s: float) -> dict:
    def get(span, field):
        row = rows.get(span)
        return row[field] if row else 0

    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "surrogate.production_accept_ratio":
            calls = get("surrogate.gen_production", "calls")
            values[name] = get("surrogate.make_dataset", "count") / calls if calls else 0.0
        else:
            span, field = name.rsplit(".", 1)
            values[name] = get(span, field if field in ("s", "self_s", "calls") else "count")
    return values


def print_layer_table(rows: dict) -> None:
    print("per-layer table (median over traced passes; s = total span time, self_s = minus child spans)")
    print(f"  {'span':42s} {'calls':>9s} {'s':>10s} {'self_s':>10s}  work")
    for name in sorted(rows, key=lambda n: -rows[n]["s"]):
        r = rows[name]
        work = f"{r['count']:g} {r['label']}" if r["label"] else ""
        print(f"  {name:42s} {r['calls']:9g} {r['s']:10.4f} {r['self_s']:10.4f}  {work}")


def print_baseline(rows: dict) -> None:
    print("ROADMAP Baseline (200 series, T=50) next to the traced numbers here; information only")
    for label, base_s, base_work, span, field, unit, work_span in BASELINE:
        row, work_row = rows.get(span), rows.get(work_span)
        if not row or not work_row or not row["calls"]:
            continue
        work = work_row["count"] if work_row["label"] else work_row["calls"]
        here = row["s"] / row["calls"] if field == "per_call" else row["s"]
        scaled = here * base_work / work if work else float("nan")
        print(f"  {label:30s} baseline {base_s:6.2f} s at {base_work} {unit}; "
              f"traced {here:8.4f} s at {work:g} {unit} ({scaled:.2f} s scaled to {base_work})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expcurve" / "__init__.py").is_file():
        print(f"error: no expcurve package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    load_start = loadavg_1min()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import expcurve
    import expcurve.cli

    import_s = perf_counter() - t0
    if Path(expcurve.__file__).resolve().parent != (SRC / "expcurve").resolve():
        print(f"error: expcurve imported from {expcurve.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](expcurve, expcurve.cli, workdir, args.seed)
    try:
        if args.capture_reference:
            return capture_reference(
                workloads.WORKLOADS[args.workload](expcurve, expcurve.cli, workdir, args.seed, reference=True)
            )
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            workload.setup()
            gen_s.append(perf_counter() - t)
        setup_s = import_s + statistics.median(gen_s)

        verify = Verifier(workload)
        tracer = None
        if args.trace:
            untraced = run_passes(workload, verify, args.seconds / 2, tag="untraced")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                samples = run_passes(workload, verify, args.seconds / 2, tracer, tag="traced")
            finally:
                tracer.uninstall()
        else:
            samples = run_passes(workload, verify, args.seconds)
        # Untimed: the same workload at the reference seed and sizes, compared
        # with the stored outputs.
        reference = workloads.WORKLOADS[args.workload](
            expcurve, expcurve.cli, workdir / "reference", args.seed, reference=True
        )
        reference.setup()
        verify_reference = Verifier(reference)
        verify_reference(reference.run_pass())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = workload.records_per_pass()
    pass_s = [s["pass_s"] for s in samples]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": loadavg_1min(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"set-up: import {import_s:.4f} s, input generation median {statistics.median(gen_s):.4f} s "
          f"over {len(gen_s)} repeats")
    report = {"meta": meta, "import_s": import_s, "generation_s": gen_s, "samples": samples}

    if args.trace:
        untraced_s = [s["pass_s"] for s in untraced]
        overhead_s = statistics.median(pass_s) - statistics.median(untraced_s)
        traced_ids = [s["id"] for s in samples]
        rows = tracing.median_rows(tracing.layer_table(tracer.spans), traced_ids)
        print_layer_table(rows)
        print(f"trace.overhead_s = {overhead_s:.4f} s (traced pass median over {len(pass_s)} minus "
              f"untraced over {len(untraced_s)})")
        print_baseline(rows)
        dump = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        tracer.dump(dump)
        print(f"span dump: {dump} ({len(tracer.spans)} spans)")
        values = per_layer_metrics(rows, overhead_s)
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        report["untraced"] = untraced
        report["per_layer_rows"] = rows
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(pass_s),
            "records_per_s": statistics.median(records / s for s in pass_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        timings = {"pass_s": pass_s}
        for s in samples:
            for stage, seconds in s["stages"].items():
                timings.setdefault(stage, []).append(seconds)
        for name, seconds in timings.items():
            summary = timing_summary(seconds)
            print(f"{name}: median {summary.pop('median'):.4f} s, n {summary.pop('n')}"
                  + "".join(f", {k} {v:.4f} s" for k, v in summary.items()))
        if args.workload == "ensemble-mimic":
            n = workload.N_REPLICATES
            print(f"replicates_per_s: median {statistics.median(n / s for s in pass_s):.4f} 1/s "
                  f"({n} replicates per pass)")
        print(f"records_per_s: {records} hindcast records per pass")

    attempted = verify.attempted + verify_reference.attempted
    failed = verify.failed + verify_reference.failed
    error_rate = failed / attempted
    print(f"error_rate = {failed}/{attempted} = {error_rate:g} "
          f"({verify_reference.attempted} of them at the reference seed and sizes)")
    for problem in verify.problems + [f"reference {p}" for p in verify_reference.problems]:
        print(f"failed: {problem}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    report["metrics"] = metrics
    report["error_rate"] = error_rate
    report["problems"] = verify.problems + verify_reference.problems
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=float)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def capture_reference(workload) -> int:
    workload.setup()
    ops = {}
    for op, _seconds, error, result in workload.run_pass():
        problems = [error] if error else workload.invariants(op, result)
        if problems:
            print(f"error: {op} fails its invariants: {problems}", file=sys.stderr)
            return 1
        ops[op] = workload.describe(op, result)
    path = workload.reference_path()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": workload.name, "seed": workload.seed, "ops": ops},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
