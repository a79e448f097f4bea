"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass of
operations through the package's public entry points in ``run_pass``, and
checks each operation's outputs in ``check`` against invariants that hold
for every seed and size.

A reference instance (``reference=True``) runs the same workload at
``DEFAULT_SEED`` and the smaller ``REFERENCE_SIZES``; its outputs are also
compared, element by element, with the outputs stored in ``reference/``.

An operation is one CLI command or one library pass. ``run_pass`` returns
``(op, seconds, error, result)`` per operation; ``error`` is set on a
non-zero exit or an exception.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

DEFAULT_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ERROR_COLUMNS = (
    "technology,origin_year,tau,model,raw_error,K_hat,sigma_eta_hat,A,normalized_error,pooled_error"
)
PARAMS_COLUMNS = "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho"


def hindcast_records(T: int, m: int, tau_max) -> int:
    """Records one series of length T yields (both models): criterion 8."""
    total = 0
    for o in range(m, T - 1):
        reach = T - 1 - o
        total += reach if tau_max is None else min(tau_max, reach)
    return 2 * total


def manifest(path) -> dict:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


class Workload:
    """Base of the workloads. A subclass provides ``setup()``,
    ``fingerprint_inputs()`` (digest of the generated inputs), ``run_pass()``,
    ``records_per_pass()`` (hindcast records one pass produces), and per
    operation ``fingerprint``, ``invariants``, ``describe`` (its reference
    entry) and ``compare`` (against that entry)."""

    name = ""
    ops: tuple = ()
    REFERENCE_SIZES: dict = {}

    def __init__(self, ec, cli, workdir: Path, seed: int, reference: bool = False):
        self.ec = ec
        self.cli = cli
        self.workdir = Path(workdir)
        self.seed = DEFAULT_SEED if reference else seed
        self.is_reference = reference
        if reference:
            vars(self).update(self.REFERENCE_SIZES)

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def stage_times(self, results) -> dict:
        """Seconds per stage of one pass: here, per operation."""
        return {f"{op}_s": seconds for op, seconds, _, _ in results}

    def check(self, op: str, result) -> list[str]:
        """Invariants; on a reference instance also the stored outputs."""
        problems = self.invariants(op, result)
        if self.is_reference:
            path = self.reference_path()
            ops = json.loads(path.read_text())["ops"] if path.is_file() else {}
            if op not in ops:
                problems.append(f"no reference for {self.name}/{op} in {path}")
            else:
                problems += self.compare(op, ops[op], result)
        return problems


class CliWorkload(Workload):
    """A workload whose operations are CLI commands (``argv(op)``) writing files."""

    outputs: dict = {}

    @property
    def out(self) -> Path:
        return self.workdir / "out"

    def run_cli(self, argv) -> tuple[float, str | None]:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            return perf_counter() - start, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if code != 0:
            return seconds, f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
        return seconds, None

    def run_pass(self) -> list:
        results = []
        for op in self.ops:
            seconds, error = self.run_cli(self.argv(op))
            results.append((op, seconds, error, None))
        return results

    def output_paths(self, op: str) -> list[Path]:
        return [self.out / name for name in self.outputs[op]]

    def fingerprint(self, op: str, result) -> str:
        return checks.digest_files(self.output_paths(op))

    def describe(self, op: str, result) -> dict:
        return {"files": {p.name: checks.describe_file(p) for p in self.output_paths(op)}}

    def compare(self, op: str, entry: dict, result) -> list[str]:
        problems = []
        for name, file_entry in entry["files"].items():
            problems += checks.compare_file(file_entry, self.out / name)
        return problems


class CliChain(CliWorkload):
    """``estimate``, ``hindcast``, ``diagnose`` and ``forecast`` commands on a
    seeded CSV written by ``simulate --ensembles 0``: the only workload with
    MA(1) fits, error-CSV write/read and ECDF/PIT CSV formatting."""

    name = "cli-chain"
    N_TECH, PERIODS, M, TAU_MAX, HORIZON, THREADS = 20, 50, 5, 20, 20, 2
    REFERENCE_SIZES = {"N_TECH": 3, "PERIODS": 16}
    ops = ("estimate", "hindcast", "diagnose", "forecast")
    outputs = {
        "estimate": ("params.csv", "estimate_manifest.txt"),
        "hindcast": ("errors.csv", "hindcast_manifest.txt"),
        "diagnose": ("ecdf.csv", "pit.csv", "summary.txt", "sahal.csv", "tanh.csv", "diagnose_manifest.txt"),
        "forecast": ("forecast_wright.csv", "forecast_moore.csv", "comparison.csv", "forecast_manifest.txt"),
    }

    @property
    def data(self) -> Path:
        return self.workdir / "input" / "dataset.csv"

    def setup(self) -> None:
        seconds, error = self.run_cli(
            ["--seed", self.seed, "--output-dir", self.data.parent, "simulate",
             "--n-tech", self.N_TECH, "--periods", self.PERIODS, "--ensembles", 0]
        )
        if error:
            raise RuntimeError(f"set-up failed: {error}")

    def fingerprint_inputs(self) -> str:
        return checks.sha256_file(self.data)

    def argv(self, op: str) -> list:
        common = ["--threads", self.THREADS, "--output-dir", self.out]
        return common + {
            "estimate": ["estimate", "--input", self.data],
            "hindcast": ["hindcast", "--input", self.data, "--m", self.M, "--tau-max", self.TAU_MAX],
            "diagnose": ["diagnose", "--errors", self.out / "errors.csv", "--params", self.out / "params.csv"],
            "forecast": ["forecast", "--tech", "Photovoltaics", "--horizon", self.HORIZON],
        }[op]

    def records_per_pass(self) -> int:
        return self.N_TECH * hindcast_records(self.PERIODS, self.M, self.TAU_MAX)

    def invariants(self, op: str, result) -> list[str]:
        out = self.out
        problems = []
        for p in self.output_paths(op):
            if not p.is_file():
                return [f"{op}: {p.name} missing"]
        man = manifest(out / f"{op}_manifest.txt")
        if man.get("command") != op:
            problems.append(f"{op}: manifest command {man.get('command')!r}")

        def expect(what, got, want):
            if got != want:
                problems.append(f"{op}: {what} is {got}, expected {want}")

        if op == "estimate":
            expect("params.csv header", (out / "params.csv").read_text().split("\n", 1)[0], PARAMS_COLUMNS)
            expect("params.csv rows", checks.data_rows(out / "params.csv"), self.N_TECH)
            expect("input digest", man.get("input.data.sha256"), checks.sha256_file(self.data))
        elif op == "hindcast":
            with open(out / "errors.csv", encoding="utf-8") as fh:
                expect("errors.csv header", fh.readline().rstrip("\r\n"), ERROR_COLUMNS)
            expect("errors.csv rows", checks.data_rows(out / "errors.csv"), self.records_per_pass())
            expect("input digest", man.get("input.data.sha256"), checks.sha256_file(self.data))
        elif op == "diagnose":
            summary = (out / "summary.txt").read_text()
            kept = 0
            for model in ("moore", "wright"):
                found = re.search(rf"^{model}: n=(\d+) dropped_nan=(\d+) ks=([0-9.]+)", summary, re.M)
                if not found:
                    problems.append(f"diagnose: no {model} line in summary.txt")
                    continue
                n, dropped, ks = int(found[1]), int(found[2]), float(found[3])
                kept += n
                expect(f"{model} n + dropped", n + dropped, self.records_per_pass() // 2)
                if not 0.0 < ks < 1.0:
                    problems.append(f"diagnose: {model} ks={ks} outside (0, 1)")
            expect("ecdf.csv rows", checks.data_rows(out / "ecdf.csv"), kept)
            expect("pit.csv rows", checks.data_rows(out / "pit.csv"), kept)
            expect("sahal.csv rows", checks.data_rows(out / "sahal.csv"), self.N_TECH)
            skipped = re.search(r"skipped_nonpositive_growth=(\d+)", summary)
            expect(
                "tanh.csv rows + skipped",
                checks.data_rows(out / "tanh.csv") + (int(skipped[1]) if skipped else -1),
                self.N_TECH,
            )
            expect("errors digest", man.get("input.errors.sha256"), checks.sha256_file(out / "errors.csv"))
            expect("params digest", man.get("input.params.sha256"), checks.sha256_file(out / "params.csv"))
        elif op == "forecast":
            for name in ("forecast_wright.csv", "forecast_moore.csv", "comparison.csv"):
                expect(f"{name} rows", checks.data_rows(out / name), self.HORIZON)
        return problems


class EnsembleMimic(CliWorkload):
    """``simulate --mimic`` on the bundled reference table: every replicate
    holds 51 series of 8 to 78 periods, so many small hindcasts, per-replicate
    overhead and the ``run_ensemble`` thread pool; no MA(1) fit, no error CSV."""

    name = "ensemble-mimic"
    N_REPLICATES, M, TAU_MAX, THREADS = 10, 5, 20, 2
    MIMIC_ROWS = None  # all rows of the bundled table
    REFERENCE_SIZES = {"N_REPLICATES": 2, "MIMIC_ROWS": 6}
    ops = ("simulate",)
    outputs = {"simulate": ("dataset.csv", "bands_moore.csv", "bands_wright.csv", "simulate_manifest.txt")}

    def setup(self) -> None:
        self.params_path = self.ec.params_io.reference_params_path()
        if self.MIMIC_ROWS:
            lines = self.params_path.read_text(encoding="utf-8").splitlines(keepends=True)
            self.params_path = self.workdir / "input" / "mimic.csv"
            self.params_path.parent.mkdir(parents=True, exist_ok=True)
            self.params_path.write_text("".join(lines[: self.MIMIC_ROWS + 1]), encoding="utf-8")
        self.lengths = [int(r["T"]) for r in self.ec.read_params_csv(self.params_path)]

    def fingerprint_inputs(self) -> str:
        paths = {str(self.out), str(self.params_path)}
        argv = [str(a) for a in self.argv("simulate") if str(a) not in paths]
        return checks.sha256_bytes(
            (" ".join(argv) + checks.sha256_file(self.params_path)).encode()
        )

    def argv(self, op: str) -> list:
        return ["--seed", self.seed, "--threads", self.THREADS, "--output-dir", self.out,
                "simulate", "--mimic", self.params_path, "--ensembles", self.N_REPLICATES,
                "--m", self.M, "--tau-max", self.TAU_MAX]

    def records_per_pass(self) -> int:
        return self.N_REPLICATES * sum(hindcast_records(T, self.M, self.TAU_MAX) for T in self.lengths)

    def invariants(self, op: str, result) -> list[str]:
        out = self.out
        for p in self.output_paths(op):
            if not p.is_file():
                return [f"simulate: {p.name} missing"]
        problems = []
        if checks.data_rows(out / "dataset.csv") != sum(self.lengths):
            problems.append(f"dataset.csv rows {checks.data_rows(out / 'dataset.csv')} != {sum(self.lengths)}")
        for model in ("moore", "wright"):
            rows = [line.split(",") for line in (out / f"bands_{model}.csv").read_text().splitlines()[1:]]
            if [float(r[0]) for r in rows] != [float(t) for t in range(1, self.TAU_MAX + 1)]:
                problems.append(f"bands_{model}.csv grid is not 1..{self.TAU_MAX}")
                continue
            vals = np.array([[float(v) for v in r[1:]] for r in rows])
            if not np.all(np.isfinite(vals)) or np.any(vals < 0) or np.any(vals[:, 1] > vals[:, 2]):
                problems.append(f"bands_{model}.csv has non-finite, negative or crossed bands")
        man = manifest(out / "simulate_manifest.txt")
        for key, want in (
            ("command", "simulate"),
            ("seed", str(self.seed)),
            ("option.ensembles", str(self.N_REPLICATES)),
            ("input.mimic.sha256", checks.sha256_file(self.params_path)),
        ):
            if man.get(key) != want:
                problems.append(f"simulate manifest {key}={man.get(key)!r}, expected {want!r}")
        return problems


class LibraryPool(Workload):
    """The README quick tour in memory: uncapped ``run_hindcast`` without a
    thread pool, ``pooled_errors`` at two rho (no CLI command calls it),
    ECDF/PIT, MSE tables and a per-record attribute scan."""

    name = "library-pool"
    N_TECH, PERIODS, M, RHO, DF = 20, 50, 5, 0.19, 4
    REFERENCE_SIZES = {"N_TECH": 3, "PERIODS": 16}
    ops = ("pass",)

    def setup(self) -> None:
        ec = self.ec
        spec = ec.SurrogateSpec(n_tech=self.N_TECH, T=self.PERIODS, seed=self.seed, n_ensembles=1)
        self.dataset = ec.make_dataset(spec, 0)

    def fingerprint_inputs(self) -> str:
        h = hashlib.sha256()
        for ts in self.dataset:
            for arr in (ts.cost, ts.production, ts.experience):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def records_per_pass(self) -> int:
        return self.N_TECH * hindcast_records(self.PERIODS, self.M, None)

    def run_pass(self) -> list:
        ec = self.ec
        start = perf_counter()
        try:
            errs = ec.run_hindcast(self.dataset, ec.HindcastConfig(m=self.M, tau_max=None, rho=self.RHO))
            t_hindcast = perf_counter()
            pooled = ec.pooled_errors(errs, ec.HindcastConfig(m=self.M, tau_max=None, rho=self.RHO))
            repooled = ec.pooled_errors(errs, ec.HindcastConfig(m=self.M, tau_max=None, rho=0.0))
            t_pool = perf_counter()
            finite = pooled[np.isfinite(pooled)]
            dist = ec.ecdf_vs_reference(finite, "student", df=self.DF)
            pit = ec.pit(finite, "student", df=self.DF)
            mse = {norm: ec.mse_by_horizon(errs, norm) for norm in ("moore", "pooled")}
            scan = [e.pooled_error for e in errs if e.model == "moore"]
        except Exception as exc:
            return [("pass", perf_counter() - start, f"{type(exc).__name__}: {exc}", None)]
        end = perf_counter()
        result = {
            "errs": errs, "pooled": pooled, "repooled": repooled, "dist": dist, "pit": pit,
            "mse": mse, "scan": scan,
            "stages": {"hindcast_s": t_hindcast - start, "pool_s": t_pool - t_hindcast, "diagnose_s": end - t_pool},
        }
        return [("pass", end - start, None, result)]

    def stage_times(self, results) -> dict:
        result = results[0][3]
        return result["stages"] if result else {}

    def values(self, result) -> dict:
        """Checked values of one pass, as JSON-ready data."""
        return {
            "records": len(result["errs"]),
            "pooled": [float(v) for v in result["pooled"]],
            "repooled": [float(v) for v in result["repooled"]],
            "ks": float(result["dist"].ks_stat),
            "pit": [float(v) for v in result["pit"]],
            "scan": [float(v) for v in result["scan"]],
            "mse": {
                norm: {str(tau): [float(v), int(n)] for tau, (v, n) in table.items()}
                for norm, table in result["mse"].items()
            },
        }

    def fingerprint(self, op: str, result) -> str:
        h = hashlib.sha256()
        for key in ("pooled", "repooled", "pit", "scan"):
            h.update(np.asarray(result[key], dtype=float).tobytes())
        h.update(repr((len(result["errs"]), result["dist"].ks_stat, result["mse"])).encode())
        return h.hexdigest()

    def invariants(self, op: str, result) -> list[str]:
        errs, pooled, repooled = result["errs"], result["pooled"], result["repooled"]
        n = self.records_per_pass()
        if len(errs) != n:
            return [f"{len(errs)} records, closed form gives {n}"]
        problems = []
        if len(pooled) != n or len(repooled) != n:
            problems.append("pooled arrays do not have one entry per record")
        is_moore = np.array([e.model == "moore" for e in errs])
        raw = np.array([e.raw_error for e in errs])
        A = np.array([e.A for e in errs])
        K = np.array([e.K_hat for e in errs])
        sig = np.array([e.sigma_eta_hat for e in errs])
        # Oracles: the random walk divides by K sqrt(A) at every rho; at rho = 0
        # the MA(1) constant-x variance reduces to sigma_eta^2 A.
        moore_oracle = raw[is_moore] / (K[is_moore] * np.sqrt(A[is_moore]))
        wright_oracle = raw[~is_moore] / (sig[~is_moore] * np.sqrt(A[~is_moore]))
        for label, got, want in (
            ("moore pooled", pooled[is_moore], moore_oracle),
            ("moore re-pooled", repooled[is_moore], moore_oracle),
            ("wright re-pooled at rho=0", repooled[~is_moore], wright_oracle),
            ("moore record field", np.asarray(result["scan"]), moore_oracle),
        ):
            if not np.allclose(got, want, rtol=1e-12, atol=checks.TOL, equal_nan=True):
                problems.append(f"{label} differs from its closed form")
        finite = np.isfinite(pooled).sum()
        if len(result["pit"]) != finite or len(result["dist"].sample) != finite:
            problems.append("ECDF/PIT sample size is not the finite pooled count")
        if not 0.0 < result["dist"].ks_stat < 1.0:
            problems.append(f"ks={result['dist'].ks_stat} outside (0, 1)")
        k = self.PERIODS - 1 - self.M
        for norm, table in result["mse"].items():
            counts = {tau: c for tau, (_, c) in table.items()}
            want = {tau: 2 * self.N_TECH * (k - tau + 1) for tau in range(1, k + 1)}
            if counts != want:
                problems.append(f"mse_by_horizon({norm}) counts differ from the closed form")
            if not all(math.isfinite(v) and v > 0 for v, _ in table.values()):
                problems.append(f"mse_by_horizon({norm}) has a non-positive or non-finite value")
        return problems

    def describe(self, op: str, result) -> dict:
        return {"values": self.values(result)}

    def compare(self, op: str, entry: dict, result) -> list[str]:
        return checks.compare_values(entry["values"], self.values(result), "library-pool")


WORKLOADS = {w.name: w for w in (CliChain, EnsembleMimic, LibraryPool)}

