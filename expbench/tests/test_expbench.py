"""Tests of the benchmark's own logic: span arithmetic, output checks and
seeded input generation.

Run from the root of a checkout: ``python3 -m pytest expbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import expcurve  # noqa: E402
import expcurve.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def span(sid, parent, start, end, name="m.f", thread=1, pass_id="p0", count=None):
    return Span(sid, parent, name, start, end, pass_id, thread, count)


class TestSelfTime:
    def test_union_of_children_from_two_threads(self):
        spans = [
            span(1, None, 0.0, 10.0, "m.outer"),
            span(2, 1, 1.0, 4.0, "m.inner", thread=2),
            span(3, 1, 3.0, 6.0, "m.inner", thread=3),  # overlaps span 2
            span(4, 1, 8.0, 12.0, "m.inner", thread=2),  # runs past its parent
            span(5, 2, 2.0, 3.0, "m.leaf", thread=2),
        ]
        selfs = tracing.self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
        assert selfs[2] == pytest.approx(3.0 - 1.0)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[5] == pytest.approx(1.0)

    def test_layer_table_sums_and_medians_per_pass(self):
        spans = [
            span(1, None, 0.0, 2.0, "m.outer", pass_id="a"),
            span(2, 1, 0.5, 1.0, "m.inner", pass_id="a"),
            span(3, None, 0.0, 4.0, "m.outer", pass_id="b"),
            span(4, 3, 1.0, 2.0, "m.inner", pass_id="b"),
            span(5, 3, 2.0, 3.0, "m.inner", pass_id="b"),
        ]
        table = tracing.layer_table(spans)
        assert table["b"]["m.inner"]["calls"] == 2
        assert table["b"]["m.outer"]["self_s"] == pytest.approx(2.0)
        rows = tracing.median_rows(table, ["a", "b", "c"])
        assert rows["m.outer"]["s"] == pytest.approx(2.0)  # median of 2, 4 and 0
        assert rows["m.inner"]["calls"] == 1

    def test_worker_spans_hang_under_the_submitting_span(self):
        tracer = tracing.Tracer()
        barrier = threading.Barrier(2, timeout=10)

        def inner(i):
            barrier.wait()  # both workers are busy at once
            return i

        traced_inner = tracer.wrap("m.inner", inner)

        def outer():
            with tracer._executor_class()(max_workers=2) as pool:
                return list(pool.map(traced_inner, range(2)))

        assert tracer.wrap("m.outer", outer)() == [0, 1]
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["m.outer"]
        assert [s.parent for s in by_name["m.inner"]] == [root.id, root.id]
        assert len({s.thread for s in by_name["m.inner"]}) == 2


def small(cls, tmp_path, monkeypatch, seed=workloads.DEFAULT_SEED, **sizes):
    for key, value in sizes.items():
        monkeypatch.setattr(cls, key, value)
    return cls(expcurve, expcurve.cli, tmp_path / f"work-{seed}", seed)


class TestOutputChecks:
    @pytest.fixture
    def chain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
        wl = workloads.CliChain(expcurve, expcurve.cli, tmp_path / "work", 0, reference=True)
        wl.setup()
        results = wl.run_pass()
        assert all(err is None for _, _, err, _ in results)
        ref = {"ops": {op: wl.describe(op, None) for op in wl.ops}}
        workloads.REFERENCE_DIR.mkdir()
        wl.reference_path().write_text(json.dumps(ref))
        verify = run.Verifier(wl)
        verify(results)
        assert (verify.attempted, verify.failed) == (4, 0)
        return wl

    @staticmethod
    def failed_ops(wl, op):
        verify = run.Verifier(wl)
        verify([(op, 0.0, None, None)])
        return verify.failed

    @staticmethod
    def edit_cell(path, row, column, change):
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[row].rstrip("\r\n").split(",")
        cells[column] = repr(change(float(cells[column])))
        lines[row] = ",".join(cells) + "\r\n"
        path.write_text("".join(lines))

    def test_truncated_errors_csv_fails(self, chain):
        errors = chain.out / "errors.csv"
        lines = errors.read_text().splitlines(keepends=True)
        errors.write_text("".join(lines[:-5]))
        assert self.failed_ops(chain, "hindcast") == 1

    def test_float_changed_beyond_tolerance_fails(self, chain):
        self.edit_cell(chain.out / "errors.csv", 7, 4, lambda v: v + 1e-12)
        assert self.failed_ops(chain, "hindcast") == 1

    def test_float_changed_within_tolerance_passes(self, chain):
        errors = chain.out / "errors.csv"
        before = errors.read_bytes()
        self.edit_cell(errors, 7, 4, lambda v: v + 4e-14)
        assert errors.read_bytes() != before
        assert self.failed_ops(chain, "hindcast") == 0

    def test_full_text_float_changed_beyond_tolerance_fails(self, chain):
        self.edit_cell(chain.out / "params.csv", 2, 2, lambda v: v + 1e-12)
        assert self.failed_ops(chain, "estimate") == 1

    def test_output_differing_from_first_pass_fails(self, chain):
        verify = run.Verifier(chain)
        verify([("forecast", 0.0, None, None)])
        (chain.out / "comparison.csv").write_text("tau\n")
        verify([("forecast", 0.0, None, None)])
        assert (verify.attempted, verify.failed) == (2, 1)

    def test_error_exit_is_a_failed_operation(self, chain):
        verify = run.Verifier(chain)
        verify([("estimate", 0.0, "exit code 1: error: bad input", None)])
        assert verify.failed == 1


def test_library_pool_invariants_hold(tmp_path, monkeypatch):
    wl = small(workloads.LibraryPool, tmp_path, monkeypatch, seed=3, N_TECH=4, PERIODS=20)
    wl.setup()
    [(op, _, error, result)] = wl.run_pass()
    assert error is None
    assert wl.invariants(op, result) == []
    assert len(result["errs"]) == 4 * workloads.hindcast_records(20, 5, None)
    assert result["errs"][0].model == "moore"
    result["pooled"][0] += 1e-9
    assert wl.invariants(op, result) == ["moore pooled differs from its closed form"]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_are_deterministic_per_seed(cls, tmp_path, monkeypatch):
    sizes = {"N_TECH": 5} if hasattr(cls, "N_TECH") else {}

    def inputs(seed, tag):
        wl = small(cls, tmp_path / tag, monkeypatch, seed=seed, **sizes)
        wl.setup()
        return wl.fingerprint_inputs()

    assert inputs(11, "a") == inputs(11, "b")
    assert inputs(11, "c") != inputs(12, "d")


def test_hindcast_records_closed_form():
    k = 50 - 1 - 5
    assert workloads.hindcast_records(50, 5, None) == k * (k + 1)
    assert 200 * workloads.hindcast_records(50, 5, 20) == 276_000
    assert workloads.hindcast_records(6, 5, 20) == 0


def test_checks_compare_values():
    ref = {"a": [1, 2.0, "x"], "b": {"c": float("nan")}}
    assert checks.compare_values(ref, json.loads(json.dumps(ref))) == []
    assert checks.compare_values(ref, {"a": [1, 2.0 + 5e-14, "x"], "b": {"c": float("nan")}}) == []
    assert checks.compare_values(ref, {"a": [1, 2.0 + 1e-12, "x"], "b": {"c": float("nan")}})
    assert checks.compare_values(ref, {"a": [2, 2.0, "x"], "b": {"c": float("nan")}})
    assert checks.compare_values(ref, {"a": [1, 2.0, "y"], "b": {"c": float("nan")}})
    assert checks.compare_values(ref, {"a": [1, 2.0, "x"], "b": {"c": 0.0}})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "expbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "expbench/run.py", "--workload", "cli-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
