import csv
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from expcurve import (
    HindcastConfig,
    SeriesTable,
    SurrogateSpec,
    TechSeries,
    build_experience,
    ingest_csv,
    make_dataset,
    pooled_errors,
    read_errors_csv,
    read_params_csv,
    run_hindcast,
    write_csv,
    write_errors_csv,
)
import expcurve
from expcurve import _csvio, cli, estimators, hindcast, surrogate
from expcurve.cli import main
from expcurve.params_io import reference_params_path


def run_cli(*args):
    return main([str(a) for a in args])


# the bundled Photovoltaics row
PV_ROW = {
    "technology": "Photovoltaics", "T": "41", "mu": "-0.121", "K": "0.153", "g": "0.315",
    "sigma_q": "0.202", "r": "0.318", "sigma_x": "0.133", "omega": "-0.380", "sigma_eta": "0.145",
    "rho": "-0.019",
}


def params_csv(tmp_path, *rows):
    """A parameter table with one row per edit of ``PV_ROW`` in ``rows``."""
    params = tmp_path / "params.csv"
    lines = [",".join(PV_ROW)] + [",".join((PV_ROW | edit).values()) for edit in rows]
    params.write_text("\n".join(lines) + "\n")
    return params


def pv_forecast_args(tmp_path, **edit):
    """The ``forecast`` arguments of a parameter table holding ``PV_ROW``
    with ``edit`` applied."""
    return ("forecast", "--params", params_csv(tmp_path, edit), "--tech", "Photovoltaics")


def small_dataset(tmp_path, n_tech=3, T=14, seed=5):
    path = tmp_path / "data.csv"
    ds = make_dataset(SurrogateSpec(n_tech=n_tech, T=T, seed=seed, n_ensembles=1), 0)
    write_csv(path, SeriesTable(ds.names, ds.T, ds.years, ds.cost, ds.production))
    return path


class TestEstimate:
    def test_writes_table(self, tmp_path):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "estimate", "--input", data) == 0
        rows = read_params_csv(out / "params.csv")
        assert len(rows) == 3
        assert all(r["T"] == 14 for r in rows)
        assert (out / "estimate_manifest.txt").exists()

    def test_bad_input_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("technology,year,cost,production\nA,2000,1.0,0\n")
        code = run_cli("--output-dir", tmp_path / "o", "estimate", "--input", bad)
        assert code == 1
        assert "non-positive production" in capsys.readouterr().err

    def test_value_that_reads_like_a_row_fault(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text('technology,year,cost,production\nA,2000,1,1\nA,2001,"at row 7",1\n')
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "estimate", "--input", data) == 1
        assert capsys.readouterr().err.startswith("error: A line 3: unparsable value (data.csv: ")
        assert list(out.iterdir()) == []

    def test_no_rows_rejected_before_any_write(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("technology,year,cost,production\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "estimate", "--input", data, "--emit-series") == 1
        assert "data CSV has no rows" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_manifest_hashes_the_input_as_read(self, tmp_path, capsys):
        # the input is an output's path: the manifest records the file the
        # run read, not the file it wrote over it, and stdout names the files
        out = tmp_path / "out"
        out.mkdir()
        data = out / "series.csv"
        data.write_bytes(small_dataset(tmp_path).read_bytes())
        read = hashlib.sha256(data.read_bytes()).hexdigest()
        assert run_cli("--output-dir", out, "estimate", "--input", data, "--emit-series") == 0
        assert hashlib.sha256(data.read_bytes()).hexdigest() != read
        assert f"input.data.sha256={read}\n" in (out / "estimate_manifest.txt").read_text()
        assert capsys.readouterr().out == f"wrote params.csv, series.csv, estimate_manifest.txt to {out}\n"

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier-run"])
    def test_failed_write_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, capsys, earlier):
        # series.csv's write fails after params.csv's succeeded: no output
        # is renamed into place and no temp file is left
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        before = {}
        if earlier:  # from other data, so each output's bytes would change
            (tmp_path / "other").mkdir()
            other = small_dataset(tmp_path / "other", seed=9)
            assert run_cli("--output-dir", out, "estimate", "--input", other, "--emit-series") == 0
            before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_csv, calls = _csvio.write_csv, []

        def full_disk_on_second_write(path, *args):
            calls.append(path)
            if len(calls) == 2:
                Path(path).write_text("technology,year\n")  # a partial file
                raise OSError(28, "No space left on device")
            write_csv(path, *args)

        monkeypatch.setattr(_csvio, "write_csv", full_disk_on_second_write)
        capsys.readouterr()
        assert run_cli("--output-dir", out, "estimate", "--input", data, "--emit-series") == 1
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in calls] == ["params.csv.tmp", "series.csv.tmp"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestHindcastCommand:
    def test_counts_match_library(self, tmp_path):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "hindcast", "--input", data, "--m", 5, "--tau-max", 20) == 0
        records = read_errors_csv(out / "errors.csv")
        dataset = build_experience(ingest_csv(data))
        expect = run_hindcast(dataset, HindcastConfig(m=5, tau_max=20))
        assert len(records) == len(expect)

    def test_csv_preserves_in_process_values_exactly(self, tmp_path):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_cli("--output-dir", out, "hindcast", "--input", data)
        records = read_errors_csv(out / "errors.csv")
        dataset = build_experience(ingest_csv(data))
        expect = run_hindcast(dataset, HindcastConfig())
        got = pooled_errors(records)
        want = pooled_errors(expect)
        finite = np.isfinite(want)
        assert np.array_equal(got[finite], want[finite])


    @pytest.mark.parametrize("periods", [6, None], ids=["too-short", "no-rows"])
    def test_no_error_rejected_before_any_write(self, tmp_path, capsys, periods):
        data = tmp_path / "data.csv"
        if periods is None:
            data.write_text("technology,year,cost,production\n")
        else:
            argv = ["simulate", "--n-tech", 2, "--periods", periods, "--ensembles", 0]
            assert run_cli("--output-dir", tmp_path, *argv) == 0
            data = tmp_path / "dataset.csv"
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "hindcast", "--input", data, "--m", 5) == 1
        assert "no series has the m + 2 = 7 periods that one error needs" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def mixed_dataset(path):
    """A data CSV of series of 5 (too short for m = 5), 9, 14 and 30 years,
    then a 10-year series of constant cost, whose windows have zero residual
    scale."""
    ds = make_dataset(SurrogateSpec(n_tech=4, T=np.array([5, 9, 14, 30]), seed=4, n_ensembles=1), 0)
    flat = TechSeries("flat", np.arange(10), np.ones(10), 2.0 * 1.1 ** np.arange(10))
    series = [TechSeries(ts.name, ts.years, ts.cost, ts.production) for ts in ds]
    write_csv(path, SeriesTable.from_series([*series, flat]))
    return path


class TestHindcastBlocks:
    """``hindcast`` builds and writes its error table ``_BLOCK`` errors at a
    time, from one gather, with the bytes of the whole table."""

    WARNINGS = ["4 window(s) had zero residual scale; their normalized errors are recorded as nan",
                "tech000: too short for m=5 (T=5); skipped"]

    @pytest.mark.parametrize("blocks", ["under-one", "one", "several"])
    @pytest.mark.parametrize("tau_max", [3, 100], ids=["tau-3", "tau-beyond-every-reach"])
    def test_bytes_of_the_whole_table(self, tmp_path, monkeypatch, blocks, tau_max):
        data = mixed_dataset(tmp_path / "data.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = run_hindcast(build_experience(ingest_csv(data)), HindcastConfig(tau_max=tau_max))
        write_errors_csv(tmp_path / "whole.csv", table)
        n = len(table) // 2  # errors, two rows each
        size = {"under-one": n + 1, "one": n, "several": n // 4 + 1}[blocks]
        count = -(-n // size)
        assert (count, n % size > 0) == {"under-one": (1, True), "one": (1, False), "several": (4, True)}[blocks]
        built, error_table = [], hindcast._error_table

        def counted(*args):  # the warnings caught before each block is built
            built.append(len(caught))
            return error_table(*args)

        monkeypatch.setattr(hindcast, "_BLOCK", size)
        monkeypatch.setattr(hindcast, "_error_table", counted)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("--output-dir", out, "hindcast", "--input", data, "--tau-max", tau_max) == 0
        assert sorted(str(w.message) for w in caught) == self.WARNINGS
        assert built == [2] * count  # each warning once, before any block
        assert (out / "errors.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_bytes_of_the_whole_table_at_the_block_size(self, tmp_path):
        data = small_dataset(tmp_path, n_tech=20, T=50)
        table = run_hindcast(build_experience(ingest_csv(data)), HindcastConfig())
        assert len(table) // 2 > 3 * hindcast._BLOCK and len(table) // 2 % hindcast._BLOCK
        write_errors_csv(tmp_path / "whole.csv", table)
        assert run_cli("--output-dir", tmp_path / "out", "hindcast", "--input", data) == 0
        assert (tmp_path / "out" / "errors.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_peak_memory_grows_by_well_under_the_table(self, tmp_path):
        # four times the series: the command's traced peak grows by the
        # gather's share, not by the error table's 10 MB
        peaks, tables = [], []
        for n_tech in (20, 80):
            (tmp_path / str(n_tech)).mkdir()
            data = small_dataset(tmp_path / str(n_tech), n_tech=n_tech, T=50)
            table = run_hindcast(build_experience(ingest_csv(data)), HindcastConfig())
            tables.append(sum(getattr(table, name).nbytes for name in hindcast._FIELDS))
            del table
            tracemalloc.start()
            try:
                assert run_cli("--output-dir", tmp_path / str(n_tech), "hindcast", "--input", data) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert tables[1] - tables[0] > 10e6
        assert peaks[1] - peaks[0] < (tables[1] - tables[0]) / 3


class TestDiagnoseCommand:
    def test_outputs(self, tmp_path):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_cli("--output-dir", out, "estimate", "--input", data)
        run_cli("--output-dir", out, "hindcast", "--input", data)
        code = run_cli(
            "--output-dir", out, "diagnose",
            "--errors", out / "errors.csv", "--params", out / "params.csv",
        )
        assert code == 0
        for name in ("ecdf.csv", "pit.csv", "sahal.csv", "tanh.csv", "summary.txt"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text()
        assert "ks=" in summary and "df=4" in summary

    def test_pit_values_in_unit_interval(self, tmp_path):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_cli("--output-dir", out, "hindcast", "--input", data)
        run_cli("--output-dir", out, "diagnose", "--errors", out / "errors.csv")
        with open(out / "pit.csv", newline="") as fh:
            vals = [float(r["pit"]) for r in csv.DictReader(fh)]
        assert vals and all(0.0 <= v <= 1.0 for v in vals)

    def test_params_without_growing_technology(self, tmp_path):
        # the volatility-law file then holds its header only
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_cli("--output-dir", out, "hindcast", "--input", data)
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            "X,12,-0.05,0.05,-0.1,0.08,0.1,0.01,-0.5,0.05,0.2\n"
        )
        assert run_cli("--output-dir", out, "diagnose", "--errors", out / "errors.csv", "--params", params) == 0
        assert (out / "tanh.csv").read_bytes() == b"technology,g,sigma_q,r,sigma_x_observed,sigma_x_theory\r\n"
        assert "tanh: n=0 skipped_nonpositive_growth=1\n" in (out / "summary.txt").read_text()

    def test_bad_params_writes_nothing(self, tmp_path, capsys):
        # a parameter file that fails to read fails the run before any
        # write: a fresh directory stays empty, a reused one keeps the
        # earlier run's files and manifest
        data = small_dataset(tmp_path)
        errors = tmp_path / "errors.csv"
        assert run_cli("--output-dir", tmp_path, "hindcast", "--input", data) == 0
        params = tmp_path / "p.csv"
        params.write_text("technology,T\nX,12\n")
        reused = tmp_path / "reused"
        assert run_cli("--output-dir", reused, "diagnose", "--errors", errors) == 0
        before = {f.name: f.read_bytes() for f in reused.iterdir()}
        for out in (tmp_path / "fresh", reused):
            capsys.readouterr()
            code = run_cli("--output-dir", out, "diagnose", "--errors", errors, "--params", params)
            assert code == 1
            assert "parameter CSV missing column(s)" in capsys.readouterr().err
        assert list((tmp_path / "fresh").iterdir()) == []
        assert {f.name: f.read_bytes() for f in reused.iterdir()} == before

    # each value a check reads is refused by column, row and value before
    # any write; the second row is Photovoltaics' with the edit
    @pytest.mark.parametrize("edit, message", [
        ({"omega": "-inf"}, "omega in row 2 is -inf, not finite"),
        ({"mu": "nan", "g": "inf"}, "mu in row 2 is nan, not finite"),
        ({"r": "inf"}, "r in row 2 is inf, not finite"),
        ({"mu": "1e300", "r": "1e-10"}, "mu / r in row 2 is inf, not finite"),
        ({"omega": "1.7e308", "mu": "-1.7e308", "r": "1.7"}, "omega - mu / r in row 2 is inf, not finite"),
        ({"g": "inf"}, "g in row 2 is inf, not finite"),
        ({"sigma_q": "-0.08"}, "sigma_q in row 2 is -0.08, not non-negative with a finite square"),
        ({"sigma_q": "1e300"}, "sigma_q in row 2 is 1e+300, not non-negative with a finite square"),
        ({"sigma_x": "nan"}, "sigma_x in row 2 is nan, not finite"),
    ], ids=["omega", "mu", "r", "mu-over-r", "residual", "g", "sigma_q", "sigma_q-squared", "sigma_x"])
    def test_bad_params_value_writes_nothing(self, tmp_path, capsys, edit, message):
        data = small_dataset(tmp_path)
        assert run_cli("--output-dir", tmp_path, "hindcast", "--input", data) == 0
        params = params_csv(tmp_path, {}, edit)
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli("--output-dir", out, "diagnose", "--errors", tmp_path / "errors.csv", "--params", params)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    # tanh.csv skips a first row that does not grow, and an error still
    # counts it among the file's data rows
    @pytest.mark.parametrize("edit, message", [
        ({"sigma_q": "-0.08"}, "sigma_q in row 2 is -0.08, not non-negative with a finite square"),
        ({"sigma_x": "inf"}, "sigma_x in row 2 is inf, not finite"),
        ({}, None),
    ], ids=["sigma_q", "sigma_x", "none"])
    @pytest.mark.parametrize("g", ["-0.1", "0", "nan"])
    def test_bad_tanh_value_after_a_row_without_growth(self, tmp_path, capsys, g, edit, message):
        data = small_dataset(tmp_path)
        assert run_cli("--output-dir", tmp_path, "hindcast", "--input", data) == 0
        # the skipped row's own sigma_q and sigma_x are read by no check
        rows = [PV_ROW | {"g": g, "sigma_q": "-1", "sigma_x": "nan"}, PV_ROW | edit]
        params = tmp_path / "params.csv"
        params.write_text("\n".join([",".join(PV_ROW)] + [",".join(row.values()) for row in rows]) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli("--output-dir", out, "diagnose", "--errors", tmp_path / "errors.csv", "--params", params)
        if message is None:
            assert code == 0
            assert (out / "tanh.csv").read_text().count("\n") == 2  # the header and the growing row
            return
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    def test_header_only_errors_rejected(self, tmp_path, capsys):
        errors = tmp_path / "errors.csv"
        errors.write_text(",".join(hindcast.ERROR_COLUMNS) + "\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "diagnose", "--errors", errors) == 1
        assert "error CSV has no rows" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_model_with_too_few_errors(self, tmp_path):
        # one finite pooled wright error: wright is summarized, not checked
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "hindcast", "--input", data) == 0
        header, *rows = (out / "errors.csv").read_text().splitlines(keepends=True)
        wright = [i for i, r in enumerate(rows) if r.split(",")[3] == "wright"]
        assert len(wright) > 1 and len(rows) - len(wright) > 1
        for i in wright[1:]:  # pooled_error is the last column
            rows[i] = rows[i][: rows[i].rindex(",")] + ",nan\r\n"
        errors = tmp_path / "errors.csv"
        errors.write_text(header + "".join(rows), newline="")
        assert run_cli("--output-dir", out, "diagnose", "--errors", errors) == 0
        summary = (out / "summary.txt").read_text()
        assert "wright: too few errors (n=1)\n" in summary
        assert f"moore: n={len(rows) - len(wright)} " in summary
        for name in ("ecdf.csv", "pit.csv"):
            with open(out / name, newline="") as fh:
                assert {r["model"] for r in csv.DictReader(fh)} == {"moore"}, name


def rewrite_errors(src, dst, columns=None, edit=lambda i, row: None):
    """Copy an error CSV with only ``columns`` (all, by default), in that
    order; ``edit(i, row)`` may change data row ``i`` (from 1) first."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows, 1):
        edit(i, row)
    columns = columns or list(rows[0])
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c, "x") for c in columns] for row in rows)
    return dst


class TestDiagnoseReads:
    """``diagnose`` parses only ``model``, ``tau``, ``A`` and
    ``pooled_error``; the other columns may be missing or hold anything."""

    READ = ["model", "tau", "A", "pooled_error"]

    @pytest.fixture
    def errors(self, tmp_path):
        assert run_cli("--output-dir", tmp_path, "hindcast", "--input", small_dataset(tmp_path)) == 0
        return tmp_path / "errors.csv"

    def outputs(self, tmp_path, errors, name):
        out = tmp_path / name
        assert run_cli("--output-dir", out, "diagnose", "--errors", errors) == 0
        return {f: (out / f).read_bytes() for f in ("ecdf.csv", "pit.csv", "summary.txt")}

    def test_read_columns_only(self, tmp_path, errors):
        four = rewrite_errors(errors, tmp_path / "four.csv", ["pooled_error", "extra", "A", "model", "tau"])

        def oops(i, row):
            if i == 3:
                row["K_hat"] = "oops"

        unread_bad = rewrite_errors(errors, tmp_path / "oops.csv", edit=oops)
        want = self.outputs(tmp_path, errors, "full")
        assert self.outputs(tmp_path, four, "four") == want
        assert self.outputs(tmp_path, unread_bad, "oops") == want

    def test_missing_read_column_writes_nothing(self, tmp_path, capsys, errors):
        columns = [c for c in hindcast.ERROR_COLUMNS if c != "A"]
        errors = rewrite_errors(errors, tmp_path / "no_a.csv", columns)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "diagnose", "--errors", errors) == 1
        assert "error: error CSV missing column(s): A\n" == capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_read_value_names_its_row(self, tmp_path, capsys, errors):
        def bad(i, row):
            if i == 7:
                row["pooled_error"] = "oops"

        errors = rewrite_errors(errors, tmp_path / "bad.csv", edit=bad)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "diagnose", "--errors", errors) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: error CSV: ") and "'oops'" in err and "at data row 7," in err
        assert list(out.iterdir()) == []

    def test_rows_out_of_model_order_rejected(self, tmp_path, capsys, errors):
        # swapping the first two data rows breaks the moore/wright alternation
        header, first, second, *rest = errors.read_bytes().splitlines(keepends=True)
        swapped = tmp_path / "swapped.csv"
        swapped.write_bytes(b"".join([header, second, first, *rest]))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "diagnose", "--errors", swapped) == 1
        assert capsys.readouterr().err == "error: moore rows are not every second row, as a hindcast writes them\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("reference", ["student", "normal"])
    def test_window_size_one_rejected(self, tmp_path, capsys, errors, reference):
        # A = tau + tau**2 on every row gives m = 1, which no hindcast makes
        def window_one(i, row):
            tau = int(row["tau"])
            row["A"] = str(tau + tau * tau)

        errors = rewrite_errors(errors, tmp_path / "m1.csv", edit=window_one)
        out = tmp_path / "out"
        code = run_cli("--output-dir", out, "diagnose", "--errors", errors, "--reference", reference)
        assert code == 1
        assert "window size m cannot be recovered from tau and A" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_asks_the_codec_for_the_read_columns(self, tmp_path, monkeypatch):
        # a diagnose that parsed every column again would fail here; the
        # outputs keep their pinned bytes
        asked = []
        read_csv = _csvio.read_csv

        def recorder(path, columns, what):
            asked.append((what, list(columns)))
            return read_csv(path, columns, what)

        monkeypatch.setattr(_csvio, "read_csv", recorder)
        data = small_dataset(tmp_path, n_tech=3, T=20, seed=2016)
        out = tmp_path / "out"
        for argv in _golden_argvs("diagnose-student", data, out):
            assert run_cli("--output-dir", out, *argv) == 0
        assert [sorted(c) for what, c in asked if what == "error CSV"] == [sorted(self.READ)]
        for name, digest in GOLDEN_OUTPUTS["diagnose-student"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestOversizedField:
    """``csv.reader`` refuses a field longer than its 131,072-character
    limit with ``csv.Error``, which is no ``ValueError``; the codec names
    the file instead, and the run ends in one error line."""

    HEADER = "technology,year,cost,production"

    @pytest.mark.parametrize("command, text, what", [
        ("estimate", f"{HEADER},{'x' * 140_000}\nA,2000,1,1\n", "data.csv"),
        ("estimate", f"{HEADER}\nA,2000,1,1\nA,2001,\"{'x' * 200_000}\"\n", "data.csv"),
        ("diagnose", f"model,tau,A,pooled_error,{'x' * 140_000}\nwright,1,1.2,0.5,\n", "error CSV"),
    ], ids=["estimate-header", "estimate-short-row", "diagnose-header"])
    def test_is_one_error(self, tmp_path, capsys, command, text, what):
        path = tmp_path / "data.csv"
        path.write_text(text)
        out = tmp_path / "out"
        option = "--input" if command == "estimate" else "--errors"
        assert run_cli("--output-dir", out, command, option, path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what}: field larger than field limit (131072)\n"
        assert list(out.iterdir()) == []


# production that overflows a float on its way to experience: in the
# growth rate's ratio 1e300 / 1e-200, and in the running sum of values near
# the largest float
OVERFLOWING_PRODUCTION = {
    "growth-ratio": ["1e-200", "1e300", "1e300", "1e300", "1e300"],
    "running-sum": ["1e307", "5e307", "1e308", "1.5e308", "1.7e308"],
}


class TestOverflowingProduction:
    @pytest.mark.parametrize("command", [["estimate"], ["forecast", "--tech", "A"]], ids=["estimate", "forecast"])
    @pytest.mark.parametrize("production", OVERFLOWING_PRODUCTION.values(), ids=OVERFLOWING_PRODUCTION)
    def test_is_one_error(self, tmp_path, capsys, command, production):
        data = tmp_path / "data.csv"
        rows = "".join(f"A,{2000 + i},1,{q}\n" for i, q in enumerate(production))
        data.write_text("technology,year,cost,production\n" + rows)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, command[0], "--input", data, *command[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: A: experience must be finite, positive and strictly increasing\n"
        assert list(out.iterdir()) == []


class TestFlatLogExperience:
    # experience rises every year, but production of 3e-8 on an experience
    # of 2e7 leaves its log flat from 2002 to 2010, so no Wright fit divides
    @pytest.mark.parametrize("command", [
        ["estimate"], ["hindcast", "--m", "5"], ["forecast", "--tech", "A"],
    ], ids=["estimate", "hindcast", "forecast"])
    def test_is_one_error_everywhere(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        production = [1.0] + [3e-8] * 10 + [1.0000001]
        rows = "".join(f"A,{2000 + i},{1 + i / 100:.2f},{q}\n" for i, q in enumerate(production))
        data.write_text("technology,year,cost,production\n" + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("--output-dir", out, command[0], "--input", data, *command[1:])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: A: experience must be finite, positive and strictly increasing\n"
        assert list(out.iterdir()) == []


class TestSimulateCommand:
    def test_dataset_and_bands(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", 3, "simulate",
            "--n-tech", 3, "--periods", 14, "--ensembles", 6,
            "--m", 5, "--tau-max", 5,
        )
        assert code == 0
        ds = ingest_csv(out / "dataset.csv")
        assert len(ds) == 3
        for model in ("moore", "wright"):
            with open(out / f"bands_{model}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 5
            for r in rows:
                assert float(r["lo"]) <= float(r["stat_mean"]) <= float(r["hi"])

    def test_calibration_mode(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", 1, "simulate", "--calibration",
            "--m", 5, "--variance", "true", "--n-tech", 10, "--periods", 15,
        )
        assert code == 0
        assert (out / "calibration_ecdf.csv").exists()
        assert "reference=normal" in (out / "summary.txt").read_text()

    def test_mimic_mode(self, tmp_path):
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            "X,12,-0.05,0.05,0.1,0.08,0.1,0.01,-0.5,0.05,0.2\n"
            "Y,10,-0.08,0.06,0.2,0.10,0.2,0.02,-0.4,0.06,0.2\n"
        )
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", 2, "simulate",
            "--mimic", params, "--ensembles", 0, "--rho", 0.0, "--rho-star", 0.3,
        )
        assert code == 0
        ds = ingest_csv(out / "dataset.csv")
        assert sorted(ts.T for ts in ds) == [10, 12]
        # per-technology rows from the table, the generator's rho from --rho-star
        spec = SurrogateSpec(
            n_tech=2, T=np.array([12, 10]), g=np.array([0.1, 0.2]),
            sigma_q=np.array([0.08, 0.10]), omega=np.array([-0.5, -0.4]),
            sigma_eta=np.array([0.05, 0.06]), rho=0.3, seed=2, n_ensembles=1,
        )
        for got, want in zip(ds, make_dataset(spec, 0)):
            assert np.array_equal(got.cost, want.cost)

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--ensembles", 2, "--tau-max", 0], "tau_max must be None or an integer of at least 1"),
            (["--ensembles", 2, "--m", 1], "m must be an integer of at least 2"),
            (["--ensembles", 2, "--rho-star", 1.5], "rho must lie in [-1, 1]"),
            (["--ensembles", 0, "--tau-max", 0], "tau_max must be None or an integer of at least 1"),
            (["--ensembles", -3], "n_ensembles must be a positive integer"),
            (
                ["--calibration", "--iid-windows", "--variance", "true", "--m", 1],
                "m must be an integer of at least 2",
            ),
            (["--ensembles", 2, "--periods", 6, "--m", 5], "no series has the m + 2 = 7 periods"),
            (
                ["--calibration", "--iid-windows", "--variance", "true", "--m", 5, "--periods", 4],
                "periods must be at least m + 2 = 7",
            ),
            (["--calibration", "--m", 5, "--periods", 6], "periods must be at least m + 2 = 7"),
        ],
        ids=[
            "tau-max", "m", "rho-star", "no-ensembles", "negative-ensembles", "calibration-m",
            "series-too-short", "calibration-iid-periods", "calibration-periods",
        ],
    )
    def test_options_checked_before_any_write(self, tmp_path, capsys, options, message):
        out = tmp_path / "out"
        code = run_cli("--output-dir", out, "simulate", "--n-tech", 2, "--periods", 10, *options)
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "options",
        [["--ensembles", 2], ["--calibration", "--m", 5]],
        ids=["bands", "calibration"],
    )
    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys, options):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", -1, "simulate", "--n-tech", 2, "--periods", 10, *options
        )
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        assert list(out.iterdir()) == []

    def test_replicate_zero_built_once(self, tmp_path, monkeypatch):
        # dataset.csv is replicate 0, which the ensemble has already built;
        # every replicate counts, whether built alone or in a block
        built = []

        def counted(spec, replicate=0):
            built.extend([replicate] if np.ndim(replicate) == 0 else replicate)
            return make_dataset(spec, replicate)

        monkeypatch.setattr(surrogate, "make_dataset", counted)
        monkeypatch.setattr(cli, "make_dataset", counted)
        for ensembles, replicates in ((4, [0, 1, 2, 3]), (0, [0])):
            built.clear()
            code = run_cli(
                "--output-dir", tmp_path / str(ensembles), "--seed", 3, "simulate",
                "--n-tech", 3, "--periods", 14, "--ensembles", ensembles, "--m", 5, "--tau-max", 5,
            )
            assert code == 0
            assert built == replicates
        assert (tmp_path / "4" / "dataset.csv").read_bytes() == (tmp_path / "0" / "dataset.csv").read_bytes()

    def test_noise_free_shrinking_row_refused_after_one_draw(self, tmp_path, monkeypatch, capsys):
        # with sigma_q = 0 every redraw of a production path is the same
        # path, so one that fails the growth test is refused at once
        batches, normals = [], surrogate._normals

        def counted(seed, keys, *args):
            batches.append(keys)
            return normals(seed, keys, *args)

        monkeypatch.setattr(surrogate, "_normals", counted)
        row = PV_ROW | {"technology": "X", "T": "6", "g": "-0.05", "sigma_q": "0"}
        params = tmp_path / "params.csv"
        params.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli("--output-dir", out, "simulate", "--mimic", params, "--ensembles", 0, "--m", 2, "--tau-max", 3)
        assert code == 1
        message = "no growing production path found for stream (0, 0, 0) (g=-0.05, sigma_q=0.0, T=6)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert batches == [[(0, 0, 0)]]
        assert list(out.iterdir()) == []

    def test_shortest_usable_series(self, tmp_path):
        # m + 2 periods make one window with one forecast
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "simulate", "--n-tech", 2, "--periods", 7, "--m", 5, "--ensembles", 2
        )
        assert code == 0
        assert (out / "bands_moore.csv").exists() and (out / "bands_wright.csv").exists()

    def test_failed_replicate_writes_nothing(self, tmp_path, capsys):
        # replicates 0 and 1 pass, the shared production path of replicate 2
        # does not grow over the 5-period technology's stretch
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            + "".join(f"{name},{T},-0.05,0.05,0.02,0.3,0.1,0.01,-0.3,0.1,0.2\n"
                      for name, T in (("X", 30), ("Y", 5), ("Z", 30)))
        )
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", 0, "simulate", "--mimic", params, "--shared-production",
            "--ensembles", 20, "--m", 2, "--tau-max", 2,
        )
        assert code == 1
        assert "pipeline failed on replicate 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_replicate_names_its_cause(self, tmp_path, capsys):
        # production this volatile leaves experience that is not increasing
        code = run_cli(
            "--output-dir", tmp_path / "out", "simulate", "--n-tech", 3, "--periods", 10,
            "--ensembles", 2, "--tau-max", 3, "--sigma-q", 50,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline failed on replicate 0 ")
        assert err.endswith(": tech000: experience must be finite, positive and strictly increasing\n")

    # generator parameters whose cost or production levels overflow a float;
    # at --g 800 the row of infinite production also has a cost of 0, derived
    # from it, and the fault is named by the production
    @pytest.mark.parametrize("ensembles", [0, 2])
    @pytest.mark.parametrize("edit, fault", [
        (("--omega", "1e308"), "tech000: non-finite cost"),
        (("--g", "800"), "tech000: non-finite production"),
    ], ids=["omega", "g"])
    def test_overflowing_generator_is_one_error(self, tmp_path, capsys, ensembles, edit, fault):
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.csv").write_text("kept\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "--output-dir", out, "simulate", "--n-tech", 3, "--periods", 10,
                "--ensembles", ensembles, "--tau-max", 3, *edit,
            )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert captured.err.endswith(f"{fault}\n")
        assert [p.name for p in out.iterdir()] == ["dataset.csv"]
        assert (out / "dataset.csv").read_text() == "kept\n"

    # argparse reads "-2e-1" after an option as an option name; the "=" form
    # passes it as the value
    def test_negative_exponent_value_in_equals_form(self, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", "--n-tech", 2, "--periods", 10, "--rho=-2e-1", "--ensembles", 0]
        assert run_cli("--output-dir", out, *argv) == 0
        assert "option.rho=-0.2\n" in (out / "simulate_manifest.txt").read_text()

    def test_mimic_and_calibration_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "--output-dir", out, "simulate", "--calibration",
                "--mimic", reference_params_path(), "--n-tech", 3, "--periods", 12,
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


class TestForecastCommand:
    def test_reference_params_pv(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "forecast", "--tech", "Photovoltaics", "--horizon", 12
        )
        assert code == 0
        with open(out / "forecast_wright.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        slope = float(rows[1]["mean_log_cost"]) - float(rows[0]["mean_log_cost"])
        assert slope == pytest.approx(-0.380 * 0.318, abs=1e-12)
        for r in rows:
            assert float(r["lo_2sd"]) < float(r["lo_1sd"]) < float(r["hi_1sd"]) < float(r["hi_2sd"])
            assert float(r["lo_2sd_level"]) == pytest.approx(
                math.exp(float(r["lo_2sd"])), rel=1e-12
            )

    def test_from_data(self, tmp_path):
        data = small_dataset(tmp_path, n_tech=1, T=20, seed=8)
        name = ingest_csv(data)[0].name
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "forecast", "--input", data, "--tech", name, "--horizon", 5
        )
        assert code == 0
        assert (out / "comparison.csv").exists()

    def test_unknown_technology(self, tmp_path, capsys):
        code = run_cli("--output-dir", tmp_path / "o", "forecast", "--tech", "warp-drive")
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_technology_in_data(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        code = run_cli("--output-dir", out, "forecast", "--input", data, "--tech", "warp-drive")
        assert code == 1
        assert capsys.readouterr().err == f"error: technology 'warp-drive' not found in {data}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("growth", ["nan", "inf"])
    def test_non_finite_future_growth_writes_nothing(self, tmp_path, capsys, growth):
        out = tmp_path / "out"
        argv = ["forecast", "--tech", "Photovoltaics", "--horizon", 3, "--future-growth", growth]
        assert run_cli("--output-dir", out, *argv) == 1
        assert capsys.readouterr().err == "error: future experience growth must be positive and finite\n"
        assert list(out.iterdir()) == []

    def test_negative_exponent_growth_in_equals_form(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["forecast", "--tech", "Photovoltaics", "--future-growth=-1e-3"]
        assert run_cli("--output-dir", out, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: future experience growth must be positive and finite\n"
        assert list(out.iterdir()) == []

    # each coefficient is refused by name, before any variance is computed
    @pytest.mark.parametrize("option, value, name", [
        ("--theta-star", "-2", "theta_star"), ("--rho-star", "1.5", "rho_star"),
    ], ids=["theta-star", "rho-star"])
    def test_coefficient_out_of_range_writes_nothing(self, tmp_path, capsys, option, value, name):
        out = tmp_path / "out"
        argv = ["forecast", "--tech", "Photovoltaics", "--horizon", 3, option, value]
        assert run_cli("--output-dir", out, *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must lie in [-1, 1], got {float(value)}\n"
        assert list(out.iterdir()) == []

    def test_non_finite_params_row_writes_nothing(self, tmp_path, capsys):
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            "X,12,-0.05,nan,0.1,0.08,0.1,0.01,-0.5,inf,0.2\n"
        )
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "forecast", "--params", params, "--tech", "X") == 1
        # the series is checked first, then the Wright parameters, then the
        # Moore ones, so sigma_eta is named before K
        err = "error: X: sigma_eta is inf, not finite and non-negative\n"
        assert capsys.readouterr().err == err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name, value, need", [
        ("T", "2", "at least 3"),
        ("mu", "nan", "finite"),
        ("K", "-0.1", "finite and non-negative"),
        ("r", "0", "finite and positive"),
        ("r", "-inf", "finite and positive"),
        ("omega", "inf", "finite"),
        ("sigma_eta", "nan", "finite and non-negative"),
    ])
    def test_bad_params_row_names_the_parameter(self, tmp_path, capsys, name, value, need):
        # each value is refused before the arithmetic that reads it, so the
        # error names the parameter and not what it would have broken
        header = "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho"
        values = "Photovoltaics,12,-0.05,0.1,0.1,0.08,0.1,0.01,-0.5,0.2,0.2"
        row = dict(zip(header.split(","), values.split(",")))
        row[name] = value
        params = tmp_path / "p.csv"
        params.write_text(header + "\n" + ",".join(row.values()) + "\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "forecast", "--params", params, "--tech", "Photovoltaics") == 1
        shown = float(value) if name != "T" else int(value)
        err = f"error: Photovoltaics: {name} is {shown}, not {need}\n"
        assert capsys.readouterr().err == err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("r, mu", [("1000", "-0.121"), ("20", "-0.121"), ("0.318", "-1000")])
    def test_overflowing_params_row_is_one_error(self, tmp_path, capsys, r, mu):
        # finite and positive, but the synthetic series overflows a float
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            f"Photovoltaics,41,{mu},0.153,0.315,0.202,{r},0.133,-0.380,0.145,-0.019\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        (out / "forecast_wright.csv").write_text("kept\n")
        code = run_cli("--output-dir", out, "forecast", "--params", params, "--tech", "Photovoltaics")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Photovoltaics: constant growth")
        assert captured.err.count("\n") == 1 and "overflows a float" in captured.err
        assert [p.name for p in out.iterdir()] == ["forecast_wright.csv"]
        assert (out / "forecast_wright.csv").read_text() == "kept\n"

    # Photovoltaics' bundled row with one or two fields edited: each value
    # passes the row checks, and the forecast overflows a float
    @pytest.mark.parametrize("edit, model", [
        ({"K": "1e300"}, "moore"), ({"sigma_eta": "1e200"}, "wright"), ({"omega": "1e308"}, "wright"),
    ])
    def test_overflowing_forecast_is_one_error(self, tmp_path, capsys, edit, model):
        out = tmp_path / "out"
        out.mkdir()
        (out / "comparison.csv").write_text("kept\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("--output-dir", out, *pv_forecast_args(tmp_path, **edit))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Photovoltaics: the {model} forecast overflows a float\n"
        assert [p.name for p in out.iterdir()] == ["comparison.csv"]
        assert (out / "comparison.csv").read_text() == "kept\n"

    # a zero scale collapses a band: the width ratio is inf where only the
    # moore band collapses and nan where both do; digests captured before
    # the ratio stopped warning
    @pytest.mark.parametrize("edit, digests", [
        ({"K": "0"}, {
            "forecast_wright.csv": "a99ec22f7ac1c8d924d4e64d764d5670c3ef41c027c1d566db570ccabc5eaf01",
            "forecast_moore.csv": "824127316e8d66a343c49f8fd54a1ad830b7c0f6272f252396c4c59c21fe06d0",
            "comparison.csv": "9f8d1f0185a489417b44233f2794e0e06984f6e110d2e234cdbb2085ccc63bd7",
        }),
        ({"K": "0", "sigma_eta": "0"}, {
            "forecast_wright.csv": "1f3e2d7d68d79a4e0f73a3b150406a00bf70d36c694684a5cc74b1e32512b43a",
            "forecast_moore.csv": "824127316e8d66a343c49f8fd54a1ad830b7c0f6272f252396c4c59c21fe06d0",
            "comparison.csv": "074a9868bd8dc4782bb5e22e4e6d2e83dac83762cfa4766effb9d3c7f09b662d",
        }),
    ])
    def test_zero_scale_rows_keep_their_bytes(self, tmp_path, capsys, edit, digests):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("--output-dir", out, *pv_forecast_args(tmp_path, **edit)) == 0
        assert capsys.readouterr().err == ""
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    # a positive scale whose exact variance is 0 (1e-170 squares to 0) or
    # subnormal (1e-160) would collapse the band as a zero scale does
    @pytest.mark.parametrize("edit, model", [
        ({"K": "1e-170"}, "moore"), ({"K": "1e-160"}, "moore"),
        ({"sigma_eta": "1e-170"}, "wright"), ({"sigma_eta": "1e-160"}, "wright"),
    ])
    def test_underflowing_variance_is_one_error(self, tmp_path, capsys, edit, model):
        out = tmp_path / "out"
        out.mkdir()
        (out / "comparison.csv").write_text("kept\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("--output-dir", out, *pv_forecast_args(tmp_path, **edit), "--horizon", 2)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Photovoltaics: the {model} forecast variance underflows a float\n"
        assert [p.name for p in out.iterdir()] == ["comparison.csv"]
        assert (out / "comparison.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("edit", [{"mu": "1000"}, {"r": "1e-300"}, {"r": "1e-17"}])
    def test_underflowing_params_row_names_the_underflow(self, tmp_path, capsys, edit):
        # the early costs, or exp(r) - 1 and so every production value, round to 0
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, *pv_forecast_args(tmp_path, **edit)) == 1
        row = PV_ROW | edit
        r, mu = float(row["r"]), float(row["mu"])
        err = f"error: Photovoltaics: constant growth (r={r}, mu={mu}) underflows a float within 41 periods\n"
        assert capsys.readouterr().err == err
        assert list(out.iterdir()) == []

    def test_params_row_with_missing_fields(self, tmp_path, capsys):
        params = tmp_path / "p.csv"
        params.write_text(
            "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
            "X,12,-0.05,0.05,0.1,0.08,0.1,0.01,-0.5,0.05\n"
        )
        code = run_cli("--output-dir", tmp_path / "o", "forecast", "--params", params, "--tech", "X")
        assert code == 1
        assert capsys.readouterr().err == "error: parameter CSV has a row with missing fields at data row 1\n"

    def test_params_name_given_twice_takes_the_last_row(self, tmp_path):
        header = "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
        first = "X,12,-0.05,0.05,0.1,0.08,0.1,0.01,-0.5,0.05,0.2\n"
        last = "X,15,-0.08,0.06,0.2,0.10,0.2,0.02,-0.4,0.06,0.2\n"
        outputs = {}
        for name, rows in (("both", first + last), ("last", last), ("first", first)):
            params = tmp_path / f"{name}.csv"
            params.write_text(header + rows)
            out = tmp_path / name
            assert run_cli("--output-dir", out, "forecast", "--params", params, "--tech", "X") == 0
            files = ("forecast_wright.csv", "forecast_moore.csv", "comparison.csv")
            outputs[name] = [(out / f).read_bytes() for f in files]
        assert outputs["both"] == outputs["last"] != outputs["first"]

    def test_input_and_params_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "--output-dir", tmp_path / "o", "forecast",
                "--input", tmp_path / "d.csv", "--params", tmp_path / "p.csv", "--tech", "X",
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_from_data_makes_no_ma1_fit(self, tmp_path, monkeypatch):
        # the forecast takes --rho-star, so it needs no MA(1) estimate
        def no_fit(*args, **kwargs):
            raise RuntimeError("fit_wright_ma1 called")

        monkeypatch.setattr(estimators, "fit_wright_ma1", no_fit)
        data = small_dataset(tmp_path, n_tech=2, T=20, seed=8)
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "forecast", "--input", data, "--tech", "tech001", "--horizon", 5
        )
        assert code == 0
        assert (out / "comparison.csv").exists()


class TestDeterminism:
    def _pipeline(self, root, threads):
        out = root / f"run_t{threads}"
        for argv in (
            ["--output-dir", out, "--seed", 11, "--threads", threads, "simulate",
             "--n-tech", 3, "--periods", 14, "--ensembles", 5, "--m", 5, "--tau-max", 4],
            ["--output-dir", out, "--threads", threads, "hindcast",
             "--input", out / "dataset.csv", "--m", 5, "--tau-max", 4],
            ["--output-dir", out, "diagnose", "--errors", out / "errors.csv"],
        ):
            assert run_cli(*argv) == 0
        return out

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a = self._pipeline(tmp_path, 1)
        b = self._pipeline(tmp_path, 4)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# SHA-256 of the estimate and forecast outputs for small_dataset(n_tech=3,
# T=20, seed=2016), captured before the window fits and the realized MA(1)
# variance moved into shared kernels. The diagnose and simulate digests were
# captured before every CSV writer moved onto the column-wise codec, the
# manifests and the runs with non-default options before the manifests were
# built from the parsed options. The calibration ECDF and PIT files of the
# iid runs and of the overlapping true-variance run were re-captured when the
# study's iid windows moved onto the library's window fit and its second
# true-variance form went (last bits of the normalized errors). The Wright
# and comparison files of the forecast-input run were re-captured when the
# exact Wright variance took its future sums from the mean path's cumulative
# sum (last bits of the variances).
GOLDEN_OUTPUTS = {
    "estimate": {
        "params.csv": "b508710e9d50b061f73e619484f74a214fd9660a1aaccd97908db3b63e14ad47",
        "series.csv": "91f00f5494a7b232e9220a72461288dac395ec92aba85261dd3d4f3babacdf1f",
        "estimate_manifest.txt": "72ada45941631b5b9b320f69edb5766b86e11954b3a8321948f7b4dab97c1ce2",
    },
    "forecast-table": {
        "forecast_wright.csv": "d0066a77243a08607a72a18669b6ad9a3e4c8a37903f338e7479038aea93a7a0",
        "forecast_moore.csv": "e7b16c196ebed0748ff2775d127b017fcb2c039355260256cc4cc81daba3660b",
        "comparison.csv": "d3fb5056c854dca9918607317cdcde737cdab0d07c067b2815f51b17676e624f",
        "forecast_manifest.txt": "5389900dab4e04b602b1e58cfe5245ad11a4cfd68d0437ba6f8672cb383eff77",
    },
    "forecast-input": {
        "forecast_wright.csv": "b9eb9e45b60def62b1edb9748b4682c8e3671e7e38738c1ee691548fa12b3d41",
        "forecast_moore.csv": "dafdb8493bf4e07abb2bfec4c82578c7d7fe39a267d06c347386ad975e7f8ca9",
        "comparison.csv": "2bfa2c8e960583b5358bbd44f13fe3f09685dd578b074081f81e168e76e23883",
        "forecast_manifest.txt": "67750e1fd70a472ef92cecf07cc2888785f518aa7aefd3a7bffa85df45d24ff6",
    },
    "diagnose-student": {
        "ecdf.csv": "afd542a48f49bb1023c9479b8641dd1ef531a71c5429da4759e95c6a8bb0a16a",
        "pit.csv": "2416f160da7b2d09c73d0ee123e07ee40539da08fff170d0dbd8e43c8bd2d387",
        "sahal.csv": "f2a84106794e376917798dfeb52c22ca304656b522e74a880952e38f48ba2930",
        "tanh.csv": "8db833766bcef5a1cc39f4f1e593accbf3479b84c143bcaca15bd003fd35e71b",
        "summary.txt": "b0dc17368b0bf4ba0f083821a4a4fb3b1395d8b6407db1538251ba3a446c1143",
        "diagnose_manifest.txt": "3212a768bcc0dad768cb93cdbd76213f7cb074454707badda0a071bd2efbb5ba",
    },
    "diagnose-normal": {
        "ecdf.csv": "e1e1fc6e2130699163ddc3a6cc3bbb772a67c7f8ff9a8689316249490d95a7f5",
        "pit.csv": "84c05c73d77c5834da2cb859e888afb3297394446f5c9a8b9309f870c80b17bf",
        "diagnose_manifest.txt": "b127a12ef3de5f5e8d7271f212b854f67dd3f1f5c05a3ce4fe252cc154fc88dc",
    },
    "simulate-dataset": {
        "dataset.csv": "91f00f5494a7b232e9220a72461288dac395ec92aba85261dd3d4f3babacdf1f",
        "simulate_manifest.txt": "1ffcb76c2c7607457d486ff802fbcbd384c3df06d6a0036c0f6b6822a820223a",
    },
    "simulate-calibration": {
        "calibration_ecdf.csv": "aee8e63b9ff034092220ece5f52a8128cd9d2462044d440b6b39012006537fb0",
        "calibration_pit.csv": "08f917a2a22382c490d6fcdbb96acbcdad723509fbcf9f0ca836c3e4ac2b4e48",
        "simulate_manifest.txt": "67466624d6cf253cc6223a385650d6736fd3c8cc2ff061b1dccde3b644eaaad6",
    },
    "simulate-bands": {
        "bands_moore.csv": "7af1b46a02b2eab54f2b31ea1dd563234d4d8b18a09ce4263378c956ee831277",
        "bands_wright.csv": "daa07c9631c1ab9cc11fa28e26491f0a049e8d3f1983e16d87c0a43bf4e7a09b",
        "simulate_manifest.txt": "788311202a3dfd1436c374fb92a1690532b53f03977c855b4e4a65adfb2eb455",
    },
    "hindcast-options": {
        "errors.csv": "21f6d6a7bcd6804140c424c257d80eccf4b30430e0351cc74229b9e74d4e47ce",
        "hindcast_manifest.txt": "3aa258fd40884907ccf5e30889fd3797bd2c22aac706aa8a93740fb05d88b9c6",
    },
    "forecast-params": {
        "forecast_wright.csv": "eb33fa611eae99c430f39f8339d061759e5c70531e7b18bbd6305bac5637bac4",
        "forecast_moore.csv": "5d9e0c84381282c543000c6a838e8b39fc939dde0874ba4c265069cfed3a91f9",
        "comparison.csv": "7e5130cb1ca697e8858d44d9e29a4d59ee482bb76f221c700b537aeeeadf9958",
        "forecast_manifest.txt": "f56311213f889ac549ecaf9ad7ab8d09bc501318d9f96043645bf238fe122c1b",
    },
    "simulate-options": {
        "dataset.csv": "c60b8edc7e625219cdaa135f546cabeb112dd21ca8a89448bbf9f91be9a00a65",
        "bands_moore.csv": "2f269d971a5f16d58b0042d647e9f11ee9037c81a87e5fa3916ed061e3571950",
        "bands_wright.csv": "b79ed2d5d9f2257125a52bb468d5724d3f8e82f075e8655bc6fc7b639148a779",
        "simulate_manifest.txt": "8809255e81a842d39477f182c39ab0c6ffd63ca61379cf379dd0f269814aebf4",
    },
    "simulate-calibration-options": {
        "calibration_ecdf.csv": "75cc0cac2d2ded2697d7c7080c9bee6d0fee61b78d1b06e94a779e64e286eed6",
        "calibration_pit.csv": "b4e228d61e7f139872d558e77c3ccfe3cc9343d2f9450559c58a30bd9e7d0032",
        "summary.txt": "29ec30450fe8dbc9001199657fa09de3210f70d2706b745a8e07206dfd7dcb61",
        "simulate_manifest.txt": "a575b50115ebff60f1d89e97bb354d9c3a03e99ba4da7d91e9795631afae94b4",
    },
    # the two calibration branches the runs above leave out
    "simulate-calibration-iid-true": {
        "calibration_ecdf.csv": "f67821662916b40c1b629e0ba08e2ad4a87ce6a9c22adce525355a49f4b05398",
        "calibration_pit.csv": "736dc3b099a91720906537e9e371551843aaf82d193a030770a7e4ea8e2337a7",
        "summary.txt": "d37eeb0e1f93952d78dafcc24ceb5d4193be0f823893c13fc64396342ae237a9",
        "simulate_manifest.txt": "2cd86f2bb373cb1ff6ddd3aa7cd59b23ab7c1296d81d8b871a249ff868724308",
    },
    "simulate-calibration-overlapping-estimated": {
        "calibration_ecdf.csv": "0aa8df933c3cb82eebfb58d44e9b3beab7915ecb5246354758cdce01df07eff1",
        "calibration_pit.csv": "3e728673563452e783756210d2897b76293823781e94ea69f575e8185a3fe80c",
        "summary.txt": "a4311ced26b5ce15ae24c11bb93b36fa517cfcfde0ad203b0c667cbeac0a949e",
        "simulate_manifest.txt": "9865e061324b086e41f9533787e2297395ebfb7379dc37c165242034329b1ba4",
    },
}


def _golden_argvs(run, data, out):
    """The commands of one golden run; all but the last prepare its inputs."""
    estimate = ["estimate", "--input", data, "--emit-series"]
    hindcast = ["hindcast", "--input", data]
    return {
        "estimate": [estimate],
        "forecast-table": [["forecast", "--tech", "Photovoltaics", "--horizon", 12]],
        "forecast-input": [["forecast", "--input", data, "--tech", "tech001", "--horizon", 12]],
        "diagnose-student": [
            estimate,
            hindcast,
            ["diagnose", "--errors", out / "errors.csv", "--params", out / "params.csv"],
        ],
        "diagnose-normal": [
            hindcast,
            ["diagnose", "--errors", out / "errors.csv", "--reference", "normal"],
        ],
        "simulate-dataset": [
            ["--seed", 2016, "simulate", "--n-tech", 3, "--periods", 20, "--ensembles", 0]
        ],
        "simulate-calibration": [
            ["--seed", 2016, "simulate", "--calibration", "--iid-windows",
             "--n-tech", 10, "--periods", 20]
        ],
        "simulate-bands": [
            ["--seed", 2016, "simulate", "--n-tech", 3, "--periods", 20,
             "--ensembles", 2, "--tau-max", 6]
        ],
        "hindcast-options": [hindcast + ["--m", 4, "--tau-max", 7, "--rho-star", 0.3]],
        "forecast-params": [
            estimate,
            ["--seed", 9, "forecast", "--params", out / "params.csv", "--tech", "tech001",
             "--horizon", 7, "--future-growth", 0.05, "--rho-star", 0.25, "--theta-star", 0.3],
        ],
        # the calibration-only options given outside calibration, and the
        # generator options given in calibration, are all left out
        "simulate-options": [
            ["--seed", 3, "--threads", 3, "simulate", "--n-tech", 2, "--periods", 12,
             "--g", 0.2, "--sigma-q", 0.05, "--omega", -0.5, "--sigma-eta", 0.2, "--rho", 0.3,
             "--ensembles", 2, "--m", 4, "--tau-max", 3, "--rho-star", 0.25,
             "--shared-production", "--no-correction", "--variance", "true", "--iid-windows"]
        ],
        "simulate-calibration-options": [
            ["--seed", 5, "simulate", "--calibration", "--m", 4, "--variance", "true",
             "--n-tech", 6, "--periods", 12, "--g", 0.3, "--ensembles", 3, "--rho-star", 0.25]
        ],
        "simulate-calibration-iid-true": [
            ["--seed", 2016, "simulate", "--calibration", "--iid-windows", "--variance", "true",
             "--n-tech", 10, "--periods", 20]
        ],
        "simulate-calibration-overlapping-estimated": [
            ["--seed", 2016, "simulate", "--calibration", "--n-tech", 6, "--periods", 14]
        ],
    }[run]


class TestGoldenBytes:
    @pytest.mark.parametrize("run", sorted(GOLDEN_OUTPUTS))
    def test_output_digests(self, tmp_path, run):
        data = small_dataset(tmp_path, n_tech=3, T=20, seed=2016)
        out = tmp_path / "out"
        for argv in _golden_argvs(run, data, out):
            assert run_cli("--output-dir", out, *argv) == 0
        for name, digest in GOLDEN_OUTPUTS[run].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the outputs of a mimicked dataset of five technologies with T = 5,
# 9, 17, 130 and 200 periods, captured before the dataset became one columnar
# table. Lengths above 8 and above 128 cross NumPy's pairwise-summation
# blocks, so a growth mean, a standard deviation or an experience sum that
# changed its order of additions would change these bytes. The manifests were
# captured before they were built from the parsed options.
MIXED_PARAMS = (
    "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
    "A,5,-0.05,0.05,0.15,0.08,0.1,0.01,-0.5,0.05,0.2\n"
    "B,9,-0.08,0.06,0.2,0.1,0.2,0.02,-0.4,0.06,0.2\n"
    "C,17,-0.03,0.04,0.1,0.12,0.1,0.01,-0.3,0.08,0.2\n"
    "D,130,-0.02,0.05,0.05,0.09,0.05,0.01,-0.2,0.1,0.2\n"
    "E,200,-0.04,0.07,0.12,0.15,0.1,0.02,-0.35,0.07,0.2\n"
)
GOLDEN_MIXED = {
    "estimate": {
        "params.csv": "2bf02f1e10fc7d4a4749833fc312532fc4da8feddfdfd8069b7d7fe3baa7b525",
        "series.csv": "e48c7f4ea5e83982cc6847535468f6bc398175f52ea70405144754789bf4f3be",
        "estimate_manifest.txt": "cc452357f37b9c71d0255bd7d342c21e61dd8eacf8a3649d18cb801fbcca1bd4",
    },
    "hindcast": {
        "errors.csv": "aea1778cc863426fdad7eb2ff17554143fd9a06e51a7e4c49140feb09ce0b92f",
        "hindcast_manifest.txt": "46ebc03b1c0d393b7dc7828077269cabf13df26adb953d3dabd1fba577735864",
    },
    "simulate": {
        "dataset.csv": "e48c7f4ea5e83982cc6847535468f6bc398175f52ea70405144754789bf4f3be",
        "bands_moore.csv": "b2ce5d22ccf03443d292b830a722d6da3b9bc3701a247f20ee891a32a794e494",
        "bands_wright.csv": "fabd047d70c29bef383b752faa09135bae8844e228681d4fc7a8496eb42b6eb8",
        "simulate_manifest.txt": "0cf160f2176566caf754a1335c6c6d587522255c211837b32e359d09d133448d",
    },
    "simulate-plain": {
        "dataset.csv": "5571ad36248e463760a24b13077eaff885a8a17e9a61606d7e047f2c5234c6b5",
        "bands_moore.csv": "04a080e3802be592375e22e32d45c30745c97cc7604fb0a824bb3d5bb8cd429a",
        "bands_wright.csv": "d6f9251f61e930f5ee7eea7f37b07f84526675b9a7145bdd4d4de57152d9629c",
        "simulate_manifest.txt": "dd9cb9c5f9281d9ffeb18aa2a35601100135b82fc2dad0658c661796bda09b60",
    },
    "simulate-shared": {
        "dataset.csv": "bb69d39f80ed7d0278342d66719af772a5d0dc56e1bc12cb64ad22d2b71f2c10",
        "bands_moore.csv": "7bd96cdfc8ec0ae884d4c2b927b990db0616f7b487c47371d29f9734acc2a4d3",
        "bands_wright.csv": "2e9e6cac23bb8a22710f80a1a0a86dc05b3d5be7d71de651ec5dc40fa45f89d6",
        "simulate_manifest.txt": "bc8f2041c2277e5b3b4ba260a06e6532f84e6cfb1deec732571248d691c9e8aa",
    },
    "simulate-shared-plain": {
        "dataset.csv": "86dd515fef1db2977c7e4994a019d4c61a8ac9fefeee94a8b10179dcbd079c5f",
        "bands_moore.csv": "3ed5427048233f023bd24fb4ab3c6f1725d688846cfe50e27bf1676ccd9d9fea",
        "bands_wright.csv": "d8e80b9a9d3fbea2649e17c5d6a3b528b3179bd5f3922b1ecec2dcb57b0abe2e",
        "simulate_manifest.txt": "9028098e34d1317471aa80a2e5d79e40a96d09d79544f3f0fa41c1d6fbb4b539",
    },
}


def _mixed_argvs(run, params, out):
    simulate = ["--seed", 2016, "simulate", "--mimic", params, "--ensembles", 2]
    if run.startswith("simulate"):
        flags = {"simulate": [], "simulate-shared": ["--shared-production"],
                 "simulate-plain": ["--no-correction"],
                 "simulate-shared-plain": ["--shared-production", "--no-correction"]}[run]
        return [simulate + flags]
    data = out / "dataset.csv"
    last = {"estimate": ["estimate", "--input", data, "--emit-series"],
            "hindcast": ["hindcast", "--input", data]}[run]
    return [simulate, last]


class TestMixedLengthGoldenBytes:
    @pytest.mark.parametrize("run", sorted(GOLDEN_MIXED))
    def test_output_digests(self, tmp_path, run):
        params = tmp_path / "mixed.csv"
        params.write_text(MIXED_PARAMS)
        out = tmp_path / "out"
        # every run hindcasts the T = 5 technology, too short for m = 5
        with pytest.warns(UserWarning, match=r"tech000: too short for m=5 \(T=5\); skipped"):
            for argv in _mixed_argvs(run, params, out):
                assert run_cli("--output-dir", out, *argv) == 0
        for name, digest in GOLDEN_MIXED[run].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name



class TestEnsembleStatistic:
    def test_bands_build_no_error_table(self, tmp_path, monkeypatch):
        # An ensemble replicate reads the window gather only; building the
        # full error table would call the patched builder and fail.
        def no_table(*args, **kwargs):
            raise AssertionError("an ensemble replicate built an error table")

        monkeypatch.setattr(hindcast, "_error_table", no_table)
        out = tmp_path / "out"
        (argv,) = _golden_argvs("simulate-bands", None, out)
        assert run_cli("--output-dir", out, *argv) == 0
        for name, digest in GOLDEN_OUTPUTS["simulate-bands"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

class TestOneWritePath:
    def test_commands_write_without_csv_writer(self, tmp_path, monkeypatch):
        # The codec bound csv.writer when it was imported; any other CSV
        # write path would call the patched one and fail.
        def no_writer(*args, **kwargs):
            raise AssertionError("csv.writer called outside the codec")

        monkeypatch.setattr(csv, "writer", no_writer)
        out = tmp_path / "out"
        data = out / "dataset.csv"
        for argv in (
            ["simulate", "--n-tech", 3, "--periods", 16, "--ensembles", 0],
            ["estimate", "--input", data, "--emit-series"],
            ["hindcast", "--input", data, "--tau-max", 4],
            ["diagnose", "--errors", out / "errors.csv", "--params", out / "params.csv"],
            ["forecast", "--input", data, "--tech", "tech001", "--horizon", 4],
            ["simulate", "--n-tech", 3, "--periods", 16, "--ensembles", 2, "--tau-max", 4],
            ["simulate", "--calibration", "--iid-windows", "--n-tech", 5, "--periods", 12],
        ):
            assert run_cli("--output-dir", out, *argv) == 0, argv
        for name in ("series.csv", "errors.csv", "ecdf.csv", "pit.csv", "sahal.csv", "tanh.csv",
                     "forecast_wright.csv", "comparison.csv", "bands_moore.csv",
                     "calibration_ecdf.csv", "calibration_pit.csv"):
            assert (out / name).stat().st_size > 0, name


class TestOneParamsReadPath:
    def test_commands_read_params_without_dict_reader(self, tmp_path, monkeypatch):
        # every CSV a command reads, series and parameter tables alike, goes
        # through the codec, which needs no DictReader
        def no_reader(*args, **kwargs):
            raise AssertionError("csv.DictReader called outside the codec")

        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(csv, "DictReader", no_reader)
        for argv in (
            ["estimate", "--input", data],
            ["hindcast", "--input", data, "--tau-max", 4],
            ["forecast", "--input", data, "--tech", "tech001", "--horizon", 4],
            ["forecast", "--tech", "Photovoltaics", "--horizon", 4],
            ["simulate", "--mimic", out / "params.csv", "--ensembles", 0],
            ["diagnose", "--errors", out / "errors.csv", "--params", out / "params.csv"],
        ):
            assert run_cli("--output-dir", out, *argv) == 0, argv


class TestOneSeriesPath:
    def test_commands_build_no_series_objects(self, tmp_path, monkeypatch):
        # datasets are tables from ingest and generation through the
        # hindcast and the CSV; constructing (and re-checking) one
        # TechSeries per technology would call the patched method and fail
        def no_series(self):
            raise AssertionError("TechSeries constructed")

        data = small_dataset(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(TechSeries, "__post_init__", no_series)
        for argv in (
            ["estimate", "--input", data, "--emit-series"],
            ["hindcast", "--input", data, "--tau-max", 4],
            ["simulate", "--n-tech", 3, "--periods", 16, "--ensembles", 2, "--tau-max", 4],
            ["simulate", "--mimic", reference_params_path(), "--ensembles", 2],
        ):
            assert run_cli("--output-dir", out, *argv) == 0, argv


class TestOneEstimatePath:
    def test_estimate_reads_columns(self, tmp_path, monkeypatch):
        # whole-sample estimates come from the table's columns; a row view,
        # a per-series difference copy or a per-series fit would call a
        # patched function and fail
        def refuse(*args, **kwargs):
            raise AssertionError("per-series path taken")

        params = tmp_path / "mixed.csv"
        params.write_text(MIXED_PARAMS)
        mixed = tmp_path / "mixed"
        with pytest.warns(UserWarning, match="too short"):
            assert run_cli("--output-dir", mixed, *_mixed_argvs("estimate", params, mixed)[0]) == 0
        fits = {"window": 0, "ma1": 0}

        def count(name, fn):
            def wrapped(*args):
                fits[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(SeriesTable, "__iter__", refuse)
        monkeypatch.setattr(TechSeries, "diffs", refuse)
        monkeypatch.setattr(estimators, "fit_wright", refuse)
        monkeypatch.setattr(estimators, "fit_moore", refuse)
        monkeypatch.setattr(estimators, "_window_fits", count("window", estimators._window_fits))
        monkeypatch.setattr(estimators, "fit_wright_ma1", count("ma1", estimators.fit_wright_ma1))
        # 3 series of one length, then 5 of 5 distinct lengths
        for data, lengths in ((small_dataset(tmp_path), 1), (mixed / "dataset.csv", 5)):
            fits.update(window=0, ma1=0)
            argv = ["--output-dir", tmp_path / "out", "estimate", "--input", data, "--emit-series"]
            assert run_cli(*argv) == 0
            assert fits == {"window": lengths, "ma1": 1}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        data = small_dataset(tmp_path, n_tech=1, T=10)
        # the child imports the package these tests import
        path = (str(Path(expcurve.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "expcurve", "--output-dir", str(tmp_path / "o"),
             "estimate", "--input", str(data)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
