import csv
import hashlib
import math
import subprocess
import sys
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
)
from expcurve import estimators
from expcurve.cli import main
from expcurve.params_io import reference_params_path


def run_cli(*args):
    return main([str(a) for a in args])


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
# captured before every CSV writer moved onto the column-wise codec.
GOLDEN_OUTPUTS = {
    "estimate": {
        "params.csv": "b508710e9d50b061f73e619484f74a214fd9660a1aaccd97908db3b63e14ad47",
        "series.csv": "91f00f5494a7b232e9220a72461288dac395ec92aba85261dd3d4f3babacdf1f",
    },
    "forecast-table": {
        "forecast_wright.csv": "d0066a77243a08607a72a18669b6ad9a3e4c8a37903f338e7479038aea93a7a0",
        "forecast_moore.csv": "e7b16c196ebed0748ff2775d127b017fcb2c039355260256cc4cc81daba3660b",
        "comparison.csv": "d3fb5056c854dca9918607317cdcde737cdab0d07c067b2815f51b17676e624f",
    },
    "forecast-input": {
        "forecast_wright.csv": "8ace5388d697f2e98aafc6288bcbbda4da0744569cabfed28c9821c5d23f0674",
        "forecast_moore.csv": "dafdb8493bf4e07abb2bfec4c82578c7d7fe39a267d06c347386ad975e7f8ca9",
        "comparison.csv": "7778524a9e246c93e7bb3c6b15f3dc4e31bcab1b5f17f90abdb372574955c3bb",
    },
    "diagnose-student": {
        "ecdf.csv": "afd542a48f49bb1023c9479b8641dd1ef531a71c5429da4759e95c6a8bb0a16a",
        "pit.csv": "2416f160da7b2d09c73d0ee123e07ee40539da08fff170d0dbd8e43c8bd2d387",
        "sahal.csv": "f2a84106794e376917798dfeb52c22ca304656b522e74a880952e38f48ba2930",
        "tanh.csv": "8db833766bcef5a1cc39f4f1e593accbf3479b84c143bcaca15bd003fd35e71b",
        "summary.txt": "b0dc17368b0bf4ba0f083821a4a4fb3b1395d8b6407db1538251ba3a446c1143",
    },
    "diagnose-normal": {
        "ecdf.csv": "e1e1fc6e2130699163ddc3a6cc3bbb772a67c7f8ff9a8689316249490d95a7f5",
        "pit.csv": "84c05c73d77c5834da2cb859e888afb3297394446f5c9a8b9309f870c80b17bf",
    },
    "simulate-dataset": {
        "dataset.csv": "91f00f5494a7b232e9220a72461288dac395ec92aba85261dd3d4f3babacdf1f",
    },
    "simulate-calibration": {
        "calibration_ecdf.csv": "a108c9206011f173535917c678ee831095f83e8de65380373c142b84de25dc95",
        "calibration_pit.csv": "5e1d9527627cb68436a7b2646ea382cf639210e16c4ad7526093c91bcfaed96f",
    },
    "simulate-bands": {
        "bands_moore.csv": "7af1b46a02b2eab54f2b31ea1dd563234d4d8b18a09ce4263378c956ee831277",
        "bands_wright.csv": "daa07c9631c1ab9cc11fa28e26491f0a049e8d3f1983e16d87c0a43bf4e7a09b",
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
# changed its order of additions would change these bytes.
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
    },
    "hindcast": {
        "errors.csv": "aea1778cc863426fdad7eb2ff17554143fd9a06e51a7e4c49140feb09ce0b92f",
    },
    "simulate": {
        "dataset.csv": "e48c7f4ea5e83982cc6847535468f6bc398175f52ea70405144754789bf4f3be",
        "bands_moore.csv": "b2ce5d22ccf03443d292b830a722d6da3b9bc3701a247f20ee891a32a794e494",
        "bands_wright.csv": "fabd047d70c29bef383b752faa09135bae8844e228681d4fc7a8496eb42b6eb8",
    },
    "simulate-plain": {
        "dataset.csv": "5571ad36248e463760a24b13077eaff885a8a17e9a61606d7e047f2c5234c6b5",
        "bands_moore.csv": "04a080e3802be592375e22e32d45c30745c97cc7604fb0a824bb3d5bb8cd429a",
        "bands_wright.csv": "d6f9251f61e930f5ee7eea7f37b07f84526675b9a7145bdd4d4de57152d9629c",
    },
    "simulate-shared": {
        "dataset.csv": "bb69d39f80ed7d0278342d66719af772a5d0dc56e1bc12cb64ad22d2b71f2c10",
        "bands_moore.csv": "7bd96cdfc8ec0ae884d4c2b927b990db0616f7b487c47371d29f9734acc2a4d3",
        "bands_wright.csv": "2e9e6cac23bb8a22710f80a1a0a86dc05b3d5be7d71de651ec5dc40fa45f89d6",
    },
    "simulate-shared-plain": {
        "dataset.csv": "86dd515fef1db2977c7e4994a019d4c61a8ac9fefeee94a8b10179dcbd079c5f",
        "bands_moore.csv": "3ed5427048233f023bd24fb4ab3c6f1725d688846cfe50e27bf1676ccd9d9fea",
        "bands_wright.csv": "d8e80b9a9d3fbea2649e17c5d6a3b528b3179bd5f3922b1ecec2dcb57b0abe2e",
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
        proc = subprocess.run(
            [sys.executable, "-m", "expcurve", "--output-dir", str(tmp_path / "o"),
             "estimate", "--input", str(data)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
