import subprocess
import sys
from pathlib import Path

import pytest

import expcurve


# The public names, sorted. Adding or removing one is a deliberate change
# to the API, so it shows as a diff here.
PUBLIC_API = (
    "CalibrationResult",
    "DataError",
    "DiffSeries",
    "DistCheck",
    "DistForecast",
    "EnsembleResult",
    "GrowthStats",
    "HindcastConfig",
    "HindcastError",
    "HindcastTable",
    "MooreParams",
    "SeriesTable",
    "SurrogateSpec",
    "TechSeries",
    "WrightParams",
    "__version__",
    "a_factor",
    "build_experience",
    "compare_forecasts",
    "constant_growth_series",
    "ecdf_vs_reference",
    "fit_moore",
    "fit_wright",
    "fit_wright_ma1",
    "forecast_moore",
    "forecast_wright",
    "full_sample_estimates",
    "gen_log_production",
    "growth_stats",
    "ingest_csv",
    "ks_critical_value",
    "load_reference_params",
    "ma1_variance_approx",
    "ma1_variance_constant_x",
    "make_dataset",
    "moore_variance",
    "mse_by_horizon",
    "pit",
    "pool_rho",
    "pooled_errors",
    "read_errors_csv",
    "read_params_csv",
    "run_calibration_study",
    "run_ensemble",
    "run_hindcast",
    "sahal_check",
    "sigma_x_theory",
    "tanh_check",
    "wright_ma1_variance",
    "wright_variance",
    "write_csv",
    "write_errors_csv",
    "write_params_csv",
)


@pytest.mark.parametrize("module", [expcurve], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_public_api_is_pinned():
    assert tuple(sorted(expcurve.__all__)) == PUBLIC_API


def test_diagnostics_does_not_load_surrogate():
    # Load expcurve.diagnostics under a bare package, so the package
    # __init__ (which imports every module) does not run, then use the
    # volatility-law check that needs sigma_x_theory.
    src = Path(expcurve.__file__).parent
    code = f"""
import sys, types
pkg = types.ModuleType("expcurve")
pkg.__path__ = [{str(src)!r}]
sys.modules["expcurve"] = pkg
from expcurve.diagnostics import tanh_check
tanh_check([0.1], [0.1])
assert "expcurve.surrogate" not in sys.modules, "diagnostics loaded surrogate"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


MIMIC_PARAMS = (
    "technology,T,mu,K,g,sigma_q,r,sigma_x,omega,sigma_eta,rho\n"
    "X,12,-0.05,0.05,0.1,0.08,0.1,0.01,-0.5,0.05,0.2\n"
    "Y,10,-0.08,0.06,0.2,0.10,0.2,0.02,-0.4,0.06,0.2\n"
    "Z,11,-0.03,0.04,0.15,0.09,0.15,0.015,-0.3,0.04,0.2\n"
)


# Arguments that _reference_cdf rejects before it imports SciPy.
BAD_REFERENCE_CALLS = """
from expcurve import ecdf_vs_reference, pit
for f in (ecdf_vs_reference, pit):
    for reference, df in (("cauchy", None), ("student", None), ("student", float("nan"))):
        try:
            f([1.0, 2.0], reference, df)
        except ValueError:
            continue
        raise AssertionError(f"{f.__name__}({reference!r}, df={df}) did not raise")
"""


def test_cli_does_not_load_scipy_stats(tmp_path):
    # Only a reference CDF needs SciPy, and importing scipy.special costs
    # more than half of `import expcurve`. So importing the package, and
    # every command that evaluates no CDF, must leave SciPy unloaded. Each
    # case runs in a fresh interpreter.
    data = tmp_path / "data.csv"
    spec = expcurve.SurrogateSpec(n_tech=3, T=14, seed=5, n_ensembles=1)
    expcurve.write_csv(data, expcurve.make_dataset(spec, 0))
    params = tmp_path / "params.csv"
    params.write_text(MIMIC_PARAMS)
    out = tmp_path / "out"

    def run_main(*argv):
        argv = [str(a) for a in ("--output-dir", out, *argv)]
        return f"from expcurve.cli import main\nassert main({argv!r}) == 0"

    cases = {
        # numpy.random loads with the first surrogate draw
        "import expcurve": "import expcurve, expcurve.cli\nassert 'numpy.random' not in sys.modules",
        "bad reference arguments": BAD_REFERENCE_CALLS,
        "simulate": run_main("simulate", "--n-tech", 3, "--periods", 12, "--ensembles", 0),
        "simulate --mimic": run_main("simulate", "--mimic", params, "--ensembles", 1, "--tau-max", 4),
        "estimate": run_main("estimate", "--input", data, "--emit-series"),
        "hindcast": run_main("hindcast", "--input", data, "--tau-max", 4),
        "forecast (table)": run_main("forecast", "--tech", "Photovoltaics", "--horizon", 5),
        "forecast --input": run_main("forecast", "--input", data, "--tech", "tech001", "--horizon", 5),
    }
    for case, run in cases.items():
        code = f"""
import sys
sys.path.insert(0, {str(Path(expcurve.__file__).parent.parent)!r})
{run}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, f"{case}: {proc.stderr}"
