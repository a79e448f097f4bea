"""Distributional technology-cost forecasts from experience curves.

First-difference experience-curve (cost vs cumulative production) and
time-trend (drifting random walk) models, closed-form forecast-error
variances, rolling-origin hindcast validation, surrogate-data confidence
bands, and distribution diagnostics.
"""

from types import ModuleType as _ModuleType

from .series import (
    DataError,
    DiffSeries,
    GrowthStats,
    SeriesTable,
    TechSeries,
    build_experience,
    growth_stats,
    ingest_csv,
    write_csv,
)
from .estimators import (
    MooreParams,
    WrightParams,
    fit_moore,
    fit_wright,
    fit_wright_ma1,
    full_sample_estimates,
    pool_rho,
)
from .variance import (
    a_factor,
    ma1_variance_approx,
    ma1_variance_constant_x,
    moore_variance,
    sigma_x_theory,
    wright_ma1_variance,
    wright_variance,
)
from .hindcast import (
    HindcastConfig,
    HindcastError,
    HindcastTable,
    mse_by_horizon,
    pooled_errors,
    read_errors_csv,
    run_hindcast,
    write_errors_csv,
)
from .surrogate import (
    CalibrationResult,
    SurrogateSpec,
    ensemble_band,
    make_dataset,
    run_calibration_study,
    run_ensemble,
)
from .diagnostics import (
    DistCheck,
    ecdf_vs_reference,
    ks_critical_value,
    pit,
    sahal_check,
    tanh_check,
)
from .forecast import (
    DistForecast,
    compare_forecasts,
    constant_growth_series,
    forecast_moore,
    forecast_wright,
)
from .params_io import load_reference_params, read_params_csv, write_params_csv

__version__ = "0.1.0"

# every name imported above is public
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
