"""surrocast: surrogate-assisted time-series prediction and inference.

A monthly target series is modeled jointly with a higher-frequency surrogate
panel whose errors are correlated with the target's. The package provides the
two-step least-squares estimator, multi-step forecasts, two prediction
interval constructions, stepwise feature selection, and a Monte Carlo
evaluation harness, plus a small CLI (``surrocast --help``).

Only the error classes are imported with the package. Every other public
name, and every submodule, is imported on first access (PEP 562), so
``import surrocast`` loads no numpy and a CLI command loads only the
modules it runs.
"""

import importlib as _importlib

from . import errors
from .errors import *  # noqa: F403 (the error classes, errors.__all__)

__version__ = "0.1.0"

# The public names of each submodule: its __all__, and the names the package
# imports from it on first access.
_PUBLIC = {
    "panels": (
        "DailyIndex",
        "MonthlyPanel",
        "StandardizedSeries",
        "SurrogatePanel",
        "aggregate_daily",
        "month_range",
        "read_daily_csv",
        "read_monthly_csv",
        "read_surrogate_csv",
        "standardize_cpi",
        "standardize_z",
    ),
    "estimation": (
        "ArxFit",
        "JointFit",
        "SurrogateFit",
        "companion_matrix",
        "d_residual_matrix",
        "efficiency_gain",
        "fit_arx",
        "fit_joint",
        "fit_joint_step2",
        "fit_surrogate",
        "joint_fit_from_dict",
        "joint_fit_to_dict",
        "residual_pairs",
    ),
    "forecasting": (
        "ForecastResult",
        "FutureExogenous",
        "Method",
        "forecast_arx",
        "forecast_ave",
        "forecast_joint",
        "forecast_rw",
    ),
    "intervals": (
        "BootstrapConfig",
        "IntervalResult",
        "bj_interval",
        "bj_interval_estimated",
        "boot_interval",
        "companion_weight",
    ),
    "selection": (
        "SelectionResult",
        "corrected_aic",
        "correlation_pursuit",
        "select_ar_order",
    ),
    "simulation": (
        "Ar1Spec",
        "DgpSpec",
        "ExperimentGrid",
        "ReportRow",
        "SimulationReport",
        "benchmark_dgp",
        "coverage_length",
        "equicorrelated",
        "generate",
        "rpmse",
        "rsign",
        "run_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [
    *errors.__all__,
    *_MODULE_OF,
    # the submodules, which a star import binds too
    "errors",
    *_PUBLIC,
]


def __getattr__(name: str):
    if name in _PUBLIC:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
