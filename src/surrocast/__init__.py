"""surrocast: surrogate-assisted time-series prediction and inference.

A monthly target series is modeled jointly with a higher-frequency surrogate
panel whose errors are correlated with the target's. The package provides the
two-step least-squares estimator, multi-step forecasts, two prediction
interval constructions, stepwise feature selection, and a Monte Carlo
evaluation harness, plus a small CLI (``surrocast --help``).
"""

from .errors import (
    BaselineDegenerate,
    BootstrapUnstable,
    DataError,
    DegenerateSeries,
    InsufficientSample,
    InvalidCovariance,
    InvalidData,
    MissingExogenous,
    MissingPeriod,
    NonStationarySpec,
    NumericalError,
    PanelMismatch,
    PenaltyUndefined,
    RankDeficient,
    SurrocastError,
)
from .panels import (
    DailyIndex,
    MonthlyPanel,
    StandardizedSeries,
    SurrogatePanel,
    aggregate_daily,
    month_range,
    read_daily_csv,
    read_monthly_csv,
    read_surrogate_csv,
    standardize_cpi,
    standardize_z,
)
from .estimation import (
    ArxFit,
    JointFit,
    SurrogateFit,
    companion_matrix,
    d_residual_matrix,
    fit_arx,
    fit_joint,
    fit_joint_step2,
    fit_surrogate,
    joint_fit_from_dict,
    joint_fit_to_dict,
    ols_solve,
    residual_pairs,
)
from .forecasting import (
    ForecastResult,
    FutureExogenous,
    Method,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
)
from .intervals import (
    BootstrapConfig,
    IntervalResult,
    bj_interval,
    bj_interval_estimated,
    boot_interval,
    companion_weight,
    efficiency_gain,
)
from .selection import (
    SelectionResult,
    corrected_aic,
    correlation_pursuit,
    select_ar_order,
)
from .simulation import (
    Ar1Spec,
    DgpSpec,
    ExperimentGrid,
    ReportRow,
    SimulationReport,
    SimTruth,
    benchmark_dgp,
    coverage_length,
    equicorrelated,
    generate,
    rpmse,
    rsign,
    run_experiment,
)

__version__ = "0.1.0"
