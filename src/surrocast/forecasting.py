"""Multi-step point forecasts for the joint model and the benchmark models.

All autoregressive forecasts use the rolling recursion: the h-step value is
computed from earlier forecasts, with observed history substituted for every
index at or before the forecast origin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSample, InvalidData, MissingExogenous
from .estimation import ArxFit, JointFit, SurrogateFit, d_residual_matrix
from .panels import MonthlyPanel, SurrogatePanel, check_aligned

__all__ = [
    "Method",
    "FutureExogenous",
    "ForecastResult",
    "forecast_joint",
    "forecast_arx",
    "forecast_rw",
    "forecast_ave",
]


class Method(str, enum.Enum):
    JOINT = "JOINT"          # surrogate-augmented ARX
    AR = "AR"                # pure autoregression
    ARX = "ARX"              # autoregression with macro covariates
    RW = "RW"                # random walk (last observation)
    AVE = "AVE"              # historical average of the last h observations


@dataclass(frozen=True)
class FutureExogenous:
    """Covariate paths for months T+1..T+H.

    ys_future is only consulted by the joint model; pass an empty (H, 0)
    array when forecasting covariate-free benchmarks.
    """

    z_future: np.ndarray
    x_future: np.ndarray
    ys_future: np.ndarray

    def __post_init__(self):
        for name in ("z_future", "x_future", "ys_future"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(len(arr), -1) if arr.size else arr.reshape(0, 0)
            object.__setattr__(self, name, arr)
        H = self.z_future.shape[0] or self.x_future.shape[0] or self.ys_future.shape[0]
        for name in ("z_future", "x_future", "ys_future"):
            arr = getattr(self, name)
            if arr.shape[0] not in (0, H):
                raise InvalidData("future covariate blocks must have equal row counts")


@dataclass(frozen=True)
class ForecastResult:
    method: Method
    point: np.ndarray
    horizon: int

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        if point.shape != (self.horizon,) or not np.all(np.isfinite(point)):
            raise InvalidData("forecast must be a finite vector of length H")
        object.__setattr__(self, "point", point)


def _future_rows(
    fut: FutureExogenous,
    H: int,
    d: int,
    p: int,
    sf: SurrogateFit | None = None,
    sp: SurrogatePanel | None = None,
) -> list[np.ndarray]:
    """Validated covariate rows of months T+1..T+H: z (d columns), x (p
    columns) and, given a surrogate fit and its history, the innovations
    d_hat of the future surrogate rows. A block of width 0 is (H, 0)."""
    names = ("z_future", "x_future", "ys_future")
    rows = []
    for name, width in zip(names, (d, p) if sf is None else (d, p, sf.K)):
        arr = getattr(fut, name)
        if width and (arr.shape[0] < H or arr.shape[1] != width):
            raise MissingExogenous(
                f"{name}: need {H} rows x {width} columns, got {arr.shape}"
            )
        rows.append(arr[:H] if width else np.zeros((H, 0)))
    if sf is not None:
        if sp.T < sf.q2:
            raise MissingExogenous(
                f"surrogate history must supply at least q2={sf.q2} months of lags"
            )
        ys_all = np.vstack([sp.ys[-sf.q2:], rows[2]])
        rows[2] = d_residual_matrix(ys_all, sf.A_hat, sf.q2)
    return rows


def _driver(blocks, coefs) -> np.ndarray:
    """Covariate driver block_1 @ coef_1 + block_2 @ coef_2 + ..., summed
    left to right."""
    driver = blocks[0] @ coefs[0]
    for block, coef in zip(blocks[1:], coefs[1:]):
        driver = driver + block @ coef
    return driver


def _ar_roll(alpha: np.ndarray, buf: np.ndarray) -> None:
    """Roll the AR recursion through a time-major buffer, in place.

    buf[t] is month t of every series. Its first q1 months are the history;
    each later month holds that month's driver on entry and
    sum_l alpha_l buf[t-l] + driver on return. alpha has the lags on its
    last axis, shape (q1,) shared by every series or (batch, q1) per series.
    The lag sum accumulates left to right from l = 1 before the driver is
    added, the order of a sequential dot product.
    """
    lag_coef = alpha.T
    q1 = lag_coef.shape[0]
    for t in range(q1, buf.shape[0]):
        acc = 0.0
        for l in range(q1):
            acc = acc + lag_coef[l] * buf[t - 1 - l]
        buf[t] = acc + buf[t]


def _ar_recursion(
    alpha: np.ndarray, history: np.ndarray, driver: np.ndarray
) -> np.ndarray:
    """Roll y_{T+h} = sum_l alpha_l y_{T+h-l} + driver_h forward H steps.

    The last axis of each argument runs over lags, history months and steps.
    A leading axis of driver is a batch axis: one call then rolls a batch of
    series forward together, with alpha and history of shape (q1,) shared by
    all of them or (batch, .) per series. The steps are those of _ar_roll,
    so a 1-D call returns what the scalar loop would. A history shorter than
    q1 raises InsufficientSample.
    """
    alpha, history, driver = (np.asarray(a, dtype=float)
                              for a in (alpha, history, driver))
    q1, H = alpha.shape[-1], driver.shape[-1]
    if history.shape[-1] < q1:
        raise InsufficientSample(
            f"history of {history.shape[-1]} months is shorter than q1={q1}")
    buf = np.empty((q1 + H,) + driver.shape[:-1])
    tail = history[..., history.shape[-1] - q1:]
    buf[:q1] = np.broadcast_to(tail, driver.shape[:-1] + (q1,)).T
    buf[q1:] = driver.T
    _ar_roll(alpha, buf)
    return buf[q1:].T


def forecast_joint(
    jf: JointFit,
    sf: SurrogateFit,
    mp: MonthlyPanel,
    sp: SurrogatePanel,
    fut: FutureExogenous,
    H: int,
) -> ForecastResult:
    """h-step forecasts from the joint model, h = 1..H.

    Future surrogate observations are reduced to innovations with the lag
    coefficients estimated on history; lags straddling the forecast origin
    are taken from the observed surrogate panel. PanelMismatch is raised
    when mp and sp do not cover the same months.
    """
    if H < 1:
        raise InvalidData("H must be >= 1")
    check_aligned(mp, sp)
    rows = _future_rows(fut, H, len(jf.theta_hat), len(jf.delta_hat), sf, sp)
    driver = _driver(rows, (jf.theta_hat, jf.delta_hat, jf.gamma_hat))
    point = _ar_recursion(jf.alpha_hat, mp.y, driver)
    return ForecastResult(method=Method.JOINT, point=point, horizon=H)


def forecast_arx(
    fit: ArxFit,
    y: np.ndarray,
    fut: FutureExogenous | None,
    H: int,
) -> ForecastResult:
    """h-step forecasts from a plain ARX fit (no surrogate term).

    Serves the pure AR benchmark (empty covariates, labelled AR), the
    macro-covariate benchmark and the embedding-covariate benchmarks alike
    (labelled ARX). fut may be None when the fit has no covariates.
    """
    if H < 1:
        raise InvalidData("H must be >= 1")
    d, p = len(fit.theta_hat), len(fit.beta_hat)
    if fut is None:
        fut = FutureExogenous(np.zeros((H, 0)), np.zeros((H, 0)), np.zeros((H, 0)))
    driver = _driver(_future_rows(fut, H, d, p), (fit.theta_hat, fit.beta_hat))
    point = _ar_recursion(fit.alpha_hat, np.asarray(y, dtype=float), driver)
    method = Method.ARX if d + p else Method.AR
    return ForecastResult(method=method, point=point, horizon=H)


def forecast_rw(y: np.ndarray, H: int) -> ForecastResult:
    """Random walk: every horizon repeats the last observation."""
    y = np.asarray(y, dtype=float)
    if y.size < 1 or H < 1:
        raise InsufficientSample("random walk needs at least one observation")
    return ForecastResult(method=Method.RW, point=np.full(H, y[-1]), horizon=H)


def forecast_ave(y: np.ndarray, H: int) -> ForecastResult:
    """Historical average: the h-step value is the mean of the last h points."""
    y = np.asarray(y, dtype=float)
    if y.size < H:
        raise InsufficientSample(f"historical-average forecast needs T >= H={H}")
    tail = y[::-1][:H]
    point = np.cumsum(tail) / np.arange(1, H + 1)
    return ForecastResult(method=Method.AVE, point=point, horizon=H)
