"""Multi-step point forecasts for the joint model and the benchmark models.

All autoregressive forecasts use the rolling recursion: the h-step value is
computed from earlier forecasts, with observed history substituted for every
index at or before the forecast origin. Every forecast also takes a batched
fit with its batched history, leading axes a batch as in np.linalg, and then
returns one row of forecasts per member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _PUBLIC
from .errors import InsufficientSample, InvalidData
from .estimation import (ArxFit, JointFit, SurrogateFit, _driver, _future_blocks,
                         _join, _joint_rows)
from .panels import (MonthlyPanel, SurrogatePanel, _require_count, _require_finite,
                     check_aligned)

__all__ = _PUBLIC["forecasting"]


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
    array when forecasting covariate-free benchmarks. A batch of paths puts
    the batch axes in front: (..., H, width).
    """

    z_future: np.ndarray
    x_future: np.ndarray
    ys_future: np.ndarray

    def __post_init__(self):
        for name in ("z_future", "x_future", "ys_future"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 0:
                raise InvalidData(f"{name} must be an (H, width) array, not a scalar")
            if arr.ndim == 1:
                arr = arr.reshape(len(arr), -1) if arr.size else arr.reshape(0, 0)
            _require_finite(name, arr)
            object.__setattr__(self, name, arr)
        H = (self.z_future.shape[-2] or self.x_future.shape[-2]
             or self.ys_future.shape[-2])
        for name in ("z_future", "x_future", "ys_future"):
            arr = getattr(self, name)
            if arr.shape[-2] not in (0, H):
                raise InvalidData("future covariate blocks must have equal row counts")


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts of steps 1..horizon, shape (horizon,), or (...,
    horizon) for a batch."""

    method: Method
    point: np.ndarray
    horizon: int

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        if (point.ndim < 1 or point.shape[-1] != self.horizon
                or not np.all(np.isfinite(point))):
            raise InvalidData("forecast must be a finite vector of length H")
        object.__setattr__(self, "point", point)


def _ar_roll(alpha: np.ndarray, buf: np.ndarray) -> None:
    """Roll the AR recursion through a time-major buffer, in place.

    buf[t] is month t of every series. Its first q1 months are the history;
    each later month holds that month's driver on entry and
    sum_l alpha_l buf[t-l] + driver on return. alpha has the lags on its
    last axis; its other axes broadcast against a month of buf: shape (q1,)
    is shared by every series, (batch, q1) gives one row per series of a
    (months, batch) buffer, and (G, 1, q1) one row per group of a
    (months, G, B) buffer. The lag sum accumulates left to right from 0.0
    before the driver is added, the order of a sequential dot product, in
    two month-shaped buffers that every month reuses.
    """
    coefs = list(np.moveaxis(alpha, -1, 0))
    months = list(buf if buf.ndim > 1 else buf[:, None])
    acc, term = np.empty((2,) + (buf.shape[1:] or (1,)))
    for t in range(len(coefs), len(months)):
        acc.fill(0.0)
        for l, c in enumerate(coefs):
            np.multiply(c, months[t - 1 - l], out=term)
            np.add(acc, term, out=acc)
        np.add(acc, months[t], out=months[t])


def _ar_recursion(
    alpha: np.ndarray, history: np.ndarray, driver: np.ndarray
) -> np.ndarray:
    """Roll y_{T+h} = sum_l alpha_l y_{T+h-l} + driver_h forward H steps.

    The last axis of each argument runs over lags, history months and steps.
    Leading axes of driver are batch axes: one call then rolls a batch of
    series forward together, with alpha and history of shape (q1,) shared by
    all of them or (..., .) per series. The steps are those of _ar_roll,
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
    buf[:q1] = np.moveaxis(np.broadcast_to(tail, driver.shape[:-1] + (q1,)), -1, 0)
    buf[q1:] = np.moveaxis(driver, -1, 0)
    _ar_roll(alpha, buf)
    return np.moveaxis(buf[q1:], 0, -1)


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
    check_aligned(mp, sp)
    rows = _joint_rows(mp, sp, sf, mp.T, fut, H)[0]
    point = _ar_recursion(jf.alpha_hat, mp.y, _driver(rows, jf))
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
    d, p = fit.theta_hat.shape[-1], fit.beta_hat.shape[-1]
    rows = _join(_future_blocks(fut, H, (d, p)))
    point = _ar_recursion(fit.alpha_hat, np.asarray(y, dtype=float), _driver(rows, fit))
    method = Method.ARX if d + p else Method.AR
    return ForecastResult(method=method, point=point, horizon=H)


def forecast_rw(y: np.ndarray, H: int) -> ForecastResult:
    """Random walk: every horizon repeats the last observation of y (..., T)."""
    _require_count("H", H)
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] < 1:
        raise InsufficientSample("random walk needs at least one observation")
    return ForecastResult(method=Method.RW, point=np.repeat(y[..., -1:], H, axis=-1),
                          horizon=H)


def forecast_ave(y: np.ndarray, H: int) -> ForecastResult:
    """Historical average: the h-step value is the mean of the last h points
    of y (..., T)."""
    _require_count("H", H)
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] < H:
        raise InsufficientSample(f"historical-average forecast needs T >= H={H}")
    tail = y[..., ::-1][..., :H]
    point = np.cumsum(tail, axis=-1) / np.arange(1, H + 1)
    return ForecastResult(method=Method.AVE, point=point, horizon=H)
