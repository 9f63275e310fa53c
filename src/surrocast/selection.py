"""Lag-order and embedding-feature selection with a corrected AIC.

Feature search is a correlation pursuit: candidate columns are ranked once by
absolute correlation with the baseline autoregression residuals, then added
greedily while the corrected AIC keeps strictly decreasing. The criterion's
penalty grows slowly with the feature count, so at the default threshold weak
features are accepted on noisy data; raise ``min_decrease`` for stricter
selection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _PUBLIC
from .errors import InsufficientSample, InvalidData, PenaltyUndefined, RankDeficient
from .estimation import _back_substitute, _design, _triangularize, fit_arx
from .panels import _require_count

__all__ = _PUBLIC["selection"]

logger = logging.getLogger(__name__)


def _criterion(rss, t1: int, m: int):
    """corrected_aic from the residual sum of squares rss of t1 residuals
    (a float, or an array of them)."""
    if t1 <= m + 2:
        raise PenaltyUndefined(f"penalty needs T1 > m + 2 (T1={t1}, m={m})")
    return t1 * np.log(rss / t1 + 1.0) + 2.0 * (m + 1) * (m + 2) / (t1 - m - 2)


def corrected_aic(residuals: np.ndarray, m: int) -> float:
    """Small-sample information criterion for a model with m added features.

    T1 log(RSS/T1 + 1) + 2 (m+1)(m+2) / (T1 - m - 2), where T1 is the number
    of residuals. The +1 inside the logarithm keeps the criterion finite for
    residual-free fits.
    """
    residuals = np.asarray(residuals, dtype=float)
    return _criterion(float(np.sum(residuals**2)), residuals.shape[0], m)


def select_ar_order(y: np.ndarray, q_max: int):
    """Smallest corrected-AIC lag order among AR(1)..AR(q_max).

    All candidate orders are scored on the common sample that leaves room
    for q_max lags, so the criterion values are comparable; ties break
    toward the smaller order. One QR of the q_max lag block L serves every
    order: the leading q columns of its R factor and of Q'y give the AR(q)
    coefficients by back substitution, and each order's residuals are then
    formed explicitly as y - L[:, :q] coef. R passes the rank rule exactly
    when every leading block of columns does, up to rounding, as their
    singular values interlace.

    y is (T,), giving an int, or (..., T), giving an int array of the
    orders of a batch of series.
    """
    y = np.asarray(y, dtype=float)
    _require_count("q_max", q_max)
    T = y.shape[-1]
    if T <= q_max + 2:
        raise InsufficientSample(f"need T > q_max + 2 (T={T}, q_max={q_max})")
    aug = _design(y[..., None], q_max, (y[..., None],))  # [lags | y]
    lags, response = aug[..., :q_max], aug[..., q_max:]
    R, Qty, _, _ = _triangularize(aug, q_max)
    best_q = np.ones(y.shape[:-1], dtype=int)
    best_aic = np.full(y.shape[:-1], np.inf)
    for q in range(1, q_max + 1):
        coef = _back_substitute(R[..., :q, :q], Qty[..., :q, :])
        resid = (response - lags[..., :q] @ coef)[..., 0]
        aic = _criterion(np.sum(resid**2, axis=-1), resid.shape[-1], q)
        better = aic < best_aic
        best_q = np.where(better, q, best_q)
        best_aic = np.where(better, aic, best_aic)
    return int(best_q) if best_q.ndim == 0 else best_q


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a correlation-pursuit run.

    aic_path[0] is the criterion of the lag-only baseline; each further entry
    is the criterion after one accepted feature. rejected_aic is the value of
    the first refused step (None when every candidate was accepted), and
    skipped lists columns dropped for making the design singular.
    """

    chosen: tuple[int, ...]
    aic_path: tuple[float, ...]
    ranking: tuple[int, ...]
    ar_order: int
    rejected_aic: float | None = None
    skipped: tuple[int, ...] = ()


def _abs_correlations(cols: np.ndarray, target: np.ndarray) -> np.ndarray:
    centered = cols - cols.mean(axis=0)
    tc = target - target.mean()
    denom = np.sqrt(np.sum(centered**2, axis=0) * np.sum(tc**2))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.abs(centered.T @ tc) / denom
    corr[~np.isfinite(corr)] = 0.0
    return corr


def correlation_pursuit(
    y: np.ndarray,
    x: np.ndarray,
    q_max: int,
    min_decrease: float = 1e-8,
    rerank_each_step: bool = False,
) -> SelectionResult:
    """Greedy feature selection against autoregression residuals.

    Pass training rows only: every correlation and refit sees nothing beyond
    the provided sample. A candidate that makes the design rank deficient is
    skipped and the next-ranked one is tried.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidData("x must be a (T, p) matrix aligned with y")
    if x.shape[1] < 1:
        raise InvalidData("need at least one candidate column")
    if not math.isfinite(min_decrease):
        raise InvalidData(f"min_decrease must be finite, got {min_decrease}")

    q = select_ar_order(y, q_max)
    base = fit_arx(y, q)
    x_trim = x[q:]
    residuals = base.residuals
    ranking = tuple(int(j) for j in np.argsort(-_abs_correlations(x_trim, residuals)))

    chosen: list[int] = []
    skipped: list[int] = []
    aic_path = [corrected_aic(residuals, 0)]
    rejected_aic = None
    queue = list(ranking)
    while queue:
        if rerank_each_step:
            remaining = np.array(queue, dtype=int)
            order = np.argsort(-_abs_correlations(x_trim[:, remaining], residuals))
            queue = [int(remaining[i]) for i in order]
        j = queue.pop(0)
        try:
            fit = fit_arx(y, q, x=x[:, chosen + [j]])
        except RankDeficient:
            logger.info("column %d skipped: design became rank deficient", j)
            skipped.append(j)
            continue
        aic = corrected_aic(fit.residuals, len(chosen) + 1)
        if aic < aic_path[-1] - min_decrease:
            chosen.append(j)
            aic_path.append(aic)
            residuals = fit.residuals
        else:
            rejected_aic = aic
            break
    return SelectionResult(
        chosen=tuple(chosen),
        aic_path=tuple(aic_path),
        ranking=ranking,
        ar_order=q,
        rejected_aic=rejected_aic,
        skipped=tuple(skipped),
    )
