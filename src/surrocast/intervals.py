"""Prediction intervals and the surrogate efficiency-gain calculator.

Two constructions are provided: a normal-quantile interval whose width
accumulates the first-entry powers of the companion matrix, and a residual
bootstrap that rebuilds the series from resampled centered residuals, refits,
and takes empirical quantiles of the bootstrap forecast errors. The
normal-quantile interval comes in two forms: the asymptotic plug-in form
(bj_interval) and, for the joint model, the form with estimated parameters
(bj_interval_estimated), which adds the coefficient-estimation variance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    BootstrapUnstable,
    InsufficientSample,
    InvalidCovariance,
    InvalidData,
    PanelMismatch,
)
from .estimation import (
    JointFit,
    SurrogateFit,
    _back_substitute,
    _design,
    _full_rank_r,
    d_residual_matrix,
)
from .forecasting import (
    ForecastResult,
    FutureExogenous,
    _ar_recursion,
    _ar_roll,
    _driver,
    _future_rows,
    forecast_joint,
)
from .panels import MonthlyPanel, SurrogatePanel, _require_int, check_aligned

__all__ = [
    "IntervalResult",
    "BootstrapConfig",
    "companion_weight",
    "bj_interval",
    "bj_interval_estimated",
    "boot_interval",
    "efficiency_gain",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntervalResult:
    """Per-horizon interval bounds at miss rate alpha.

    kind 'bj' and 'bj_estimated' intervals are symmetric about the point
    forecast; 'boot' intervals need not be.
    """

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    kind: str

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise InvalidData("interval bounds must satisfy lower <= upper")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidData("alpha must lie in (0, 1)")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def length(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class BootstrapConfig:
    """Residual-bootstrap settings.

    quantile_rule 'ceil' takes the order statistic with 1-based index
    ceil(B*q); 'linear' interpolates.
    """

    B: int = 500
    seed: int = 0
    quantile_rule: str = "ceil"

    def __post_init__(self):
        _require_int("B", self.B)
        _require_int("seed", self.seed)
        if self.B < 100:
            raise InvalidData("bootstrap needs B >= 100 replicates")
        if self.seed < 0:
            raise InvalidData(f"bootstrap seed must be >= 0, got {self.seed}")
        if self.quantile_rule not in ("ceil", "linear"):
            raise InvalidData(f"unknown quantile_rule {self.quantile_rule!r}")


def _z(alpha: float) -> float:
    """|z_{alpha/2}|, the standard normal quantile of 1 - alpha/2.

    Taken from the lower tail: 1 - alpha/2 rounds to 1.0 for alpha below
    about 1e-16, where inv_cdf raises. An alpha/2 that underflows to zero
    gives an unbounded interval.
    """
    p = alpha / 2.0
    return -NormalDist().inv_cdf(p) if p > 0.0 else math.inf


def _psi_weights(alpha_hat: np.ndarray, H: int) -> np.ndarray:
    """sqrt(psi_0^2 + ... + psi_{h-1}^2) for h = 1..H.

    psi_r, the (1,1) entry of the r-th companion power, is the impulse
    response of the AR recursion: one roll from a zero history with a unit
    driver at the first step (Lutkepohl 2005, sec. 2.2). alpha_hat (..., q1)
    with leading batch axes gives weights (..., H).
    """
    alpha_hat = np.atleast_1d(np.asarray(alpha_hat, dtype=float))
    impulse = np.zeros(alpha_hat.shape[:-1] + (H,))
    impulse[..., :1] = 1.0
    psi = _ar_recursion(alpha_hat, np.zeros(alpha_hat.shape[-1]), impulse)
    # float_power squares with C pow, as a float64 scalar's ** does; the
    # square that psi**2 takes rounds differently about once in 1000 values
    return np.sqrt(np.cumsum(np.float_power(psi, 2), axis=-1))


def companion_weight(alpha_hat: np.ndarray, h: int) -> float:
    """sqrt of the summed squared (1,1) entries of companion powers 0..h-1."""
    if h < 1:
        raise InvalidData("h must be >= 1")
    return float(_psi_weights(alpha_hat, h)[-1])


def bj_interval(forecast: ForecastResult, fit, alpha: float) -> IntervalResult:
    """Normal-quantile interval around each point forecast.

    ``fit`` is any fitted model exposing alpha_hat and sigma_e_hat (the joint
    fit or an ARX benchmark fit). Half-width at step h is
    |z_{alpha/2}| * companion_weight(h) * sigma_e_hat. A batched fit and its
    batched forecasts give one row of bounds per member.

    This is the asymptotic plug-in form: it treats the estimated coefficients
    as the true ones and sigma_e_hat divides by T - q1. Both omissions shrink
    the interval at small samples; at T=52 with 7 joint coefficients it
    covers about 0.90 at a nominal 0.95. bj_interval_estimated is the
    joint-model form that carries the estimation variance.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidData("alpha must lie in (0, 1)")
    half = (_z(alpha) * _psi_weights(fit.alpha_hat, forecast.horizon)
            * np.asarray(fit.sigma_e_hat)[..., None])
    return IntervalResult(
        lower=forecast.point - half,
        upper=forecast.point + half,
        alpha=alpha,
        kind="bj",
    )


def _fitted_design(
    jf: JointFit, sf: SurrogateFit, mp: MonthlyPanel, sp: SurrogatePanel
) -> np.ndarray:
    """Step-two design X of the fitted sample, rebuilt from the panels.

    Raises PanelMismatch unless mp and sp are the panels the fit was
    estimated on: they must cover the same months, give T - q1 rows and the
    fit's covariate and surrogate widths, and y[q1:] - X beta_hat must
    reproduce the fit residuals.
    """
    check_aligned(mp, sp)
    q1 = jf.q1
    if (mp.T - q1 != jf.residuals.shape[0] or mp.d != len(jf.theta_hat)
            or mp.p != len(jf.delta_hat) or sp.K != sf.K):
        raise PanelMismatch(
            f"history of {mp.T} months (d={mp.d}, p={mp.p}, K={sp.K}) does not "
            f"match the fitted sample ({jf.residuals.shape[0]} residuals after "
            f"q1={q1} lags, d={len(jf.theta_hat)}, p={len(jf.delta_hat)}, K={sf.K})"
        )
    X = _design(mp.y, q1, (mp.z, mp.x, d_residual_matrix(sp.ys, sf.A_hat, sf.q2)))
    coef = np.concatenate([jf.alpha_hat, jf.theta_hat, jf.delta_hat,
                           jf.gamma_hat])
    resid = mp.y[q1:] - X @ coef
    scale = 1.0 + float(np.max(np.abs(mp.y)))
    if not np.allclose(resid, jf.residuals, rtol=0.0, atol=1e-8 * scale):
        raise PanelMismatch("panels do not reproduce the fit residuals")
    return X


def _joint_forecast_gradient(
    jf: JointFit,
    sf: SurrogateFit,
    mp: MonthlyPanel,
    sp: SurrogatePanel,
    fut: FutureExogenous,
    H: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint point forecasts and their (H, m) gradient in the coefficients.

    Row h-1 is d yhat_{T+h} / d(alpha, theta, delta, gamma). It follows the
    AR recursion g_h = sum_l alpha_l g_{h-l} + r_h from g = 0 before T+1,
    rolled for all m columns at once; r_h is the design row of month T+h:
    forecast lags (observed ones at or before T) in the alpha columns and
    the future (z, x, d_hat) row in the others.
    """
    q1, d, p = jf.q1, len(jf.theta_hat), len(jf.delta_hat)
    point = forecast_joint(jf, sf, mp, sp, fut, H).point
    path = np.concatenate([mp.y[-q1:], point])  # y_{T-q1+1..T}, then forecasts
    rows = _design(path, q1, _future_rows(fut, H, d, p, sf, sp))
    grad = _ar_recursion(jf.alpha_hat, np.zeros(q1), rows.T).T
    return point, grad


def bj_interval_estimated(
    jf: JointFit,
    sf: SurrogateFit,
    mp: MonthlyPanel,
    sp: SurrogatePanel,
    fut: FutureExogenous,
    H: int,
    alpha: float,
) -> IntervalResult:
    """Normal-quantile interval for the joint model with estimated parameters.

    The Box-Jenkins interval with the coefficient-estimation variance added
    (Yamamoto 1976; Lutkepohl 2005, sec. 3.5). With X the step-two design on
    the fitted sample (n = T - q1 rows, m coefficients), s^2 = RSS/(n - m),
    psi_r the (1,1) entries of the estimated companion powers and g_h the
    gradient of the h-step point forecast in (alpha, theta, delta, gamma),
    the h-step error variance is

        var_h = s^2 * (sum_{r<h} psi_r^2 + g_h' (X'X)^{-1} g_h),

    and the interval is the point forecast +- |z_{alpha/2}| * sqrt(var_h).
    At h = 1 it is the textbook OLS prediction interval. g_h follows the AR
    recursion of _joint_forecast_gradient. The quadratic form uses the R
    factor of a QR of X, never the normal equations.

    The error that the surrogate-step estimate A_hat puts into the future
    innovations d_hat is left out; it is second order, and the interval
    reaches its nominal coverage without it.

    mp and sp must be the panels the fit was estimated on; _fitted_design
    raises PanelMismatch otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidData("alpha must lie in (0, 1)")
    X = _fitted_design(jf, sf, mp, sp)
    n, m = X.shape
    if n <= m:
        raise InsufficientSample(
            f"{n} rows leave no residual degrees of freedom for {m} coefficients"
        )
    s2 = float(jf.residuals @ jf.residuals) / (n - m)

    point, grad = _joint_forecast_gradient(jf, sf, mp, sp, fut, H)
    R = np.linalg.qr(X, mode="r")
    u = np.linalg.solve(R.T, grad.T)  # R'u = g, so u'u = g'(X'X)^{-1}g
    var = s2 * (_psi_weights(jf.alpha_hat, H)**2 + np.sum(u**2, axis=0))
    half = _z(alpha) * np.sqrt(var)
    return IntervalResult(
        lower=point - half,
        upper=point + half,
        alpha=alpha,
        kind="bj_estimated",
    )


def _empirical_quantile(sorted_vals: np.ndarray, q, rule: str) -> np.ndarray:
    """Empirical q-quantiles along axis 0 of sorted_vals, q a scalar or a
    sequence.

    rule 'ceil' takes the order statistic with 1-based index ceil(n q),
    clipped to [1, n]; 'linear' interpolates as np.quantile does.
    """
    n = sorted_vals.shape[0]
    if rule == "ceil":
        idx = np.clip(np.ceil(n * np.asarray(q, dtype=float)), 1, n).astype(int)
        return sorted_vals[idx - 1]
    return np.quantile(sorted_vals, q, axis=0)


def _batched_refit(
    fixed: np.ndarray, lags, response: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Least-squares refits of every replicate's response on [its lag
    columns, fixed].

    Replicates run along the last axis. fixed is the (n, k) block shared by
    all of them; lags is a sequence of q1 (n, B) arrays, lags[l][:, b] being
    the lag-(l+1) column of replicate b (row slices of one time-major series
    serve as they are); response is (n, B).

    Frisch-Waugh-Lovell partialling: one QR F = Q_F R_F of the fixed block;
    Q_F' of every lag column and response is one (k, n) @ (n, B) product,
    written into R, and what Q_F leaves of each goes into one work buffer.
    Modified Gram-Schmidt (MGS) across the batch then orthogonalises the
    partialled lag columns in place, the response carried along as a last
    column: an O(q1^2) sequence of vector operations on (n, B) arrays that
    gives R_L and Q_L' r. The assembled

        R = [[R_F, Q_F' L], [0, R_L]]

    is the R factor of [F, L] = [Q_F, Q_L] R, so its singular values are the
    full design's. The R that MGS computes is backward stable although its
    Q_L may lose orthogonality (see _full_rank_r), and MGS on [L, r]
    gives Q_L' r as the same backward-stable least-squares solve. A pivot
    that is zero or not finite is set to zero with its column, leaving R
    finite and singular, so the replicate goes to the SVD and is dropped.

    A replicate is kept when R passes _full_rank_r, the rank rule of every
    least-squares solve, which decides from a kappa_F screen on R and
    computes singular values only near the cutoff. Back-substitution on R
    gives a kept replicate's lag coefficients first, then the fixed ones.
    Every step treats each replicate's columns on their own, so a
    replicate's result does not depend on the others in the batch.

    Returns (coef, kept, n_svd): coef is (B, q1 + k) in [lags, fixed] column
    order, NaN on the rows of dropped replicates; kept is a (B,) bool mask;
    n_svd counts the replicates whose singular values were computed.
    """
    q1, (n, B), k = len(lags), response.shape, fixed.shape[1]
    m = k + q1
    Q_F, R_F = np.linalg.qr(fixed)
    Rr = np.zeros((m, m + 1, B))        # [R | Q' r], one replicate per column
    Rr[:k, :k] = R_F[:, :, None]
    # the partialled lag columns and response, then one scratch column
    part = np.empty((q1 + 2, n, B))
    scratch = part[q1 + 1]
    for j, col in enumerate((*lags, response)):
        proj = np.matmul(Q_F.T, col, out=Rr[:k, k + j])
        np.subtract(col, np.matmul(Q_F, proj, out=part[j]), out=part[j])

    for i in range(q1):
        col = part[i]
        pivot = np.sqrt(np.einsum("tb,tb->b", col, col))
        ok = np.isfinite(pivot) & (pivot > 0.0)
        Rr[k + i, k + i] = np.where(ok, pivot, 0.0)
        col *= np.divide(1.0, pivot, out=np.zeros(B), where=ok)
        for j in range(i + 1, q1 + 1):
            r = np.einsum("tb,tb->b", col, part[j], out=Rr[k + i, k + j])
            part[j] -= np.multiply(col, r, out=scratch)
    # free the spent work buffer (col and scratch are views of it) before the
    # screen allocates R^-1: with both live, a B = 500 call took about 330
    # minor page faults, against none with the buffer freed first
    del col, part, scratch
    R = Rr[:, :m].transpose(2, 0, 1)
    kept, n_svd = _full_rank_r(R)
    # a dropped replicate's singular R may divide by zero; its row is NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solution = _back_substitute(R, Rr[:, m].T[..., None])[..., 0]  # [fixed, lags]
    coef = np.concatenate([solution[:, k:], solution[:, :k]], axis=1)
    coef[~kept] = np.nan
    return coef, kept, n_svd


def boot_interval(
    jf: JointFit,
    sf: SurrogateFit,
    mp: MonthlyPanel,
    sp: SurrogatePanel,
    fut: FutureExogenous,
    H: int,
    cfg: BootstrapConfig,
    alpha: float,
) -> IntervalResult:
    """Residual-bootstrap interval for the joint model.

    Each replicate resamples centered fit residuals, rebuilds the series
    recursively along the observed covariate path (surrogate innovations are
    frozen at their original-fit values), refits the joint regression on the
    rebuilt sample, forecasts H steps, and records the bootstrap forecast
    error at each horizon. Interval endpoints add the empirical alpha/2 and
    1-alpha/2 error quantiles to the original point forecast.

    All B replicates live in one time-major (T + H, B) array: the drawn
    residuals fill it and the AR recursion rebuilds it in place, so the lag
    windows and the response of every refit are row slices of it. Only the
    q1 lag columns change from one replicate to the next; the (z, x, d_hat)
    block is the same in all of them, so it is factored once and partialled
    out (Frisch-Waugh-Lovell), and modified Gram-Schmidt across the batch
    finishes every refit (_batched_refit). The H-step forecasts of all
    replicates are then rolled forward together by the batched AR
    recursion, and both endpoints are read off the sorted (kept, H) error
    matrix in one call.

    Drop rule: a replicate whose refit design fails _full_rank_r, the rank
    rule of every least-squares solve, is dropped. It is applied to the
    assembled R factor of the partialled refit, which has the full design's
    singular values. _full_rank_r keeps a replicate without computing them
    when kappa_F = ||R||_F ||R^-1||_F, from one back substitution on R, is
    far below the cutoff; it computes them for the rest, so the kept set is
    the SVD rule's (the argument, which rests on the backward stability of
    the Gram-Schmidt R, is stated there). The number dropped, and the number
    that needed the singular values, are logged at DEBUG on the
    surrocast.intervals logger; more than 5% of them dropped raises
    BootstrapUnstable, and so does a rank-deficient covariate block, which
    drops every replicate.

    mp and sp must be the panels the fit was estimated on; _fitted_design
    raises PanelMismatch otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidData("alpha must lie in (0, 1)")
    q1, d, p = jf.q1, mp.d, mp.p
    fixed = _fitted_design(jf, sf, mp, sp)[:, q1:]  # the (z, x, d_hat) block
    point = forecast_joint(jf, sf, mp, sp, fut, H).point  # validates fut
    T = mp.T
    n_resid = T - q1

    resid = jf.residuals
    centered = resid - resid.mean()

    # Covariate contribution per month (zero until the first fitted month).
    coefs = (jf.theta_hat, jf.delta_hat, jf.gamma_hat)
    fut_rows = _future_rows(fut, H, d, p, sf, sp)
    n_total = T + H
    driver = np.zeros(n_total)
    driver[q1:T] = _driver(np.split(fixed, [d, d + p], axis=1), coefs)
    driver[T:] = _driver(fut_rows, coefs)

    B = cfg.B
    rng = np.random.default_rng(cfg.seed)
    # Months 1..T+H of every replicate, time-major: Y[t] holds month t + 1 of
    # all B. The indices are drawn replicate by replicate, as they always
    # were, so every replicate keeps its residuals; the gathered residuals
    # fill Y and the recursion rebuilds it in place.
    Y = centered[rng.integers(0, n_resid, size=(B, n_total)).T]
    Y[q1:] += driver[q1:, None]
    _ar_roll(jf.alpha_hat, Y)

    coef, kept, n_svd = _batched_refit(
        fixed, [Y[q1 - l: T - l] for l in range(1, q1 + 1)], Y[q1:T])

    n_failed = B - int(kept.sum())
    logger.debug("boot_interval: %d of %d bootstrap replicates dropped; "
                 "%d needed the SVD rank check", n_failed, B, n_svd)
    if n_failed > 0.05 * B:
        raise BootstrapUnstable(
            f"{n_failed} of {B} bootstrap replicates failed to refit"
        )

    coef = coef[kept]
    fut_cov = np.hstack(fut_rows)
    paths = _ar_recursion(coef[:, :q1], Y[T - q1:T, kept].T,
                          coef[:, q1:] @ fut_cov.T)
    errors = np.sort(Y[T:, kept].T - paths, axis=0)
    lower, upper = point + _empirical_quantile(
        errors, (alpha / 2.0, 1.0 - alpha / 2.0), cfg.quantile_rule)
    return IntervalResult(lower=lower, upper=upper, alpha=alpha, kind="boot")


def efficiency_gain(
    sigma_tt: float, Sigma_ts: np.ndarray, Sigma_ss: np.ndarray
) -> float:
    """Prediction-error variance ratio without vs with the surrogate.

    sigma_tt / (sigma_tt - Sigma_ts Sigma_ss^{-1} Sigma_st); always >= 1 for
    a jointly positive-definite error covariance.
    """
    Sigma_ts = np.atleast_1d(np.asarray(Sigma_ts, dtype=float))
    Sigma_ss = np.atleast_2d(np.asarray(Sigma_ss, dtype=float))
    K = Sigma_ts.shape[0]
    if Sigma_ts.ndim != 1 or Sigma_ss.shape != (K, K):
        raise InvalidData(
            f"Sigma_ts of shape {Sigma_ts.shape} needs a ({K}, {K}) Sigma_ss, "
            f"got {Sigma_ss.shape}"
        )
    if not np.isfinite(np.concatenate([[sigma_tt], Sigma_ts, Sigma_ss.ravel()])).all():
        raise InvalidData("sigma_tt, Sigma_ts and Sigma_ss must be finite")
    if sigma_tt <= 0.0:
        raise InvalidCovariance("sigma_tt must be positive")
    if not np.allclose(Sigma_ss, Sigma_ss.T):
        raise InvalidCovariance("surrogate covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(Sigma_ss)
    except np.linalg.LinAlgError as exc:
        raise InvalidCovariance("surrogate covariance is not positive definite") from exc
    w = np.linalg.solve(chol, Sigma_ts)
    explained = float(w @ w)
    denom = sigma_tt - explained
    if denom <= 0.0:
        raise InvalidCovariance(
            "joint covariance is not positive definite "
            f"(explained {explained:.6g} >= sigma_tt {sigma_tt:.6g})"
        )
    return sigma_tt / denom
