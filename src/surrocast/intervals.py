"""Prediction intervals around the joint and baseline forecasts.

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

from . import _PUBLIC
from .errors import (
    BootstrapUnstable,
    InsufficientSample,
    InvalidData,
)
from .estimation import (
    JointFit,
    SurrogateFit,
    _design,
    _driver,
    _fitted_design,
    _full_rank_r,
    _member_name,
    _triangularize,
)
from .forecasting import (
    ForecastResult,
    FutureExogenous,
    _ar_recursion,
    _ar_roll,
    forecast_joint,
)
from .panels import MonthlyPanel, SurrogatePanel, _require_count, _require_int

__all__ = _PUBLIC["intervals"]

logger = logging.getLogger(__name__)

# Replicate columns per chunk: boot_interval runs a batch's members
# max(1, _BOOT_COLUMNS // B) at a time. On mc-boot (B = 500, 2-vCPU Xeon)
# two members per chunk ran 1.22x faster than one; three were no faster
# than two, and five 1.09x faster, but every member adds about 1 MB of
# peak resident memory (BENCH_boot_batch.json).
_BOOT_COLUMNS = 1000


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
    ceil(B*q); 'linear' interpolates. seed is a non-negative int, used by
    every member of a batched call, or a tuple of them, one per member.
    """

    B: int = 500
    seed: int | tuple[int, ...] = 0
    quantile_rule: str = "ceil"

    def __post_init__(self):
        _require_int("B", self.B)
        for seed in self.seed if isinstance(self.seed, tuple) else (self.seed,):
            _require_int("seed", seed)
            if seed < 0:
                raise InvalidData(f"bootstrap seed must be >= 0, got {seed}")
        if self.B < 100:
            raise InvalidData("bootstrap needs B >= 100 replicates")
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


def companion_weight(alpha_hat: np.ndarray, h: int) -> float | np.ndarray:
    """sqrt of the summed squared (1,1) entries of companion powers 0..h-1:
    a float for one lag vector (q1,), an array of weights for lags (...,
    q1) with leading batch axes."""
    _require_count("h", h)
    weight = _psi_weights(alpha_hat, h)[..., -1]
    return float(weight) if weight.ndim == 0 else weight


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


def _joint_forecast_gradient(
    jf: JointFit, y: np.ndarray, point: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The (..., H, m) gradient of the joint point forecasts point (..., H)
    in the coefficients, one per member of a batched fit; y is the history
    and rows (..., H, m - q1) the covariate rows of months T+1..T+H
    (_fitted_design).

    Row h-1 is d yhat_{T+h} / d(alpha, theta, delta, gamma). It follows the
    AR recursion g_h = sum_l alpha_l g_{h-l} + r_h from g = 0 before T+1,
    rolled for all m columns at once; r_h is the design row of month T+h:
    forecast lags (observed ones at or before T) in the alpha columns and
    the future (z, x, d_hat) row in the others.
    """
    q1 = jf.q1
    # y_{T-q1+1..T}, then forecasts
    path = np.concatenate([y[..., -q1:], point], axis=-1)
    design = _design(path[..., None], q1, (rows,))
    grad = _ar_recursion(jf.alpha_hat[..., None, :], np.zeros(q1),
                         np.swapaxes(design, -1, -2))
    return np.swapaxes(grad, -1, -2)


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
    recursion of _joint_forecast_gradient. The quadratic form is
    ||g_h' R^-1||^2, with R^-1 from the one least-squares kernel
    (_triangularize), never the normal equations; a rebuilt design that
    fails its rank rule raises RankDeficient.

    A batched fit with its batched panels and future blocks (leading batch
    axes, as in forecast_joint) gives one row of bounds per member, each
    that of a one-series call.

    The error that the surrogate-step estimate A_hat puts into the future
    innovations d_hat is left out; it is second order, and the interval
    reaches its nominal coverage without it.

    mp and sp must be the panels the fit was estimated on; _fitted_design
    raises PanelMismatch, naming the first failing member, otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidData("alpha must lie in (0, 1)")
    X, rows = _fitted_design(jf, sf, mp, sp, fut, H)
    n, m = X.shape[-2:]
    if n <= m:
        raise InsufficientSample(
            f"{n} rows leave no residual degrees of freedom for {m} coefficients"
        )
    s2 = np.sum(jf.residuals**2, axis=-1, keepdims=True) / (n - m)

    point = forecast_joint(jf, sf, mp, sp, fut, H).point
    grad = _joint_forecast_gradient(jf, mp.y, point, rows[..., n:, :])
    R_inv = _triangularize(X, m)[2]
    # g'(X'X)^{-1}g = ||R^{-T} g||^2, the squared row norms of grad @ R^{-1}
    quad = np.sum((grad @ R_inv)**2, axis=-1)
    half = _z(alpha) * np.sqrt(s2 * (_psi_weights(jf.alpha_hat, H)**2 + quad))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares refits of every replicate's response on [its lag
    columns, its member's fixed block].

    Replicates run along the last two axes, (G, B): G members of B
    replicates each. fixed is (G, n, k), the block that the B replicates of
    a member share; lags is a sequence of q1 (n, G, B) arrays, lags[l][:, g,
    b] being the lag-(l+1) column of replicate b of member g (row slices of
    one time-major (months, G, B) series serve as they are); response is
    (n, G, B), and is overwritten.

    Frisch-Waugh-Lovell partialling: one QR F = Q_F R_F of each member's
    fixed block; Q_F' of every lag column and of the response is one
    (k, n) @ (n, B) product per member, and what Q_F leaves of each lag
    column goes into one work buffer, of the response into the response
    itself. Modified Gram-Schmidt (MGS) across the batch then
    orthogonalises the partialled lag columns in place, the response
    carried along as a last column: an O(q1^2) sequence of vector
    operations on (n, G B) arrays that gives R_L and Q_L' r. Only then,
    with the work buffer freed, is the replicate-last [R | Q'r] array of
    shape (m, m + 1, G B) assembled, so the buffer and that array are
    never held at once. The assembled

        R = [[R_F, Q_F' L], [0, R_L]]

    is the R factor of [F, L] = [Q_F, Q_L] R, so its singular values are the
    full design's. The R that MGS computes is backward stable although its
    Q_L may lose orthogonality (see _full_rank_r), and MGS on [L, r]
    gives Q_L' r as the same backward-stable least-squares solve. A pivot
    that is zero or not finite is set to zero with its column, leaving R
    finite and singular, so the replicate goes to the SVD and is dropped.

    A replicate is kept when R passes _full_rank_r, the rank rule of every
    least-squares solve. Its one back substitution of [I | Q'r], run in the
    replicate-last layout of the array above, gives both the kappa_F screen
    and the coefficients; singular values are computed only near the
    cutoff. Every step treats each replicate's columns on their own, so a
    replicate's result does not depend on the others in the batch or on
    how many members share it.

    Returns (coef, kept, checked): coef is (m, G, B), the fixed
    coefficients in its first k rows and the lag ones in the last q1, NaN
    in the columns of dropped replicates; kept and checked are (G, B) masks
    of the replicates kept and of those whose singular values were
    computed.
    """
    q1, (n, G, B), k = len(lags), response.shape, fixed.shape[-1]
    m, N = k + q1, G * B
    Q_F, R_F = np.linalg.qr(fixed)
    # the blocks of [R | Q'r] that differ between replicates: Q_F' of every
    # lag column and of the response, then R_L and Q_L' r from MGS
    top = np.empty((k, q1 + 1, G, B))
    low = np.zeros((q1, q1 + 1, N))
    # the partialled lag columns, then one scratch column, which takes the
    # response's projection before it is subtracted in place
    part = np.empty((q1 + 1, n, G, B))
    for j, col in enumerate((*lags, response)):
        proj = np.matmul(Q_F.mT, col.transpose(1, 0, 2),
                         out=top[:, j].transpose(1, 0, 2))
        fit = part[min(j, q1)]
        np.matmul(Q_F, proj, out=fit.transpose(1, 0, 2))
        np.subtract(col, fit, out=fit if j < q1 else col)
    cols = [*part[:q1].reshape(q1, n, N), response.reshape(n, N)]
    scratch = part[q1].reshape(n, N)

    for i in range(q1):
        col = cols[i]
        pivot = np.sqrt(np.einsum("tb,tb->b", col, col))
        ok = np.isfinite(pivot) & (pivot > 0.0)
        low[i, i] = np.where(ok, pivot, 0.0)
        col *= np.divide(1.0, pivot, out=np.zeros(N), where=ok)
        for j in range(i + 1, q1 + 1):
            r = np.einsum("tb,tb->b", col, cols[j], out=low[i, j])
            cols[j] -= np.multiply(col, r, out=scratch)
    # free the spent work buffer (col, fit and scratch are views of it)
    # before [R | Q'r] is assembled and back-substituted
    del col, cols, fit, part, scratch
    Rr = np.zeros((m, m + 1, G, B))        # replicates last
    Rr[:k, :k] = np.moveaxis(R_F, 0, -1)[..., None]
    Rr[:k, k:] = top
    Rr = Rr.reshape(m, m + 1, N)
    Rr[k:, k:] = low
    kept, checked, _, solution = _full_rank_r(Rr[:, :m].transpose(2, 0, 1),
                                              Rr[:, m:].transpose(2, 0, 1))
    coef = solution[..., 0].T              # (m, N), [fixed, lags] rows
    coef[:, ~kept] = np.nan
    return coef.reshape(m, G, B), kept.reshape(G, B), checked.reshape(G, B)


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

    A batched fit with its batched panels and future blocks (leading batch
    axes, as in forecast_joint) gives one row of bounds per member. Each
    member draws from its own seed: cfg.seed is one int that every member
    uses, or a tuple of one per member, in the batch's C order; a tuple of
    another length raises InvalidData. Member i's bounds are those of a
    one-series call with its seed. One series is a batch of one.

    The replicates run in chunks of max(1, _BOOT_COLUMNS // B) members,
    each chunk's buffers freed before the next chunk's are allocated, so
    the working set is one chunk's (about 1 MB per member at B = 500) at
    any batch size. A chunk's G members' B replicates live in one
    time-major (T + H, G, B) array: the drawn residuals fill it and the AR
    recursion rebuilds it in place, so the lag windows and the response of
    every refit are row slices of it. Only the q1 lag columns change from
    one replicate to the next; a member's (z, x, d_hat) block is the same
    in all its replicates, so it is factored once and partialled out
    (Frisch-Waugh-Lovell), and modified Gram-Schmidt across the chunk
    finishes every refit, its kappa_F screen and its coefficients coming
    from one back substitution (_batched_refit). The H-step forecasts of
    the chunk are then rolled forward together by the same AR recursion,
    and both endpoints of a member are read off its sorted (kept, H) error
    matrix in one call. Every product takes a member's own shapes, so its
    bits do not depend on its chunk.

    Drop rule: a replicate whose refit design fails _full_rank_r, the rank
    rule of every least-squares solve, is dropped. It is applied to the
    assembled R factor of the partialled refit, which has the full design's
    singular values. _full_rank_r keeps a replicate without computing them
    when kappa_F = ||R||_F ||R^-1||_F, from its back substitution on R, is
    far below the cutoff; it computes them for the rest, so the kept set is
    the SVD rule's (the argument, which rests on the backward stability of
    the Gram-Schmidt R, is stated there). The number each member dropped,
    and the number that needed the singular values, are logged in one
    DEBUG line on the surrocast.intervals logger once every chunk has run;
    then a member that dropped more than 5% of its replicates raises
    BootstrapUnstable naming the first such member, and so does a
    rank-deficient covariate block, which drops every replicate.

    mp and sp must be the panels the fit was estimated on; _fitted_design
    raises PanelMismatch, naming the first failing member, otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidData("alpha must lie in (0, 1)")
    q1, T, B = jf.q1, mp.T, cfg.B
    batch = jf.residuals.shape[:-1]
    G = math.prod(batch)
    seeds = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,) * G
    if len(seeds) != G:
        raise InvalidData(f"{len(seeds)} bootstrap seeds for a batch of {G} members")
    # covariate rows of months q1+1..T+H, and their contribution to y
    rows = _fitted_design(jf, sf, mp, sp, fut, H)[1]
    point = forecast_joint(jf, sf, mp, sp, fut, H).point.reshape(G, H)
    n, k, n_total = T - q1, rows.shape[-1], T + H
    driver = _driver(rows, jf).reshape(G, n + H).T
    rows, alpha_hat = rows.reshape(G, n + H, k), jf.alpha_hat.reshape(G, 1, q1)
    resid = jf.residuals.reshape(G, n)
    centered = resid - resid.mean(axis=-1, keepdims=True)
    limit = 0.05 * B
    n_failed, n_checked = np.empty(G, dtype=int), np.empty(G, dtype=int)
    bounds = np.empty((2, G, H))

    def run(chunk: slice) -> None:
        # Months 1..T+H of the chunk's replicates, time-major: Y[t, g] holds
        # month t + 1 of member g's B replicates, drawn replicate by replicate
        # from its own seed as a one-series call draws them, then rebuilt.
        count = len(seeds[chunk])
        Y = np.empty((n_total, count, B))
        for g, (res, seed) in enumerate(zip(centered[chunk], seeds[chunk])):
            Y[:, g] = res[np.random.default_rng(seed).integers(
                0, n, size=(B, n_total)).T]
        Y[q1:] += driver[:, chunk, None]
        _ar_roll(alpha_hat[chunk], Y)

        # each replicate's forecast path starts from its last q1 months,
        # copied before _batched_refit overwrites the response rows of Y
        paths = np.empty((q1 + H, count, B))
        paths[:q1] = Y[T - q1:T]
        coef, kept, checked = _batched_refit(
            rows[chunk, :n], [Y[q1 - l: T - l] for l in range(1, q1 + 1)], Y[q1:T])
        n_failed[chunk], n_checked[chunk] = B - kept.sum(axis=1), checked.sum(axis=1)
        if (n_failed[chunk] > limit).any():
            return  # the call raises once every chunk has run

        # then the covariate driver of months T+1..T+H from each replicate's
        # own coefficients, rolled forward by its own lag coefficients
        np.matmul(rows[chunk, n:], coef[:k].transpose(1, 0, 2),
                  out=paths[q1:].transpose(1, 0, 2))
        _ar_roll(coef[k:].reshape(q1, count * B).T, paths.reshape(q1 + H, count * B))
        errors = Y[T:] - paths[q1:]
        for g, member in enumerate(range(G)[chunk]):
            member_errors = np.sort(errors[:, g, kept[g]], axis=-1).T
            bounds[:, member] = point[member] + _empirical_quantile(
                member_errors, (alpha / 2.0, 1.0 - alpha / 2.0), cfg.quantile_rule)

    # one chunk's buffers are freed, on return, before the next is allocated
    size = max(1, _BOOT_COLUMNS // B)
    for start in range(0, G, size):
        run(slice(start, start + size))
    logger.debug("boot_interval: %s of %d bootstrap replicates dropped; "
                 "%s needed the SVD rank check",
                 ", ".join(map(str, n_failed.tolist())), B,
                 ", ".join(map(str, n_checked.tolist())))
    unstable = np.flatnonzero(n_failed > limit)
    if unstable.size:
        g = int(unstable[0])
        raise BootstrapUnstable(
            f"{n_failed[g]} of {B} bootstrap replicates failed to refit"
            + _member_name(batch, g))
    lower, upper = bounds.reshape((2,) + batch + (H,))
    return IntervalResult(lower=lower, upper=upper, alpha=alpha, kind="boot")
