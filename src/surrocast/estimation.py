"""Two-step least-squares estimation of the surrogate and joint models.

Step one fits the surrogate vector autoregression with exogenous features

    ys_t = sum_l A_l ys_{t-l} + B x_t + eps_t,        t = q2+1..T,

step two removes the estimated autoregressive part from the surrogate,
d_t = ys_t - sum_l A_hat_l ys_{t-l}, and regresses the target on its own
lags, the covariates, and d_t:

    y_t = sum_l alpha_l y_{t-l} + z_t'theta + x_t'delta + gamma'd_t + e_t,

over t = q1+1..T. Both solves share one orthogonal-factorization kernel,
_solve, and one rank rule, _full_rank_r. Every fit also takes a batch of
panels, their leading axes a batch axis as in np.linalg, and then solves
every member on its own stacked QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _PUBLIC
from .errors import (InsufficientSample, InvalidCovariance, InvalidData, MissingExogenous,
                     PanelMismatch, RankDeficient)
from .panels import MonthlyPanel, SurrogatePanel, _require_count, check_aligned

__all__ = _PUBLIC["estimation"]

# Relative singular-value cutoff below which a design is treated as singular.
RANK_TOL = 1e-10

# Largest computed kappa_F that _full_rank_r accepts without an SVD: a factor
# 100 below the 1 / RANK_TOL that _full_rank allows.
_SCREEN_KAPPA = 1e-2 / RANK_TOL


def _member_name(batch: tuple, i: int) -> str:
    """' (member i)' naming flat member i of a batch of that shape; '' for
    one series."""
    if not batch:
        return ""
    return f" (member {', '.join(map(str, np.unravel_index(i, batch)))})"


def _full_rank(sv: np.ndarray) -> np.bool_ | np.ndarray:
    """The rank rule on singular values sv, in descending order along the
    last axis: they pass when s_max > 0 and s_min > RANK_TOL * s_max."""
    return (sv[..., 0] > 0.0) & (sv[..., -1] > RANK_TOL * sv[..., 0])


def _back_substitute(R: np.ndarray, rhs: np.ndarray, out=None) -> np.ndarray:
    """Solve R x = rhs for upper-triangular R (..., m, m) and rhs (..., m, r).

    The leading axes broadcast, so one R can serve a batch of right-hand
    sides. Row i is (rhs_i - R_i,i+1 x_i+1 - ... - R_i,m x_m) / R_ii, each
    step one elementwise operation over the batch, so a system's solution
    has the same bits whatever batch it is solved in. x is laid out in
    memory as rhs is: a batch stored on the last axis (replicate-last, as
    intervals._batched_refit stores it) runs along the inner loop. out, if
    given, receives x and may be rhs itself: row i of rhs is read before
    row i of x is written.
    """
    m = R.shape[-1]
    x = out if out is not None else np.empty_like(
        rhs, shape=np.broadcast_shapes(R.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:])
    for i in range(m - 1, -1, -1):
        xi = x[..., i, :]
        xi[...] = rhs[..., i, :]
        for j in range(i + 1, m):
            xi -= R[..., i, j, None] * x[..., j, :]
        xi /= R[..., i, i, None]
    return x


def _full_rank_r(R: np.ndarray, rhs: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rank rule of every least-squares solve, applied to R factors,
    and the solve itself.

    R is (..., m, m) upper triangular, the R factor of each design of a
    batch, and rhs (..., m, r) holds its rotated right-hand sides Q'b.
    Returns (kept, checked, X, x): the mask of designs whose singular
    values pass _full_rank, the mask of those whose singular values had to
    be computed, X = R^-1 and x = R^-1 rhs. One back substitution on
    [I | rhs] gives both, as views of one array; it runs in the memory
    layout of rhs, so a batch stored replicate-last is solved along its
    inner axis. X and x are not finite for a singular R; the caller drops
    or rejects that design. An R that is not finite (a design holding NaN
    or Inf) raises InvalidData naming the first such member: it fails the
    screen, so this is told apart from a singular R only on the SVD path.

    Most designs are decided by a screen on kappa_F = ||R||_F ||X||_F.
    A design passes the screen when both squared norms are normal numbers
    and the computed kappa_F is at most _SCREEN_KAPPA = 1e8. Every other one
    (a zero or non-finite pivot, anything near the cutoff) gets
    _full_rank(svd(R)), so the mask is the SVD rule's for every design.

    Why a passing design passes the SVD rule (u = 2^-53; Golub & Van Loan,
    Matrix Computations, sec. 2.3 and 8.6; Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 8):
    - s_max <= ||R||_F and 1/s_min <= ||R^-1||_F, so kappa_2 <= kappa_F.
    - Back substitution gives |R X^ - I| <= gamma_m |R| |X^| for the
      computed X^, column by column, so R^-1 = X^ (I + E)^-1 with
      ||E||_2 <= gamma_m ||R||_F ||X^||_F. The true kappa_F thus exceeds the
      computed one by a factor of at most 1 / (1 - gamma_m 1e8), times the
      rounding of the norms (gamma_{m^2}): 1 + 1e-5 for any m below 1000.
      Normal squares keep underflow out. Each column of [I | rhs] is its
      own back substitution, so the columns of rhs that ride along change
      nothing in X^.
    - R comes from a Householder QR (_triangularize) or from the modified
      Gram-Schmidt (MGS) sweep of intervals._batched_refit. Either R is the
      exact R factor of a design within p(n, m) u ||A|| of the design A
      (Bjorck & Paige 1992, "Loss and recapture of orthogonality in the
      modified Gram-Schmidt algorithm", SIAM J. Matrix Anal. Appl. 13, for
      MGS); the loss of orthogonality of an MGS Q does not enter. So the
      rule on R is the rule on the design, up to that backward error.
    - LAPACK's singular values are within p(m) u s_max of the exact ones,
      so the computed s_min / s_max is at least
      (1e-8 / (1 + 1e-5) - p(m) u) / (1 + p(m) u), above RANK_TOL = 1e-10
      for any p(m) up to 10^5. The factor 100 is that slack, with room.
    """
    m = R.shape[-1]
    system = np.empty_like(rhs, shape=rhs.shape[:-1] + (m + rhs.shape[-1],))
    system[..., :m] = np.eye(m)
    system[..., m:] = rhs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solution = _back_substitute(R, system, out=system)
        X = solution[..., :m]
        r2 = np.einsum("...ij,...ij->...", R, R)
        x2 = np.einsum("...ij,...ij->...", X, X)
        tiny = np.finfo(float).tiny
        screened = (r2 >= tiny) & (x2 >= tiny) & (r2 * x2 <= _SCREEN_KAPPA**2)
    kept = np.array(screened)
    checked = ~kept
    if checked.any():
        R_checked = R[checked]
        bad = ~np.isfinite(R_checked).all(axis=(-2, -1))
        if bad.any():
            raise InvalidData("design holds NaN or Inf" + _member_name(
                checked.shape, np.flatnonzero(checked)[np.argmax(bad)]))
        kept[checked] = _full_rank(np.linalg.svd(R_checked, compute_uv=False))
    return kept, checked, X, solution[..., m:]


def _triangularize(aug: np.ndarray, m: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """R, Q'rhs, R^-1 and the least-squares coefficients R^-1 Q'rhs of
    design = Q R, for aug = [design | rhs] of shape (..., n, m + r), from
    one Householder QR of aug: its first m columns are factored exactly as
    design alone, and the reflectors are applied to rhs rather than formed
    into Q. Raises RankDeficient, listing the near-collinear columns of the
    first failing design, when an R factor fails the rank rule
    (_full_rank_r, whose back substitution also gives R^-1 and the
    coefficients), and InvalidData when a design or a right-hand side holds
    NaN or Inf: a full-rank design passes a non-finite rhs on to its
    coefficients, which are checked instead of the data."""
    Rr = np.linalg.qr(aug, mode="r")
    R, Qty = Rr[..., :m, :m], Rr[..., :m, m:]
    kept, _, R_inv, coef = _full_rank_r(R, Qty)
    if not kept.all():
        raise _rank_deficient(aug[np.unravel_index(np.argmin(kept), kept.shape)][:, :m])
    finite = np.isfinite(coef).all(axis=(-2, -1))
    if not finite.all():
        raise InvalidData("response holds NaN or Inf" + _member_name(
            finite.shape, np.argmin(finite)))
    return R, Qty, R_inv, coef


def _solve(aug: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (..., m, r) and residuals (..., n, r) of the least-squares
    fit of the last r columns of aug on its first m: _triangularize, which
    back-substitutes on R (never the normal equations), and the residuals
    formed as rhs - design @ coef. Each design of a batch is solved on its
    own, so its results do not depend on the rest of the batch."""
    coef = _triangularize(aug, m)[3]
    return coef, aug[..., m:] - aug[..., :m] @ coef


def _rank_deficient(design: np.ndarray) -> RankDeficient:
    """The error for one (n, m) design that fails the rank rule: its rank,
    and the columns with large loadings on its near-null singular
    directions."""
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = RANK_TOL * sv[0] if sv[0] > 0 else np.inf
    cols: set[int] = set()
    for i, s in enumerate(sv):
        if s < cutoff:
            load = np.abs(vt[i])
            cols.update(np.nonzero(load > 0.1 * load.max())[0].tolist())
    return RankDeficient(
        f"design is rank deficient (rank {int(np.sum(sv > cutoff))} of "
        f"{design.shape[1]})",
        columns=tuple(sorted(cols)),
    )


def companion_matrix(alpha: np.ndarray) -> np.ndarray:
    """Companion form of lag coefficients: first block row [A_1 ... A_q],
    identity below it.

    alpha is a (q, K, K) stack of lag matrices, giving a Kq x Kq matrix, or a
    vector of q scalar lags, giving the q x q matrix with first row alpha.
    """
    lags = np.atleast_1d(np.asarray(alpha, dtype=float))
    if lags.ndim == 1:
        lags = lags[:, None, None]
    q, K, _ = lags.shape
    A = np.zeros((K * q, K * q))
    A[:K] = np.hstack(list(lags))
    A[K:, :-K] = np.eye(K * (q - 1))
    return A


@dataclass(frozen=True)
class SurrogateFit:
    """Estimated surrogate VARX coefficients and residuals.

    A_hat:     q2 lag matrices, shape (q2, K, K).
    B_hat:     exogenous coefficients, shape (K, p).
    residuals: shape (T - q2, K), row t is ys_t minus the fitted value.

    A batched fit has the batch axes in front of every array.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    residuals: np.ndarray
    q2: int

    @property
    def K(self) -> int:
        return self.A_hat.shape[-1]


@dataclass(frozen=True)
class JointFit:
    """Estimated joint model: target lags, covariates, surrogate innovations.

    sigma_e_hat is the residual standard deviation with denominator T - q1;
    d_hat holds the surrogate innovation regressor for t = q2+1..T (only the
    last T - q1 rows enter the fit). A batched fit has the batch axes in
    front of every array, and sigma_e_hat is an array of that shape.
    """

    alpha_hat: np.ndarray
    theta_hat: np.ndarray
    delta_hat: np.ndarray
    gamma_hat: np.ndarray
    sigma_e_hat: float
    residuals: np.ndarray
    d_hat: np.ndarray
    q1: int
    q2: int


@dataclass(frozen=True)
class ArxFit:
    """Plain ARX fit (no surrogate term), used by the benchmark models;
    batched as JointFit."""

    alpha_hat: np.ndarray
    theta_hat: np.ndarray
    beta_hat: np.ndarray
    sigma_e_hat: float
    residuals: np.ndarray
    q1: int


def _join(parts, axis: int = -1) -> np.ndarray:
    """(..., rows, width) blocks joined along their columns (axis -1) or
    their months (axis -2), leading batch axes broadcast across them; a
    block that already has the joint batch shape is used as it is."""
    batch = np.broadcast_shapes(*(part.shape[:-2] for part in parts))
    return np.concatenate([part if part.shape[:-2] == batch
                           else np.broadcast_to(part, batch + part.shape[-2:])
                           for part in parts], axis=axis)


def _design(series: np.ndarray, q: int, blocks=()) -> np.ndarray:
    """ARX design: lag rows [s_{t-1}, ..., s_{t-q}] for t = q..T-1, followed
    by the last T - q rows of each (..., rows, width) block.

    series is (..., T, k), months on its second-to-last axis. Leading axes
    are a batch and broadcast across series and blocks. Every block ends at
    the same month as series, so a block that starts later (d_hat, from
    month q2) lines up without slicing.
    """
    T = series.shape[-2]
    n = T - q
    parts = [series[..., q - l:T - l, :] for l in range(1, q + 1)]
    return _join(parts + [block[..., block.shape[-2] - n:, :] for block in blocks])


def _fit(series: np.ndarray, q: int, blocks=()) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares fit of series[..., q:, :] on _design(series, q,
    blocks), laid out with the response as its last block.

    series is (..., T, k); returns coefficients (..., m, k) and residuals
    (..., T - q, k). InsufficientSample when the T - q rows are fewer than
    the m coefficients.
    """
    T = series.shape[-2]
    m = q * series.shape[-1] + sum(b.shape[-1] for b in blocks)
    if T - q < m:
        raise InsufficientSample(
            f"fit needs T - q >= {m} rows, one per coefficient (T={T}, q={q})"
        )
    return _solve(_design(series, q, (*blocks, series)), m)


def _sigma(residuals: np.ndarray, dof: int) -> float | np.ndarray:
    """sqrt(RSS / dof) along the last axis: a float for one series."""
    sigma = np.sqrt(np.sum(residuals**2, axis=-1) / dof)
    return float(sigma) if sigma.ndim == 0 else sigma


def fit_surrogate(sp: SurrogatePanel, x: np.ndarray, q2: int) -> SurrogateFit:
    """Row-wise least squares for the surrogate VARX over t = q2+1..T.

    A batched panel (leading axes on ys, and on x) gives a batched fit.
    """
    _require_count("q2", q2)
    K = sp.K
    x = np.asarray(x, dtype=float).reshape(sp.ys.shape[:-1] + (-1,))
    coef, residuals = _fit(sp.ys, q2, (x,))
    A_hat = np.stack([np.swapaxes(coef[..., l * K:(l + 1) * K, :], -1, -2)
                      for l in range(q2)], axis=-3)
    B_hat = np.swapaxes(coef[..., K * q2:, :], -1, -2)
    return SurrogateFit(A_hat=A_hat, B_hat=B_hat, residuals=residuals, q2=q2)


def d_residual_matrix(ys: np.ndarray, A_hat: np.ndarray, q2: int) -> np.ndarray:
    """Surrogate innovations ys_t - sum_l A_hat_l ys_{t-l} for t = q2+1..T.

    ys is (..., T, K) and A_hat (..., q2, K, K), leading axes a batch. The
    exogenous part B x_t is deliberately not removed: the regressor feeds
    the joint model exactly as the lag-adjusted surrogate value.
    """
    T = ys.shape[-2]
    out = ys[..., q2:, :].copy()
    for l in range(1, q2 + 1):
        out -= ys[..., q2 - l:T - l, :] @ np.ascontiguousarray(
            np.swapaxes(A_hat[..., l - 1, :, :], -1, -2))
    return out


def _future_blocks(fut, H: int, widths) -> list[np.ndarray]:
    """The rows of months T+1..T+H of fut's z_future, x_future and, given
    a third width, ys_future: one block per width. H is checked first
    (_require_count), then each block against its width. A block of
    width 0 is (H, 0); the others keep the batch axes of fut. fut is a
    forecasting.FutureExogenous, or None for no future rows."""
    _require_count("H", H)
    blocks = []
    for name, width in zip(("z_future", "x_future", "ys_future"), widths):
        arr = getattr(fut, name, np.zeros((0, 0)))
        if width and (arr.shape[-2] < H or arr.shape[-1] != width):
            raise MissingExogenous(
                f"{name}: need {H} rows x {width} columns, got {arr.shape}"
            )
        blocks.append(arr[..., :H, :] if width else np.zeros((H, 0)))
    return blocks


def _joint_rows(mp: MonthlyPanel, sp: SurrogatePanel, sf: SurrogateFit,
                first: int, fut=None, H: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The joint model's covariate rows [z | x | d_hat], (..., T - first +
    H, d + p + K), for months first+1..T and, given future blocks fut, for
    T+1..T+H; and d_hat, their last K columns, as its own array.

    d_hat comes from one d_residual_matrix pass over the surrogate months
    first-q2+1..T followed by fut's ys rows, so its lags straddle the
    forecast origin on the observed panel. MissingExogenous when first < q2,
    as the history then lacks the lags of month first+1, and when a future
    block fails _future_blocks against the widths of mp and sf.
    Leading batch axes broadcast across the panels, sf and fut.
    """
    q2 = sf.q2
    future = None if fut is None else _future_blocks(fut, H, (mp.d, mp.p, sf.K))
    if first < q2:
        raise MissingExogenous(
            f"surrogate history must supply at least q2={q2} months of lags"
        )
    blocks = (mp.z[..., first:, :], mp.x[..., first:, :], sp.ys[..., first - q2:, :])
    if future is not None:
        blocks = [_join(pair, axis=-2) for pair in zip(blocks, future)]
    z, x, ys = blocks
    d_hat = d_residual_matrix(ys, sf.A_hat, q2)
    return _join((z, x, d_hat)), d_hat


def _driver(rows: np.ndarray, fit) -> np.ndarray:
    """Covariate driver rows @ coef, (..., months), of covariate rows
    (..., months, width) and the covariate coefficients of a fit, joined in
    the column order of its rows: (theta, delta, gamma) of a JointFit for
    the [z | x | d_hat] of _joint_rows, (theta, beta) of an ArxFit for
    [z | x]. Leading axes broadcast. PanelMismatch when the widths differ:
    the panels have other covariates than the fit."""
    blocks = ((fit.theta_hat, fit.delta_hat, fit.gamma_hat) if isinstance(fit, JointFit)
              else (fit.theta_hat, fit.beta_hat))
    coef = np.concatenate(blocks, axis=-1)
    if rows.shape[-1] != coef.shape[-1]:
        raise PanelMismatch(f"{rows.shape[-1]} covariates for a fit of {coef.shape[-1]}")
    return (rows @ coef[..., None])[..., 0]


def fit_joint_step2(
    mp: MonthlyPanel, sp: SurrogatePanel, sf: SurrogateFit, q1: int
) -> JointFit:
    """Second estimation step given an already-fitted surrogate model.

    Useful when the surrogate design differs from the target covariates
    (withheld or augmented columns); fit_joint covers the standard case.
    Batched panels and surrogate fit give a batched fit.
    """
    check_aligned(mp, sp)
    q2 = sf.q2
    _require_count("q1", q1)
    if q2 > q1:
        raise InvalidData(f"q2={q2} must not exceed q1={q1}")
    d, p = mp.d, mp.p
    rows, d_hat = _joint_rows(mp, sp, sf, q2)
    coef, residuals = _fit(mp.y[..., None], q1, (rows,))
    coef, residuals = coef[..., 0], residuals[..., 0]
    return JointFit(
        alpha_hat=coef[..., :q1],
        theta_hat=coef[..., q1:q1 + d],
        delta_hat=coef[..., q1 + d:q1 + d + p],
        gamma_hat=coef[..., q1 + d + p:],
        sigma_e_hat=_sigma(residuals, mp.T - q1),
        residuals=residuals,
        d_hat=d_hat,
        q1=q1,
        q2=q2,
    )


def _fitted_design(
    jf: JointFit, sf: SurrogateFit, mp: MonthlyPanel, sp: SurrogatePanel,
    fut=None, H: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Step-two design X (..., T - q1, m) of the fitted sample, rebuilt from
    the panels, and the covariate rows (..., T - q1 + H, m - q1) of months
    q1+1..T and, given future blocks fut, T+1..T+H, from one _joint_rows
    call; a batched fit and its batched panels give one of each per member.

    Raises PanelMismatch unless mp and sp are the panels the fit was
    estimated on: they must cover the same months, share the fit's batch
    shape, give T - q1 rows and the fit's covariate and surrogate widths,
    and each member's y[q1:] - X beta_hat must reproduce its fit residuals
    to 1e-8 times 1 + max|y| of that member. The message names the first
    member that fails.
    """
    check_aligned(mp, sp)
    q1, n = jf.q1, mp.T - jf.q1
    batch = jf.residuals.shape[:-1]
    if not (mp.y.shape[:-1] == sp.ys.shape[:-2] == sf.A_hat.shape[:-3] == batch):
        raise PanelMismatch(
            f"batch shapes differ: panels {mp.y.shape[:-1]} and {sp.ys.shape[:-2]}, "
            f"fits {batch} and {sf.A_hat.shape[:-3]}")
    if (n != jf.residuals.shape[-1] or mp.d != jf.theta_hat.shape[-1]
            or mp.p != jf.delta_hat.shape[-1] or sp.K != sf.K):
        raise PanelMismatch(
            f"history of {mp.T} months (d={mp.d}, p={mp.p}, K={sp.K}) does not "
            f"match the fitted sample ({jf.residuals.shape[-1]} residuals after "
            f"q1={q1} lags, d={jf.theta_hat.shape[-1]}, "
            f"p={jf.delta_hat.shape[-1]}, K={sf.K})"
        )
    rows = _joint_rows(mp, sp, sf, q1, fut, H)[0]
    X = _design(mp.y[..., None], q1, (rows[..., :n, :],))
    resid = (mp.y[..., q1:] - (X[..., :q1] @ jf.alpha_hat[..., None])[..., 0]
             - _driver(rows[..., :n, :], jf))
    atol = 1e-8 * (1.0 + np.max(np.abs(mp.y), axis=-1, keepdims=True))
    close = np.isclose(resid, jf.residuals, rtol=0.0, atol=atol).all(axis=-1)
    if not close.all():
        raise PanelMismatch("panels do not reproduce the fit residuals"
                            + _member_name(batch, int(np.argmin(close))))
    return X, rows


def fit_joint(
    mp: MonthlyPanel, sp: SurrogatePanel, q1: int, q2: int
) -> tuple[JointFit, SurrogateFit]:
    """Two-step fit: surrogate VARX first, then the surrogate-augmented ARX."""
    check_aligned(mp, sp)
    sf = fit_surrogate(sp, mp.x, q2)
    return fit_joint_step2(mp, sp, sf, q1), sf


def fit_arx(
    y: np.ndarray,
    q1: int,
    z: np.ndarray | None = None,
    x: np.ndarray | None = None,
) -> ArxFit:
    """Least-squares ARX fit on the target alone (benchmark models).

    y is (T,), or (..., T) for a batch of series with z and x (..., T, .).
    """
    y = np.asarray(y, dtype=float)
    T = y.shape[-1]
    z, x = (np.zeros(y.shape + (0,)) if a is None
            else np.asarray(a, dtype=float).reshape(y.shape + (-1,)) for a in (z, x))
    _require_count("q1", q1)
    d = z.shape[-1]
    coef, residuals = _fit(y[..., None], q1, (z, x))
    coef, residuals = coef[..., 0], residuals[..., 0]
    return ArxFit(
        alpha_hat=coef[..., :q1],
        theta_hat=coef[..., q1:q1 + d],
        beta_hat=coef[..., q1 + d:],
        sigma_e_hat=_sigma(residuals, T - q1),
        residuals=residuals,
        q1=q1,
    )


def residual_pairs(jf: JointFit, sf: SurrogateFit) -> np.ndarray:
    """Aligned residual matrix, one row per month t = q1+1..T.

    Column 0 is the target-equation residual (the joint-fit residual with the
    surrogate contribution added back, i.e. y_t minus lags, z, and x terms);
    columns 1..K are the surrogate-model residuals for the same month. Their
    joint scatter exposes the error correlation the two-step fit exploits.
    Suitable for CSV export and density plots. A batched fit gives one
    (T - q1, 1 + K) matrix per member.
    """
    n_joint = jf.residuals.shape[-1]
    n_sur = sf.residuals.shape[-2]
    if n_joint + jf.q1 != n_sur + sf.q2:
        raise PanelMismatch(
            "joint and surrogate fits do not come from panels of equal length"
        )
    offset = jf.q1 - sf.q2
    target_resid = jf.residuals + (jf.d_hat[..., offset:, :]
                                   @ jf.gamma_hat[..., None])[..., 0]
    return np.concatenate([target_resid[..., None], sf.residuals[..., offset:, :]],
                          axis=-1)


# ---------------------------------------------------------------------------
# Serialization: a versioned flat JSON document for fit -> forecast pipelines.
# ---------------------------------------------------------------------------

FIT_SCHEMA = "surrocast-fit/1"


def joint_fit_to_dict(jf: JointFit, sf: SurrogateFit) -> dict:
    """The fit document of one series; a batched fit raises InvalidData."""
    if jf.residuals.ndim != 1 or sf.residuals.ndim != 2:
        raise InvalidData(f"{FIT_SCHEMA} holds one series, not a batch of "
                          f"{jf.residuals.shape[:-1]} fits")
    return {
        "schema": FIT_SCHEMA,
        "q1": jf.q1,
        "q2": jf.q2,
        "alpha_hat": jf.alpha_hat.tolist(),
        "theta_hat": jf.theta_hat.tolist(),
        "delta_hat": jf.delta_hat.tolist(),
        "gamma_hat": jf.gamma_hat.tolist(),
        "sigma_e_hat": jf.sigma_e_hat,
        "residuals": jf.residuals.tolist(),
        "d_hat": jf.d_hat.tolist(),
        "A_hat": sf.A_hat.tolist(),
        "B_hat": sf.B_hat.tolist(),
        "surrogate_residuals": sf.residuals.tolist(),
    }


# Numeric entries of a fit document and their number of dimensions.
_FIT_NUMBERS = {"sigma_e_hat": 0, "alpha_hat": 1, "theta_hat": 1, "delta_hat": 1,
                "gamma_hat": 1, "residuals": 1, "d_hat": 2, "A_hat": 3, "B_hat": 2,
                "surrogate_residuals": 2}


def joint_fit_from_dict(doc: dict) -> tuple[JointFit, SurrogateFit]:
    """Inverse of joint_fit_to_dict.

    Raises InvalidData unless every entry is present and finite, 1 <= q2 <=
    q1, sigma_e_hat >= 0, and the shapes agree: q1 target lags, q2 lag
    matrices K x K, K rows of B_hat, and d_hat and the surrogate residuals of
    width K with len(residuals) + q1 == rows + q2 (both fits end at month T).
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != FIT_SCHEMA:
        raise InvalidData(f"unsupported fit document schema {schema!r}")
    try:
        q1, q2 = doc["q1"], doc["q2"]
        a = {key: np.array(doc[key], dtype=float) for key in _FIT_NUMBERS}
    except KeyError as exc:
        raise InvalidData(f"fit document lacks {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidData(f"fit document holds a non-numeric entry ({exc})") from None
    K, n = a["gamma_hat"].size, a["residuals"].size
    if not (type(q1) is type(q2) is int and 1 <= q2 <= q1
            and all(a[key].ndim == ndim for key, ndim in _FIT_NUMBERS.items())
            and all(np.all(np.isfinite(v)) for v in a.values())
            and a["sigma_e_hat"] >= 0.0 and a["alpha_hat"].shape == (q1,)
            and a["A_hat"].shape == (q2, K, K) and a["B_hat"].shape[0] == K
            and a["d_hat"].shape == a["surrogate_residuals"].shape == (n + q1 - q2, K)):
        raise InvalidData(f"malformed fit document: q1={q1!r}, q2={q2!r}, "
                          + ", ".join(f"{key} {v.shape}" for key, v in a.items()))
    jf = JointFit(sigma_e_hat=float(a["sigma_e_hat"]), q1=q1, q2=q2, **{
        key: a[key] for key in ("alpha_hat", "theta_hat", "delta_hat",
                                "gamma_hat", "residuals", "d_hat")})
    sf = SurrogateFit(A_hat=a["A_hat"], B_hat=a["B_hat"],
                      residuals=a["surrogate_residuals"], q2=q2)
    return jf, sf


def efficiency_gain(
    sigma_tt: float, Sigma_ts: np.ndarray, Sigma_ss: np.ndarray
) -> float:
    """Prediction-error variance ratio without vs with the surrogate.

    sigma_tt / (sigma_tt - Sigma_ts Sigma_ss^{-1} Sigma_st); always >= 1 for
    a jointly positive-definite error covariance. The subtracted term is the
    variance that step two's regression on the surrogate innovations d_t
    explains, in population.
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
