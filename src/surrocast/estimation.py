"""Two-step least-squares estimation of the surrogate and joint models.

Step one fits the surrogate vector autoregression with exogenous features

    ys_t = sum_l A_l ys_{t-l} + B x_t + eps_t,        t = q2+1..T,

step two removes the estimated autoregressive part from the surrogate,
d_t = ys_t - sum_l A_hat_l ys_{t-l}, and regresses the target on its own
lags, the covariates, and d_t:

    y_t = sum_l alpha_l y_{t-l} + z_t'theta + x_t'delta + gamma'd_t + e_t,

over t = q1+1..T. Both solves share one orthogonal-factorization kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSample, InvalidData, PanelMismatch, RankDeficient
from .panels import MonthlyPanel, SurrogatePanel, check_aligned

__all__ = [
    "ols_solve",
    "companion_matrix",
    "SurrogateFit",
    "JointFit",
    "ArxFit",
    "fit_surrogate",
    "d_residual_matrix",
    "fit_joint",
    "fit_joint_step2",
    "fit_arx",
    "residual_pairs",
    "joint_fit_to_dict",
    "joint_fit_from_dict",
]

# Relative singular-value cutoff below which a design is treated as singular.
RANK_TOL = 1e-10


def _full_rank(sv: np.ndarray) -> np.bool_ | np.ndarray:
    """The rank rule of every least-squares solve: singular values sv, in
    descending order along the last axis, pass when s_max > 0 and
    s_min > RANK_TOL * s_max."""
    return (sv[..., 0] > 0.0) & (sv[..., -1] > RANK_TOL * sv[..., 0])


def ols_solve(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients minimizing ||response - design @ coef||_F.

    Solved through an orthogonal factorization (never the normal equations).
    Raises RankDeficient, listing the near-collinear columns, when the
    singular values fail _full_rank.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    n, m = design.shape
    if n < m:
        raise InsufficientSample(f"{n} rows cannot identify {m} coefficients")
    # gelsd, under lstsq, treats s_i <= RANK_TOL * s_1 as zero: its rank is
    # below m exactly when _full_rank fails
    coef, _, rank, sv = np.linalg.lstsq(design, response, rcond=RANK_TOL)
    if not _full_rank(sv):
        raise RankDeficient(
            f"design is rank deficient (rank {rank} of {m})",
            columns=_collinear_columns(design),
        )
    return coef


def _collinear_columns(design: np.ndarray) -> tuple[int, ...]:
    """Columns with large loadings on the near-null singular directions."""
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = RANK_TOL * sv[0] if sv[0] > 0 else np.inf
    cols: set[int] = set()
    for i, s in enumerate(sv):
        if s < cutoff:
            load = np.abs(vt[i])
            cols.update(np.nonzero(load > 0.1 * load.max())[0].tolist())
    return tuple(sorted(cols))


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
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    residuals: np.ndarray
    q2: int

    @property
    def K(self) -> int:
        return self.A_hat.shape[1]


@dataclass(frozen=True)
class JointFit:
    """Estimated joint model: target lags, covariates, surrogate innovations.

    sigma_e_hat is the residual standard deviation with denominator T - q1;
    d_hat holds the surrogate innovation regressor for t = q2+1..T (only the
    last T - q1 rows enter the fit).
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
    """Plain ARX fit (no surrogate term), used by the benchmark models."""

    alpha_hat: np.ndarray
    theta_hat: np.ndarray
    beta_hat: np.ndarray
    sigma_e_hat: float
    residuals: np.ndarray
    q1: int


def _design(series: np.ndarray, q: int, blocks=()) -> np.ndarray:
    """ARX design: lag rows [s_{t-1}, ..., s_{t-q}] for t = q..len(series)-1,
    followed by the last len(series) - q rows of each (rows, width) block.

    Every block ends at the same month as series, so a block that starts
    later (d_hat, from month q2) lines up without slicing.
    """
    n = len(series) - q
    lags = [series[q - l: len(series) - l].reshape(n, -1) for l in range(1, q + 1)]
    return np.hstack(lags + [block[len(block) - n:] for block in blocks])


def _solve(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ols_solve's coefficients and the residuals response - design @ coef."""
    coef = ols_solve(design, response)
    return coef, response - design @ coef


def _fit(series: np.ndarray, q: int, blocks=()) -> tuple[np.ndarray, np.ndarray]:
    """_solve of series[q:] on _design(series, q, blocks); InsufficientSample
    when the T - q rows are fewer than the coefficients."""
    T = len(series)
    m = q * math.prod(series.shape[1:]) + sum(b.shape[1] for b in blocks)
    if T - q < m:
        raise InsufficientSample(
            f"fit needs T - q >= {m} rows, one per coefficient (T={T}, q={q})"
        )
    return _solve(_design(series, q, blocks), series[q:])


def fit_surrogate(sp: SurrogatePanel, x: np.ndarray, q2: int) -> SurrogateFit:
    """Row-wise least squares for the surrogate VARX over t = q2+1..T."""
    if q2 < 1:
        raise InvalidData("q2 must be >= 1")
    T, K = sp.ys.shape
    x = np.asarray(x, dtype=float).reshape(T, -1)
    coef, residuals = _fit(sp.ys, q2, (x,))
    A_hat = np.stack([coef[l * K:(l + 1) * K].T for l in range(q2)])
    B_hat = coef[K * q2:].T.reshape(K, x.shape[1])
    return SurrogateFit(A_hat=A_hat, B_hat=B_hat, residuals=residuals, q2=q2)


def d_residual_matrix(ys: np.ndarray, A_hat: np.ndarray, q2: int) -> np.ndarray:
    """Surrogate innovations ys_t - sum_l A_hat_l ys_{t-l} for t = q2+1..T.

    The exogenous part B x_t is deliberately not removed: the regressor feeds
    the joint model exactly as the lag-adjusted surrogate value.
    """
    out = ys[q2:].copy()
    for l in range(1, q2 + 1):
        out -= ys[q2 - l: len(ys) - l] @ A_hat[l - 1].T
    return out


def fit_joint_step2(
    mp: MonthlyPanel, sp: SurrogatePanel, sf: SurrogateFit, q1: int
) -> JointFit:
    """Second estimation step given an already-fitted surrogate model.

    Useful when the surrogate design differs from the target covariates
    (withheld or augmented columns); fit_joint covers the standard case.
    """
    check_aligned(mp, sp)
    return _joint_step2(mp, sp, sf, q1)


def _joint_step2(
    mp: MonthlyPanel, sp: SurrogatePanel, sf: SurrogateFit, q1: int
) -> JointFit:
    """fit_joint_step2 on panels already known to cover the same months."""
    q2 = sf.q2
    if q1 < 1:
        raise InvalidData("q1 must be >= 1")
    if q2 > q1:
        raise InvalidData(f"q2={q2} must not exceed q1={q1}")
    d, p = mp.d, mp.p
    d_hat = d_residual_matrix(sp.ys, sf.A_hat, q2)
    coef, residuals = _fit(mp.y, q1, (mp.z, mp.x, d_hat))
    sigma_e = float(np.sqrt(np.sum(residuals**2) / (mp.T - q1)))
    return JointFit(
        alpha_hat=coef[:q1],
        theta_hat=coef[q1:q1 + d],
        delta_hat=coef[q1 + d:q1 + d + p],
        gamma_hat=coef[q1 + d + p:],
        sigma_e_hat=sigma_e,
        residuals=residuals,
        d_hat=d_hat,
        q1=q1,
        q2=q2,
    )


def fit_joint(
    mp: MonthlyPanel, sp: SurrogatePanel, q1: int, q2: int
) -> tuple[JointFit, SurrogateFit]:
    """Two-step fit: surrogate VARX first, then the surrogate-augmented ARX."""
    check_aligned(mp, sp)
    sf = fit_surrogate(sp, mp.x, q2)
    return _joint_step2(mp, sp, sf, q1), sf


def fit_arx(
    y: np.ndarray,
    q1: int,
    z: np.ndarray | None = None,
    x: np.ndarray | None = None,
) -> ArxFit:
    """Least-squares ARX fit on the target alone (benchmark models)."""
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    z = np.zeros((T, 0)) if z is None else np.asarray(z, dtype=float).reshape(T, -1)
    x = np.zeros((T, 0)) if x is None else np.asarray(x, dtype=float).reshape(T, -1)
    if q1 < 1:
        raise InvalidData("q1 must be >= 1")
    d = z.shape[1]
    coef, residuals = _fit(y, q1, (z, x))
    sigma_e = float(np.sqrt(np.sum(residuals**2) / (T - q1)))
    return ArxFit(
        alpha_hat=coef[:q1],
        theta_hat=coef[q1:q1 + d],
        beta_hat=coef[q1 + d:],
        sigma_e_hat=sigma_e,
        residuals=residuals,
        q1=q1,
    )


def residual_pairs(jf: JointFit, sf: SurrogateFit) -> np.ndarray:
    """Aligned residual matrix, one row per month t = q1+1..T.

    Column 0 is the target-equation residual (the joint-fit residual with the
    surrogate contribution added back, i.e. y_t minus lags, z, and x terms);
    columns 1..K are the surrogate-model residuals for the same month. Their
    joint scatter exposes the error correlation the two-step fit exploits.
    Suitable for CSV export and density plots.
    """
    n_joint = jf.residuals.shape[0]
    n_sur = sf.residuals.shape[0]
    if n_joint + jf.q1 != n_sur + sf.q2:
        raise PanelMismatch(
            "joint and surrogate fits do not come from panels of equal length"
        )
    offset = jf.q1 - sf.q2
    target_resid = jf.residuals + jf.d_hat[offset:] @ jf.gamma_hat
    return np.column_stack([target_resid, sf.residuals[offset:]])


# ---------------------------------------------------------------------------
# Serialization: a versioned flat JSON document for fit -> forecast pipelines.
# ---------------------------------------------------------------------------

FIT_SCHEMA = "surrocast-fit/1"


def joint_fit_to_dict(jf: JointFit, sf: SurrogateFit) -> dict:
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
