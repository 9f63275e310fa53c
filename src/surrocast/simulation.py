"""Synthetic data generation and the Monte Carlo evaluation harness.

The generator draws jointly correlated target/surrogate innovations and the
covariate innovations, runs the target, the surrogate vector series and the
covariates as one VAR(1) in stacked state-space form, and discards a burn-in
prefix. Each spec builds one innovation map V, which takes a month's
innovations into the state, and one burn-in fold, the burn-in's state as a
linear map of its innovations (the moving-average form of a VAR(1),
Lütkepohl 2005, §2.1), which is the state recursion's impulse response.
The recursion is solved by recursive doubling in numpy, in ceil(log2 T)
matrix products for T months.

The harness repeats the full pipeline (generate, hold out the last H months,
standardize on the training window, fit, forecast, score) over a (variant,
correlation, horizon) grid with per-repetition RNG streams. Each cell runs
as one batch of its repetitions through the batched forms of the same
public functions, and a repetition's outputs do not depend on the batch, so
reports are bit-identical for a fixed seed regardless of worker count.

The embedding covariates are synthetic stand-ins: two smooth AR(1) columns
whose stationary spread (default 6.0) is calibrated so the covariate part
dominates the target variance the way the reference monthly panels do. Ratio
metrics are insensitive to that scale; absolute interval lengths are not.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import _PUBLIC
from .errors import (
    BaselineDegenerate,
    InvalidCovariance,
    InvalidData,
    NonStationarySpec,
)
from .estimation import (
    ArxFit,
    companion_matrix,
    fit_joint_step2,
    fit_surrogate,
    fit_arx,
)
from .forecasting import (
    FutureExogenous,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
)
from .intervals import BootstrapConfig, bj_interval, boot_interval
from .panels import (MonthlyPanel, SurrogatePanel, _require_count, _require_int,
                     _write_csv, month_range, standardize_cpi)
from .selection import select_ar_order

# numpy.random loads after the package's modules: loaded before them, it
# raised a harness run's peak resident set by about 0.7 MB
from numpy.random.bit_generator import ISeedSequence

__all__ = _PUBLIC["simulation"]

# One row per robustness variant: the innovation kind, the number of x
# columns (the last ones) withheld from every fit and forecast, and the number
# of pure-noise columns added to the surrogate fit. The order is part of every
# repetition's seed (_rep_states), so a new variant goes at the end.
_VARIANTS = {
    "base": ("gaussian", 0, 0),
    "omitted": ("gaussian", 1, 0),
    "overfit": ("gaussian", 0, 2),
    "student-t": ("student-t", 0, 0),
}
VARIANTS = tuple(_VARIANTS)


# degrees of freedom of the student-t innovations
_T_DF = 10.0

# months drawn and discarded before the first month of every draw
_BURN_IN = 200

# largest order of every repetition's AR benchmark
_AR_Q_MAX = 4


def _doubling_powers(M: np.ndarray, n: int) -> list[np.ndarray]:
    """The operands of _linear_recursion over n months: (M^(2^k))' for
    every shift 2^k < n, each transposed and C-contiguous.

    A stacked matrix product whose right operand is a transposed view runs
    2-3x slower than one whose operand is contiguous, and gives the same
    bits. Entries of M^(2^k) that decay below the smallest normal double
    are set to zero: their terms are smaller than any rounding of a state,
    and subnormal operands slow a matrix product about eightfold.
    """
    powers = []
    P = M
    while 2 ** len(powers) < n:
        powers.append(np.ascontiguousarray(P.T))
        P = P @ P
        P[np.abs(P) < np.finfo(float).tiny] = 0.0
    return powers


def _linear_recursion(powers: list[np.ndarray], W: np.ndarray) -> np.ndarray:
    """Rows s_t = M s_{t-1} + W_t of a linear recursion from s_{-1} = 0,
    written over W, a float array, which is returned.

    W is (..., n, state), months on its second-to-last axis; leading axes
    are a batch of recursions that share M. powers is _doubling_powers(M,
    m) for some m >= n; the powers past n's are not used. Recursive
    doubling: after the pass with shift k, row t holds sum_{j<2k} M^j
    W_{t-j}, so ceil(log2 n) matrix products cover all n rows. The product
    on the right is a new array, so reading rows of s that the same
    statement updates is safe. Each member's product is its own (n - k,
    state) matrix product, the product a one-series call makes, so every
    member gets the bits of its own call.
    """
    s = W
    n = s.shape[-2]
    if 2 ** len(powers) < n:
        raise ValueError(f"{len(powers)} doubling powers cover fewer than {n} months")
    for k, P_t in enumerate(powers):
        shift = 2 ** k
        if shift >= n:
            break
        s[..., shift:, :] += s[..., :n - shift, :] @ P_t
    return s


@dataclass(frozen=True)
class Ar1Spec:
    """Independent AR(1) columns with a given stationary standard deviation."""

    n_cols: int
    phi: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if not -1.0 < self.phi < 1.0:
            raise NonStationarySpec(f"AR(1) coefficient {self.phi} not in (-1, 1)")
        if self.n_cols < 0 or self.scale < 0:
            raise InvalidData("n_cols and scale must be nonnegative")

    @property
    def _innovation_sd(self) -> float:
        return self.scale * np.sqrt(1.0 - self.phi**2)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        innov = rng.standard_normal((n, self.n_cols))
        innov *= self._innovation_sd
        return _linear_recursion(
            _doubling_powers(self.phi * np.eye(self.n_cols), n), innov)


def equicorrelated(dim: int, rho: float) -> np.ndarray:
    """dim x dim matrix with unit diagonal and constant off-diagonal rho."""
    return np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim)


@dataclass(frozen=True, eq=False)
class DgpSpec:
    """Full specification of the joint data-generating process.

    Sigma is the (1+K) x (1+K) innovation covariance: entry (0,0) is the
    target error variance, the rest the surrogate block. error_kind
    'student-t' rescales a multivariate t(10) so its covariance still equals
    Sigma. x_gen drives the exogenous columns.

    The target ARX(q1), the surrogate VARX(q2) and the AR(1) columns x form
    one VAR(1) in the state s_t = [x_t, ys_t..ys_{t-q2+1}, y_t..y_{t-q1+1}].
    x enters ys_t and y_t in the same month; with x_t = phi x_{t-1} + u_t,
    the transition couples the previous month's x through phi B_S and
    phi beta, and u_t joins the innovations e_t = [eps_t, u_t]: W_t = e_t V.

    A spec is validated, factored and put in state-space form once, when it
    is built; every draw by ``generate`` reuses its factor, the doubling
    powers of its transition matrix, which cover the T kept months, the
    innovation map V and one burn-in fold, the map that takes a draw's
    burn-in innovations straight to the state carried into its first kept
    month (_linear_recursion's impulse response, months reversed). The spec
    records the burn-in length it was built for (_BURN_IN at construction).
    The matrices a draw multiplies by are C-contiguous, the layout its
    stacked products run fastest on. alpha, beta, A_S, B_S and Sigma are
    read-only copies, so no edit after construction can part them from the
    operands built from them. Specs compare and hash by identity: two specs
    built from equal arguments are distinct objects.
    """

    alpha: np.ndarray
    beta: np.ndarray
    A_S: np.ndarray
    B_S: np.ndarray
    Sigma: np.ndarray
    T: int
    x_gen: Ar1Spec = Ar1Spec(0)
    error_kind: str = "gaussian"
    # transposed Cholesky factor of the covariance of the normal part of
    # each innovation
    _chol_t: np.ndarray = field(init=False, repr=False)
    # transition matrix of the state s_t, and its _doubling_powers over T
    _transition: np.ndarray = field(init=False, repr=False)
    _powers: list = field(init=False, repr=False)
    # the innovation map V, (1 + K + p, state): row i is the W row of
    # innovation i of a month, eps_0, eps_1..eps_K, then u_1..u_p
    _inject: np.ndarray = field(init=False, repr=False)
    # months drawn and discarded before the first kept month, and the fold
    # (burn_in * (1 + K + p), state) from the burn-in months' innovations,
    # months flattened into the rows, to the carry M s_{burn_in - 1}
    _burn_in: int = field(init=False, repr=False)
    _fold: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        def frozen(name, value):
            # a copy, so the caller's array stays writable
            value = np.array(value, dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

        for name in ("alpha", "beta"):
            frozen(name, np.atleast_1d(getattr(self, name)))
        A_S = np.asarray(self.A_S, dtype=float)
        if A_S.ndim == 2:
            A_S = A_S[None]
        if self.alpha.size == 0 or A_S.size == 0:
            raise InvalidData("alpha and A_S need at least one lag")
        frozen("A_S", A_S)
        K = A_S.shape[1]
        frozen("B_S", np.asarray(self.B_S, dtype=float).reshape(K, -1))
        frozen("Sigma", self.Sigma)
        B_S, Sigma = self.B_S, self.Sigma
        if Sigma.shape != (1 + K, 1 + K) or not np.allclose(Sigma, Sigma.T):
            raise InvalidCovariance(f"Sigma must be symmetric ({1 + K} x {1 + K})")
        if self.error_kind not in ("gaussian", "student-t"):
            raise InvalidData(f"unknown error_kind {self.error_kind!r}")
        # a t(df) draw is a normal draw times sqrt(df / chi2(df)), whose
        # variance is df / (df - 2); the normal part is shrunk to match
        normal_cov = (Sigma if self.error_kind == "gaussian"
                      else Sigma * (_T_DF - 2.0) / _T_DF)
        try:
            chol = np.linalg.cholesky(normal_cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidCovariance("Sigma is not positive definite") from exc
        object.__setattr__(self, "_chol_t", np.ascontiguousarray(chol.T))
        if B_S.shape[1] != self.beta.shape[0]:
            raise InvalidData("beta and B_S must agree on the number of x columns")
        if self.x_gen.n_cols != self.beta.shape[0]:
            raise InvalidData("x_gen must generate one column per beta entry")
        target, surrogate = companion_matrix(self.alpha), companion_matrix(A_S)
        r1 = float(np.max(np.abs(np.linalg.eigvals(target))))
        r2 = float(np.max(np.abs(np.linalg.eigvals(surrogate))))
        if r1 >= 1.0 or r2 >= 1.0:
            raise NonStationarySpec(
                f"spectral radii must be < 1 (target {r1:.3f}, surrogate {r2:.3f})"
            )
        if self.T < 1:
            raise InvalidData("T must be >= 1")
        p, ns = B_S.shape[1], len(surrogate)
        V = np.zeros((1 + K + p, p + ns + len(target)))
        V[0, p + ns] = 1.0
        V[1:1 + K, p:p + K] = np.eye(K)
        V[1 + K:, :p] = np.eye(p)
        V[1 + K:, p:p + K] = B_S.T
        V[1 + K:, p + ns] = self.beta
        # x_{t-1} reaches the state through phi, where u_t enters it
        M = np.zeros((V.shape[1],) * 2)
        M[:, :p] = self.x_gen.phi * V[1 + K:].T
        M[p:p + ns, p:p + ns] = surrogate
        M[p + ns:, p + ns:] = target
        object.__setattr__(self, "_transition", M)
        b = _BURN_IN
        powers = _doubling_powers(M, max(b, self.T))
        object.__setattr__(self, "_powers", powers[:(self.T - 1).bit_length()])
        object.__setattr__(self, "_inject", V)
        object.__setattr__(self, "_burn_in", b)
        # month j of the response to V M' is V (M^(j+1))', the weight of
        # burn-in month b - 1 - j; sub-tiny entries go, as in _doubling_powers
        impulse = np.zeros((len(V), b, len(M)))
        impulse[:, :1] = (V @ M.T)[:, None]
        fold = _linear_recursion(powers, impulse)[:, ::-1].swapaxes(0, 1)
        fold = fold.reshape(-1, len(M))
        fold[np.abs(fold) < np.finfo(float).tiny] = 0.0
        object.__setattr__(self, "_fold", fold)

    @property
    def q2(self) -> int:
        return self.A_S.shape[0]

    @property
    def K(self) -> int:
        return self.A_S.shape[1]


# Members drawn together. Each stream still draws its burn-in months (260
# of a 60-month draw), so the innovation arrays of a group hold them; W and
# the states hold the kept months only. Ten members keep each array under
# 128 KiB, glibc's mmap threshold. A 50-member draw (benchmark_dgp(0.3,
# T=60), 2-vCPU Xeon, medians of 300 interleaved calls) was 8-12% faster in
# groups of 10 than of 5 in each of five runs, and slower in groups of 25
# or 50 than of 10; its tracemalloc peak is 0.34 MB at 5 and 0.54 MB at 10.
_DRAW_GROUP = 10


def _draw_states(spec: DgpSpec, seeds: list) -> tuple[np.ndarray, np.ndarray]:
    """Innovations (members, T, 1+K) and states (members, T, state) of the
    kept months, one member per seed.

    Each stream still draws every month, burn-in included, so the streams
    do not depend on how the burn-in is applied. The kept months'
    innovations e = [eps | u] give W = e V, and the burn-in's go through the
    spec's fold, one (1, rows) product per member, into the carry M s_{b-1}
    in the first kept month's W; the recursion runs over the kept months.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    b = spec._burn_in
    n = b + spec.T
    Q, K, p = len(rngs), spec.K, spec.x_gen.n_cols
    student = spec.error_kind == "student-t"
    # each stream draws the normals, the t mixing variables, then the x
    # innovations, in that order
    normals, u = np.empty((Q, n, 1 + K)), np.empty((Q, n, p))
    chi2 = np.empty((Q, n))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=normals[i])
        if student:
            chi2[i] = rng.chisquare(_T_DF, size=n)
        rng.standard_normal(out=u[i])
    # a t(df) draw is a normal draw times sqrt(df / chi2(df))
    eps = normals @ spec._chol_t
    if student:
        eps *= np.sqrt(_T_DF / chi2)[..., None]
    u *= spec.x_gen._innovation_sd
    e = np.concatenate([eps, u], axis=-1)
    del normals, chi2, eps, u  # freed before W and the recursion are built

    carry = e[:, :b].reshape(Q, 1, b * (1 + K + p)) @ spec._fold
    W = e[:, b:] @ spec._inject
    W[:, 0] += carry[:, 0]
    return e[:, b:, :1 + K], _linear_recursion(spec._powers, W)


def generate(spec: DgpSpec, seed) -> tuple[MonthlyPanel, SurrogatePanel]:
    """Draw one panel pair (mp, sp) of length spec.T from the joint process,
    seeded by anything np.random.default_rng accepts.

    A list or tuple of seed sequences (any numpy ISeedSequence) draws a
    batch, one member per seed: panels with y (batch, T), x (batch, T, p)
    and ys (batch, T, K). Member i is drawn from its own stream exactly as
    a one-series call with seed[i] draws. A list of ints is one series'
    entropy, as default_rng reads it; a list that mixes seed sequences with
    other values raises InvalidData.
    """
    batch = (isinstance(seed, (list, tuple))
             and any(isinstance(s, ISeedSequence) for s in seed))
    if batch:
        for i, s in enumerate(seed):
            if not isinstance(s, ISeedSequence):
                raise InvalidData(f"a batch of seeds takes only seed sequences; "
                                  f"seed[{i}] is {s!r}")
    seeds = seed if batch else [seed]
    Q, T = len(seeds), spec.T
    K, p = spec.K, spec.x_gen.n_cols
    y_col = p + K * spec.q2
    states = np.empty((Q, T, p + K + 1))  # x, ys, then y, per member
    for start in range(0, Q, _DRAW_GROUP):
        group = slice(start, start + _DRAW_GROUP)
        s = _draw_states(spec, seeds[group])[1]
        states[group, :, :p + K] = s[..., :p + K]
        states[group, :, -1] = s[..., y_col]
    if not batch:
        states = states[0]
    times = month_range("2019-01", T)
    mp = MonthlyPanel(times=times, y=states[..., -1],
                      z=np.zeros(states.shape[:-1] + (0,)), x=states[..., :p])
    sp = SurrogatePanel(times=times, ys=states[..., p:p + K])
    return mp, sp


def benchmark_dgp(
    rho: float,
    T: int = 60,
    error_kind: str = "gaussian",
    x_scale: float = 6.0,
) -> DgpSpec:
    """Standard harness process: ARX(2) target, VARX(1) K=3 surrogate.

    The innovation covariance is equicorrelated at rho with unit variances.
    x_scale sets the stationary spread of the two synthetic embedding
    columns; the default makes the covariate signal dominate the target
    variance, matching the panels the harness is meant to emulate.
    """
    A_S1 = np.array([
        [0.2, 0.2, 0.2],
        [-0.2, -0.2, -0.2],
        [-0.1, -0.1, -0.1],
    ])
    B_S = np.array([
        [0.1, 0.1],
        [-0.1, -0.1],
        [-0.3, -0.3],
    ])
    return DgpSpec(
        alpha=np.array([0.5, -0.3]),
        beta=np.array([0.7, -0.2]),
        A_S=A_S1[None],
        B_S=B_S,
        Sigma=equicorrelated(4, rho),
        T=T,
        x_gen=Ar1Spec(2, phi=0.5, scale=x_scale),
        error_kind=error_kind,
    )


# ---------------------------------------------------------------------------
# Evaluation metrics.
# ---------------------------------------------------------------------------

def rpmse(
    forecasts: np.ndarray, truths: np.ndarray, baseline: np.ndarray
) -> float:
    """Root of the ratio of mean squared forecast errors against a baseline.

    All inputs are (Q, H): one row per repetition, one column per step.
    """
    forecasts, truths, baseline = map(np.asarray, (forecasts, truths, baseline))
    num = float(np.mean(np.mean((forecasts - truths) ** 2, axis=1)))
    den = float(np.mean(np.mean((baseline - truths) ** 2, axis=1)))
    if den == 0.0:
        raise BaselineDegenerate("baseline mean squared error is zero")
    return float(np.sqrt(num / den))


def _sign(arr: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(arr) >= 0.0, 1.0, -1.0)  # sign(0) := +1


def rsign(
    forecasts: np.ndarray, truths: np.ndarray, baseline: np.ndarray
) -> float:
    """Ratio of mean sign-disagreement rates against a baseline."""
    truth_sign = _sign(truths)
    num = float(np.mean(_sign(forecasts) != truth_sign))
    den = float(np.mean(_sign(baseline) != truth_sign))
    if den == 0.0:
        raise BaselineDegenerate("baseline sign error rate is zero")
    return num / den


def coverage_length(
    lower: np.ndarray, upper: np.ndarray, truths: np.ndarray
) -> tuple[float, float]:
    """Pooled empirical coverage and mean interval length over (Q, H)."""
    lower, upper, truths = map(np.asarray, (lower, upper, truths))
    inside = (truths >= lower) & (truths <= upper)
    return float(np.mean(inside)), float(np.mean(upper - lower))


# ---------------------------------------------------------------------------
# Experiment harness.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentGrid:
    """One simulation experiment: a grid of correlations and horizons.

    Every repetition standardises the target on its training window and fits
    the joint model with q1=2, q2=1 against an AR benchmark of order <=
    _AR_Q_MAX; the variant's row of _VARIANTS says what it changes. A grid
    that repeats a horizon, or two rhos that round to one seed key (1e-6
    apart), raises InvalidData: they would run the same cell twice. So does
    a horizon H whose training window, total_months - H months, is shorter
    than H (the historical average needs H months) or than 2 _AR_Q_MAX + 3
    (the order selection needs that many).
    """

    rhos: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    horizons: tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14, 15)
    variant: str = "base"
    total_months: int = 60
    alpha: float = 0.05
    B: int = 500
    x_scale: float = 6.0
    include_intervals: bool = True
    include_boot: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidData(f"variant must be one of {VARIANTS}")
        if not self.rhos or not self.horizons:
            raise InvalidData("rho and horizon grids must be non-empty")
        for h in self.horizons:
            _require_int("horizons", h)
        for name in ("total_months", "B", "workers"):
            _require_int(name, getattr(self, name))
        if not np.isfinite(self.rhos).all():
            raise InvalidData(f"rho values must be finite, got {self.rhos}")
        # a repeated value would run its cells twice; two rhos with one
        # _rho_key draw the same streams, so they count as repeats
        for name, values, keys in (("rho", self.rhos, map(_rho_key, self.rhos)),
                                   ("horizon", self.horizons, self.horizons)):
            seen = {}
            for value, key in zip(values, keys):
                if key in seen:
                    same = "" if value == seen[key] else f" (as {value!r}, the same cell)"
                    raise InvalidData(f"{name} grid repeats {seen[key]!r}{same}")
                seen[key] = value
        if any(h < 1 or h >= self.total_months for h in self.horizons):
            raise InvalidData("horizons must satisfy 1 <= H < total_months")
        short = [h for h in self.horizons
                 if self.total_months - h < max(h, 2 * _AR_Q_MAX + 3)]
        if short:
            raise InvalidData(
                f"horizons {short} leave fewer than max(H, {2 * _AR_Q_MAX + 3}) "
                f"training months of total_months={self.total_months}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidData(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.x_scale < np.inf:
            raise InvalidData(f"x_scale must be finite and > 0, got {self.x_scale}")
        if self.workers < 1:
            raise InvalidData(f"workers must be >= 1, got {self.workers}")
        if self.include_intervals and self.include_boot:
            BootstrapConfig(B=self.B)  # raises on a replicate count it rejects


@dataclass(frozen=True)
class ReportRow:
    variant: str
    rho: float
    H: int
    method: str
    metric: str
    value: float


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[ReportRow, ...]
    Q: int

    def value(self, rho: float, H: int, method: str, metric: str) -> float:
        for r in self.rows:
            if (r.rho, r.H, r.method, r.metric) == (rho, H, method, metric):
                return r.value
        raise KeyError((rho, H, method, metric))

    def to_csv(self, path: str) -> None:
        _write_csv(path, ["variant", "rho", "H", "method", "metric", "value"],
                   ([r.variant, float(r.rho), r.H, r.method, r.metric, float(r.value)]
                    for r in self.rows))


def _rho_key(rho: float) -> int:
    """The entropy word of a correlation in every repetition's seed."""
    # SeedSequence takes no negative entropy; the wrap leaves every rho >= 0
    # with the stream it always had
    return int(round(rho * 1e6)) % 2**64


def _uint32_words(values) -> np.ndarray:
    """The little-endian 32-bit words SeedSequence makes of a tuple of
    nonnegative ints: each int in as many words as it needs, 0 in one."""
    words = []
    for v in map(int, values):
        if v < 0:
            raise InvalidData(f"seed entropy must be nonnegative, got {v}")
        words.append(v & 0xFFFFFFFF)
        while v >> 32:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence (O'Neill's seed_seq_fe, NEP 19): a pool of four
# 32-bit words, and the multiplicative hash constants of its two stages
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# the pool words each source word is mixed into, in order
_OTHER_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != src])
                for src in range(_POOL_SIZE)]


@functools.lru_cache(maxsize=32)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of calls hash steps and after the
    last: init, then each one the one before times mult, mod 2**32.
    Read-only, as the cache hands the one array to every caller."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    h = np.array(h, dtype=np.uint32)
    h.setflags(write=False)
    return h


def _hash_step(value: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One hash step of value under each constant in h[:-1], as a new
    array: xor with the constant, times the next one, xorshift by 16."""
    value = (value ^ h[:-1]) * h[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pool words x mixed with hashed words y, as a new array."""
    value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    value ^= value >> 16
    return value


def _seed_states(entropy: np.ndarray, spawn_key: tuple, n_words: int) -> np.ndarray:
    """SeedSequence(row, spawn_key=spawn_key).generate_state(n_words,
    np.uint64) of every row of an (N, L) uint32 entropy matrix, (N, n_words).

    numpy's hash run on all rows at once: mix_entropy, then generate_state.
    A spawn key is hashed after the run entropy, which is first padded with
    zeros to the pool size. The hash constants do not depend on the data,
    so a source word's steps into the three other pool words, and a late
    entropy word's into all four, are one array operation each.
    """
    P = _POOL_SIZE
    spawn = _uint32_words(spawn_key)
    N, L = entropy.shape
    n = max(L, P if spawn.size else 0) + spawn.size
    words = np.zeros((N, n), dtype=np.uint32)
    words[:, :L] = entropy
    words[:, n - spawn.size:] = spawn
    h = _hash_constants(_INIT_A, _MULT_A, P * P + P * max(n - P, 0))
    pool = np.zeros((N, P), dtype=np.uint32)
    pool[:, :min(n, P)] = words[:, :P]
    pool = _hash_step(pool, h[:P + 1])
    k = P
    for src in range(P):
        dst = _OTHER_WORDS[src]
        pool[:, dst] = _mix(pool[:, dst], _hash_step(pool[:, src:src + 1], h[k:k + P]))
        k += P - 1
    for src in range(P, n):
        pool = _mix(pool, _hash_step(words[:, src:src + 1], h[k:k + P + 1]))
        k += P
    state = _hash_step(pool[:, np.arange(2 * n_words) % P],
                       _hash_constants(_INIT_B, _MULT_B, 2 * n_words))
    # word pairs are read little-endian, as numpy reads them on any host
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _rep_states(seed: int, variant: str, rho: float, H: int, reps, child: int,
                n_words: int) -> np.ndarray:
    """generate_state(n_words, np.uint64) of stream ``child`` of each
    repetition in reps, (len(reps), n_words): 0 draws the process, 1 the
    overfit noise columns, 2 seeds the bootstrap.

    Row i is that of SeedSequence(entropy_i).spawn(3)[child], the
    SeedSequence of entropy_i = (seed, variant index, _rho_key(rho), H,
    reps[i]) with spawn_key (child,). A repetition of 2**32 or more takes
    two entropy words, so those are hashed as their own group.
    """
    head = _uint32_words((seed, VARIANTS.index(variant), _rho_key(rho), H))
    rep = np.fromiter(reps, dtype=np.uint64, count=len(reps))
    low = (rep & 0xFFFFFFFF).astype(np.uint32)[:, None]
    high = (rep >> 32).astype(np.uint32)[:, None]
    wide = high[:, 0] != 0
    states = np.empty((len(rep), n_words), dtype=np.uint64)
    for group, tail in ((~wide, (low,)), (wide, (low, high))):
        if group.any():
            entropy = np.hstack([np.broadcast_to(head, (group.sum(), head.size)),
                                 *(t[group] for t in tail)])
            states[group] = _seed_states(entropy, (child,), n_words)
    return states


class _PcgSeed(ISeedSequence):
    """A seed sequence whose one answer, PCG64's generate_state(4,
    np.uint64) request, is given: default_rng draws from it the stream of
    the SeedSequence whose state that is. Any other request raises."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._state) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"this seed answers only generate_state({len(self._state)}, "
                             f"np.uint64), not ({n_words}, {np.dtype(dtype)})")
        return self._state


def _padded_ar_fit(y: np.ndarray, orders: np.ndarray) -> ArxFit:
    """The AR benchmark of every series of y (Q, T), member i of order
    orders[i], as one batched fit of order _AR_Q_MAX.

    Each group of one order is fitted once (fit_arx) and its lags are
    zero-padded to _AR_Q_MAX. A padded lag adds ±0.0 to a lag sum that
    starts at +0.0 and is never -0.0, so forecast_arx and bj_interval give
    every member the bits of its own order's fit. Neither reads residuals,
    which are left empty.
    """
    Q = len(y)
    alpha = np.zeros((Q, _AR_Q_MAX))
    sigma = np.empty(Q)
    for q in sorted(set(orders.tolist())):
        group = orders == q
        fit = fit_arx(y[group], q)
        alpha[group, :q] = fit.alpha_hat
        sigma[group] = fit.sigma_e_hat
    none = np.empty((Q, 0))
    return ArxFit(alpha_hat=alpha, theta_hat=none, beta_hat=none, sigma_e_hat=sigma,
                  residuals=none, q1=_AR_Q_MAX)


def _run_reps(task: tuple) -> dict:
    """Repetitions ``reps`` of one (rho, H) cell, run as one batch.

    Every repetition draws from its own streams (_rep_states) and every
    solve treats each member on its own, so a repetition's outputs do not
    depend on the batch it runs in. The AR baseline is one forecast_arx
    call and the bootstrap one boot_interval call. Returns (len(reps), H)
    arrays: "truth", the point forecasts "JOINT", "AR", "RW" and "AVE", and
    (lower, upper) pairs of the intervals the grid includes.
    """
    grid, spec, seed, rho, H, reps = task
    _, withheld, n_noise = _VARIANTS[grid.variant]

    def streams(child):
        return [_PcgSeed(state) for state in
                _rep_states(seed, grid.variant, rho, H, reps, child, 4)]

    mp, sp = generate(spec, streams(0))
    T_train = grid.total_months - H
    y = standardize_cpi(mp.y, base=0.0, train_size=T_train).values
    x = mp.x[..., :mp.p - withheld]
    mp_tr = MonthlyPanel(mp.times[:T_train], y[:, :T_train], mp.z[:, :T_train],
                         x[:, :T_train])
    sp_tr = sp.slice(0, T_train)

    x_sur = mp_tr.x
    if n_noise:
        noise = np.stack([np.random.default_rng(ss).standard_normal((T_train, n_noise))
                          for ss in streams(1)])
        x_sur = np.concatenate([x_sur, noise], axis=-1)
    sf = fit_surrogate(sp_tr, x_sur, 1)
    jf = fit_joint_step2(mp_tr, sp_tr, sf, 2)
    y_train = mp_tr.y
    fut = FutureExogenous(mp.z[:, T_train:], x[:, T_train:], sp.ys[:, T_train:])

    fc_joint = forecast_joint(jf, sf, mp_tr, sp_tr, fut, H)
    ar = _padded_ar_fit(y_train, select_ar_order(y_train, _AR_Q_MAX))
    fc_ar = forecast_arx(ar, y_train, None, H)
    out = {
        "truth": y[:, T_train:],
        "JOINT": fc_joint.point,
        "AR": fc_ar.point,
        "RW": forecast_rw(y_train, H).point,
        "AVE": forecast_ave(y_train, H).point,
    }
    if grid.include_intervals:
        iv_ar = bj_interval(fc_ar, ar, grid.alpha)
        iv_bj = bj_interval(fc_joint, jf, grid.alpha)
        out["AR_BJ"] = (iv_ar.lower, iv_ar.upper)
        out["JOINT_BJ"] = (iv_bj.lower, iv_bj.upper)
    if grid.include_intervals and grid.include_boot:
        states = _rep_states(seed, grid.variant, rho, H, reps, 2, 1)
        cfg = BootstrapConfig(B=grid.B, seed=tuple(states[:, 0].tolist()))
        iv_bt = boot_interval(jf, sf, mp_tr, sp_tr, fut, H, cfg, grid.alpha)
        out["JOINT_BOOT"] = (iv_bt.lower, iv_bt.upper)
    return out


def run_experiment(grid: ExperimentGrid, Q: int, seed: int) -> SimulationReport:
    """Run the full grid with Q repetitions per cell.

    Results are deterministic in (grid, Q, seed): repetition RNG streams are
    derived from the cell coordinates and aggregation order is fixed, so any
    worker count produces an identical report.
    """
    _require_count("Q", Q)
    _require_int("seed", seed)
    if seed < 0:
        raise InvalidData(f"seed must be >= 0, got {seed}")
    error_kind = _VARIANTS[grid.variant][0]
    specs = {rho: benchmark_dgp(rho, T=grid.total_months, error_kind=error_kind,
                                x_scale=grid.x_scale)
             for rho in grid.rhos}
    cells = [(rho, H) for rho in grid.rhos for H in grid.horizons]
    # one batch per cell; a pool gets about four blocks of repetitions per
    # worker, so that a small run is shared too
    blocks = 1 if grid.workers == 1 else min(Q, -(-4 * grid.workers // len(cells)))
    tasks = [(grid, specs[rho], seed, rho, H,
              range(Q * b // blocks, Q * (b + 1) // blocks))
             for rho, H in cells for b in range(blocks)]
    if grid.workers > 1:
        chunksize = -(-len(tasks) // (4 * grid.workers))
        # a fork pool starts every process at the first submit
        processes = min(grid.workers, len(tasks), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(processes) as pool:
            outs = list(pool.map(_run_reps, tasks, chunksize=chunksize))
    else:
        outs = [_run_reps(task) for task in tasks]

    def joined(arrays):
        # C order whatever the block count: the means below sum in memory
        # order, and one block may come back in Fortran order
        return np.ascontiguousarray(np.concatenate(arrays))

    # both loops keep task order, so cell c holds outs[c*blocks:(c+1)*blocks]
    rows: list[ReportRow] = []
    for c, (rho, H) in enumerate(cells):
        parts = outs[c * blocks:(c + 1) * blocks]
        res = {key: (tuple(joined([part[key][j] for part in parts]) for j in range(2))
                     if isinstance(value, tuple)
                     else joined([part[key] for part in parts]))
               for key, value in parts[0].items()}
        cell = (grid.variant, rho, H)
        truth, base = res["truth"], res["AR"]
        for method in ("RW", "AVE", "JOINT"):
            fc = res[method]
            rows.append(ReportRow(*cell, method, "rpmse", rpmse(fc, truth, base)))
            rows.append(ReportRow(*cell, method, "rsign", rsign(fc, truth, base)))
        for name in (n for n in ("AR_BJ", "JOINT_BJ", "JOINT_BOOT") if n in res):
            cov, length = coverage_length(*res[name], truth)
            rows.append(ReportRow(*cell, name, "coverage", cov))
            rows.append(ReportRow(*cell, name, "length", length))
    return SimulationReport(rows=tuple(rows), Q=Q)
