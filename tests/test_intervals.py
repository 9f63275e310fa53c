import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from surrocast import (
    BootstrapConfig,
    BootstrapUnstable,
    FutureExogenous,
    InsufficientSample,
    InvalidCovariance,
    InvalidData,
    MonthlyPanel,
    PanelMismatch,
    RankDeficient,
    benchmark_dgp,
    bj_interval,
    bj_interval_estimated,
    boot_interval,
    companion_matrix,
    companion_weight,
    efficiency_gain,
    fit_arx,
    fit_joint,
    forecast_arx,
    forecast_joint,
    generate,
)
from surrocast.estimation import (RANK_TOL, _design, _fitted_design, _full_rank,
                                  _full_rank_r, d_residual_matrix)
from surrocast import intervals
from surrocast.forecasting import _ar_recursion
from surrocast.intervals import (
    _batched_refit,
    _empirical_quantile,
    _joint_forecast_gradient,
    _psi_weights,
    _z,
)

from conftest import member


# ---------------------------------------------------------------------------
# companion_weight
# ---------------------------------------------------------------------------

def test_weight_is_one_at_first_step(rng):
    for _ in range(10):
        alpha = rng.uniform(-0.9, 0.9, size=rng.integers(1, 4))
        assert companion_weight(alpha, 1) == pytest.approx(1.0)


def test_weight_hand_value_order_two():
    # powers of [[0.5, -0.3], [1, 0]]: first entries 1, 0.5, -0.05, so the
    # weight is sqrt(1 + 0.25 + 0.0025)
    assert companion_weight([0.5, -0.3], 3) == pytest.approx(
        np.sqrt(1.2525), abs=1e-12)


def test_weight_zero_coefficients():
    for h in range(1, 8):
        assert companion_weight(np.zeros(3), h) == pytest.approx(1.0)


def _random_stationary_alpha(rng, q):
    while True:
        alpha = rng.uniform(-1.0, 1.0, size=q)
        if np.max(np.abs(np.linalg.eigvals(companion_matrix(alpha)))) < 0.98:
            return alpha


def test_weight_matches_dense_matrix_power_oracle(rng):
    for _ in range(200):
        q = int(rng.integers(1, 6))
        alpha = _random_stationary_alpha(rng, q)
        h = int(rng.integers(1, 21))
        A = companion_matrix(alpha)
        oracle = np.sqrt(sum(
            np.linalg.matrix_power(A, r)[0, 0] ** 2 for r in range(h)
        ))
        assert companion_weight(alpha, h) == pytest.approx(oracle, abs=1e-10)


def _power_loop_weights(alpha, H):
    """The former companion_weight: one row-vector product per power."""
    A = companion_matrix(alpha)
    row = np.zeros(A.shape[0])
    row[0] = 1.0  # first row of A^0
    total, out = 0.0, []
    for _ in range(H):
        total += row[0] ** 2
        out.append(math.sqrt(total))
        row = row @ A
    return np.array(out)


def test_psi_weights_match_power_loop(rng):
    # The power loop sums psi_k = sum_l alpha_l psi_{k-l} from the highest
    # lag down, the AR recursion from lag 1 up. With q <= 2 both are one
    # rounded sum of two rounded products, so the weights are equal bit for
    # bit; from q = 3 on the rounding order differs (at most 8 ulp seen).
    for _ in range(1200):
        q = int(rng.integers(1, 6))
        alpha = _random_stationary_alpha(rng, q)
        H = int(rng.integers(1, 21))
        got, ref = _psi_weights(alpha, H), _power_loop_weights(alpha, H)
        if q <= 2:
            assert got.tobytes() == ref.tobytes()
        else:
            np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0.0)
        assert companion_weight(alpha, H) == got[-1]


def test_weight_batch_matches_one_series_calls(rng):
    alpha = np.stack([_random_stationary_alpha(rng, 3)
                      for _ in range(6)]).reshape(2, 3, 3)
    got = companion_weight(alpha, 7)
    assert got.shape == (2, 3)
    for i in np.ndindex(2, 3):
        one = companion_weight(alpha[i], 7)
        assert isinstance(one, float) and got[i] == one


# ---------------------------------------------------------------------------
# bj_interval
# ---------------------------------------------------------------------------

def _fit_like(alpha_hat, sigma):
    return dataclasses.make_dataclass("F", ["alpha_hat", "sigma_e_hat"])(
        np.asarray(alpha_hat, dtype=float), sigma)


def _fc(points):
    from surrocast import ForecastResult, Method

    points = np.asarray(points, dtype=float)
    return ForecastResult(method=Method.JOINT, point=points, horizon=len(points))


def test_bj_width_standard_normal_quantile():
    iv = bj_interval(_fc([0.0]), _fit_like([0.4], 1.0), alpha=0.05)
    assert iv.upper[0] - iv.lower[0] == pytest.approx(2 * 1.959964, abs=1e-5)


def test_bj_tiny_alpha_stays_finite():
    # the quantile is taken at alpha/2: 1 - alpha/2 would round to 1.0 here
    fc, fit = _fc([0.0, 1.0]), _fit_like([0.4], 1.0)
    tiny = bj_interval(fc, fit, alpha=1e-20)
    usual = bj_interval(fc, fit, alpha=0.05)
    assert np.all(np.isfinite(tiny.lower)) and np.all(np.isfinite(tiny.upper))
    assert np.all(tiny.length > usual.length)


def test_bj_zero_sigma_degenerates_to_point():
    iv = bj_interval(_fc([1.0, 2.0]), _fit_like([0.4], 0.0), alpha=0.05)
    np.testing.assert_array_equal(iv.lower, iv.upper)


def test_bj_width_proportional_to_weight():
    alpha_hat = [0.5, -0.3]
    iv = bj_interval(_fc([0.0] * 6), _fit_like(alpha_hat, 1.3), alpha=0.1)
    widths = iv.upper - iv.lower
    weights = np.array([companion_weight(alpha_hat, h) for h in range(1, 7)])
    np.testing.assert_allclose(widths / weights, widths[0] / weights[0])


def test_bj_serves_ar_baseline_fit():
    mp, _ = generate(benchmark_dgp(0.2, T=100), 2)
    ar = fit_arx(mp.y, 2)
    fc = forecast_arx(ar, mp.y, None, 3)
    iv = bj_interval(fc, ar, 0.05)
    assert np.all(iv.length > 0)


# ---------------------------------------------------------------------------
# boot_interval
# ---------------------------------------------------------------------------

def _fitted_setup(rho=0.3, T_total=60, H=8, seed=4):
    mp, sp = generate(benchmark_dgp(rho, T=T_total), seed)
    T = T_total - H
    mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
    jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
    fut = FutureExogenous(mp.z[T:], mp.x[T:], sp.ys[T:])
    return jf, sf, mp_tr, sp_tr, fut, mp.y[T:]


def test_boot_deterministic_given_seed():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    cfg = BootstrapConfig(B=150, seed=99)
    a = boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.05)
    b = boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.05)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)


def _reproducing_panel(jf, sf, mp, sp):
    """mp with y[q1:] rolled forward from jf's coefficients and residuals.

    A fit whose coefficients or residuals were edited is then the fit of
    the returned panel and sp, as boot_interval requires.
    """
    q1 = jf.q1
    d_rows = d_residual_matrix(sp.ys, sf.A_hat, sf.q2)[q1 - sf.q2:]
    driver = (mp.z[q1:] @ jf.theta_hat + mp.x[q1:] @ jf.delta_hat
              + d_rows @ jf.gamma_hat + jf.residuals)
    y = np.concatenate([mp.y[:q1], _ar_recursion(jf.alpha_hat, mp.y[:q1],
                                                 driver)])
    return MonthlyPanel(times=mp.times, y=y, z=mp.z, x=mp.x)


def test_boot_degenerate_residuals_zero_width():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    flat = dataclasses.replace(jf, residuals=np.full_like(jf.residuals, 0.37))
    mp = _reproducing_panel(flat, sf, mp, sp)
    iv = boot_interval(flat, sf, mp, sp, fut, 3, BootstrapConfig(B=120, seed=1),
                       0.05)
    np.testing.assert_allclose(iv.length, 0.0, atol=1e-6)


def test_boot_quantile_nesting():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    cfg = BootstrapConfig(B=300, seed=5)
    wide = boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.05)
    narrow = boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.10)
    assert np.all(narrow.lower >= wide.lower)
    assert np.all(narrow.upper <= wide.upper)


def test_boot_rejects_tiny_b():
    with pytest.raises(InvalidData):
        BootstrapConfig(B=50, seed=0)


@pytest.mark.parametrize("kw", [{"B": 500.5}, {"B": 500.0}, {"seed": 1.5},
                                {"seed": True}, {"seed": (3, 1.5)},
                                {"seed": (3, True)}, {"seed": [3, 4]}])
def test_boot_config_rejects_non_integer(kw):
    with pytest.raises(InvalidData, match="integer"):
        BootstrapConfig(**kw)


def test_boot_config_seed_tuple():
    assert BootstrapConfig(seed=(0, 7, np.int64(2**40))).seed == (0, 7, 2**40)
    for seed in (-1, (4, -1)):
        with pytest.raises(InvalidData, match=">= 0"):
            BootstrapConfig(seed=seed)


def _split_future_rows(fut, H, sf, sp):
    """The future rows (z, x, d_hat) of months T+1..T+H, d_hat from its own
    d_residual_matrix call on the last q2 history months and the future
    surrogate rows."""
    ys = np.concatenate([sp.ys[..., sp.T - sf.q2:, :], fut.ys_future[..., :H, :]],
                        axis=-2)
    return (fut.z_future[..., :H, :], fut.x_future[..., :H, :],
            d_residual_matrix(ys, sf.A_hat, sf.q2))


def _lstsq_keeps(design, response):
    """The SVD rank rule (gelsd's, through lstsq) on one design; the
    coefficients when it keeps."""
    coef, _, rank, sv = np.linalg.lstsq(design, response, rcond=RANK_TOL)
    if rank < design.shape[1] or sv[0] <= 0.0 or sv[-1] < RANK_TOL * sv[0]:
        return None
    return coef


def _reference_boot(jf, sf, mp, sp, fut, H, cfg, alpha):
    """boot_interval as one lstsq refit and one forecast loop per replicate.

    Returns (point, lower, upper, number of replicates dropped).
    """
    point = forecast_joint(jf, sf, mp, sp, fut, H).point
    q1, q2, T = jf.q1, jf.q2, mp.T
    centered = jf.residuals - jf.residuals.mean()
    d_used = jf.d_hat[q1 - q2:]
    z_fut, x_fut, d_fut = _split_future_rows(fut, H, sf, sp)
    n_total = T + H
    driver = np.zeros(n_total)
    driver[q1:T] = (mp.z[q1:] @ jf.theta_hat
                    + mp.x[q1:] @ jf.delta_hat
                    + d_used @ jf.gamma_hat)
    driver[T:] = (z_fut @ jf.theta_hat + x_fut @ jf.delta_hat
                  + d_fut @ jf.gamma_hat)
    rng = np.random.default_rng(cfg.seed)
    e_star = centered[rng.integers(0, T - q1, size=(cfg.B, n_total))]
    ystar = np.empty((cfg.B, n_total))
    ystar[:, :q1] = e_star[:, :q1]
    for t in range(q1, n_total):
        acc = driver[t] + e_star[:, t]
        for l in range(1, q1 + 1):
            acc = acc + jf.alpha_hat[l - 1] * ystar[:, t - l]
        ystar[:, t] = acc
    Y = ystar

    fixed = np.hstack([mp.z[q1:], mp.x[q1:], d_used])
    fut_cov = np.hstack([z_fut, x_fut, d_fut])
    errors = []
    for b in range(cfg.B):
        lags = np.column_stack([Y[b, q1 - l: T - l] for l in range(1, q1 + 1)])
        coef = _lstsq_keeps(np.hstack([lags, fixed]), Y[b, q1:T])
        if coef is None:
            continue
        drv = fut_cov @ coef[q1:]
        buf = np.concatenate([Y[b, T - q1:T], np.zeros(H)])
        for h in range(H):
            buf[q1 + h] = coef[:q1] @ buf[h:q1 + h][::-1] + drv[h]
        errors.append(Y[b, T:] - buf[q1:])
    errors = np.sort(np.array(errors), axis=0)
    rule = cfg.quantile_rule
    lower = point + [_empirical_quantile(errors[:, h], alpha / 2.0, rule)
                     for h in range(H)]
    upper = point + [_empirical_quantile(errors[:, h], 1.0 - alpha / 2.0, rule)
                     for h in range(H)]
    return point, lower, upper, cfg.B - errors.shape[0]


@pytest.mark.parametrize("rule", ["ceil", "linear"])
def test_quantile_read_out_matches_per_horizon_loop(rng, rule):
    # one read over the sorted (kept, H) error matrix gives the bits of one
    # read per horizon: the ceil(n q)-th order statistic, or np.quantile of
    # the column
    H = 8
    for n in (1, 2, 99, 475, 500):
        errors = np.sort(rng.standard_t(3, size=(n, H)), axis=0)
        for q in (0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995):
            lower, upper = _empirical_quantile(errors, (q, 1.0 - q), rule)
            for got, p in ((lower, q), (upper, 1.0 - q)):
                for h in range(H):
                    col = errors[:, h]
                    if rule == "ceil":
                        want = col[min(max(math.ceil(n * p), 1), n) - 1]
                    else:
                        want = np.quantile(col, p)
                    assert got[h].tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("q1", [1, 2, 4])
@pytest.mark.parametrize("rule", ["ceil", "linear"])
@pytest.mark.parametrize("H", [1, 8])
def test_boot_matches_per_replicate_lstsq(q1, rule, H):
    # the batched refit sums in another order than lstsq's SVD; the
    # endpoints may move by rounding only
    for seed in range(5):
        mp, sp = generate(benchmark_dgp(0.3, T=60), (17, seed))
        T = 52
        mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
        jf, sf = fit_joint(mp_tr, sp_tr, q1, 1)
        fut = FutureExogenous(mp.z[T:], mp.x[T:], sp.ys[T:])
        cfg = BootstrapConfig(B=500, seed=seed, quantile_rule=rule)
        iv = boot_interval(jf, sf, mp_tr, sp_tr, fut, H, cfg, 0.05)
        point, lower, upper, _ = _reference_boot(jf, sf, mp_tr, sp_tr, fut, H,
                                                 cfg, 0.05)
        bound = 1e-12 * (1.0 + np.abs(point))
        assert np.all(np.abs(iv.lower - lower) <= bound)
        assert np.all(np.abs(iv.upper - upper) <= bound)


def _lead_x2(R_F):
    """||R_F^-1||_F^2 of each (k, k) block of R_F, taken from _full_rank_r
    as boot_interval takes it."""
    R_F_inv = _full_rank_r(R_F, R_F[..., :0])[2]
    return np.einsum("...ij,...ij->...", R_F_inv, R_F_inv)


def _factor(fixed):
    """The factor argument of _batched_refit for fixed blocks (G, n, k)."""
    Q_F, R_F = np.linalg.qr(fixed)
    return Q_F, R_F, _lead_x2(R_F)


def _refit(fixed, lags, response):
    """_batched_refit of one member, fixed (n, k), lags q1 (n, B) columns
    and response (n, B), which it leaves as they are, as (coef, kept,
    number checked by SVD) with coef (B, q1 + k) in lstsq's [lags, fixed]
    column order."""
    k = fixed.shape[1]
    coef, kept, checked = _batched_refit(
        _factor(fixed[None]), [lag[:, None] for lag in lags], response[:, None].copy())
    coef = coef[:, 0].T
    return (np.concatenate([coef[:, k:], coef[:, :k]], axis=1), kept[0],
            int(checked.sum()))


def _rank_rule(R):
    """_full_rank_r on R alone: (kept, number checked by SVD)."""
    kept, checked, _, _ = _full_rank_r(R, np.zeros(R.shape[:-1] + (0,)))
    return kept, int(checked.sum())


def _rank_rule_batch(rng):
    """(fixed, lags, response) of 40 replicates, lags (B, q1, n) and
    response (B, n) replicate-major; replicates 3, 17, 29 and 35 are rank
    deficient and 33 is just above the cutoff."""
    B, q1, n, k = 40, 2, 50, 5
    fixed = rng.normal(size=(n, k))
    lags = rng.normal(size=(B, q1, n))
    response = rng.normal(size=(B, n))
    lags[3, 1] = fixed[:, 2]                         # an exact copy
    lags[17, 0] = -2.0 * fixed[:, 4]                 # a scaled copy
    lags[29, 1] = fixed[:, 0] + 1e-11 * rng.normal(size=n)  # under 1e-10
    lags[33, 0] = fixed[:, 1] + 1e-7 * rng.normal(size=n)   # kept
    lags[35, 0] = 0.0                                # s_min = 0
    return fixed, lags, response


def test_batched_refit_rank_rule_matches_lstsq(rng):
    fixed, lags, response = _rank_rule_batch(rng)
    B = len(lags)
    coef, kept, _ = _refit(fixed, lags.transpose(1, 2, 0), response.T)
    for b in range(B):
        ref = _lstsq_keeps(np.hstack([lags[b].T, fixed]), response[b])
        assert kept[b] == (ref is not None), b
        if ref is None:
            assert np.all(np.isnan(coef[b]))
        elif b != 33:  # 33 is kept with a condition number near 1e8
            np.testing.assert_allclose(coef[b], ref, rtol=1e-10, atol=1e-12)
    assert np.flatnonzero(~kept).tolist() == [3, 17, 29, 35]


def test_batched_refit_replicate_independent_of_batch(rng):
    # the time-major layout must not couple replicates: every replicate's
    # refit has the same bits in the whole batch as in a slice of 37
    B, q1, n, k = 500, 2, 50, 5
    fixed = rng.normal(size=(n, k))
    Y = rng.normal(size=(q1 + n, B))             # months x replicates
    Y[:, 40] = 0.0                               # zero lag columns
    Y[q1 - 1:q1 - 1 + n, 77] = fixed[:, 2]       # a lag copying F

    def refit(Y):
        lags = [Y[q1 - l:q1 - l + n] for l in range(1, q1 + 1)]
        return _refit(fixed, lags, Y[q1:])

    coef, kept, _ = refit(Y)
    assert np.flatnonzero(~kept).tolist() == [40, 77]
    for start in range(0, B, 37):
        part = slice(start, start + 37)
        for Y_part in (Y[:, part], np.ascontiguousarray(Y[:, part])):
            coef_part, kept_part, _ = refit(Y_part)
            assert coef_part.tobytes() == coef[part].tobytes(), start
            assert kept_part.tolist() == kept[part].tolist(), start


def _block_r(R_F, C, R_L):
    """The refit's (B, k + q1, k + q1) R factor [[R_F, C], [0, R_L]]."""
    B, k, q1 = C.shape
    R = np.zeros((B, k + q1, k + q1))
    R[:, :k, :k] = R_F
    R[:, :k, k:] = C
    R[:, k:, k:] = R_L
    return R


def _triangular(rng, sv):
    """Upper-triangular R factor of a random matrix with singular values sv."""
    m = len(sv)
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    return np.linalg.qr((U * sv) @ V.T, mode="r")


def _screen_batches(rng):
    """(k, R) pairs, R a batch of the refit's block shape, named by how it
    is conditioned."""
    k = 5
    kappas = np.concatenate([np.logspace(2, 14, 25), np.logspace(8, 12, 81)])
    batches = {}
    for q1 in (1, 2, 4):
        # kappa_2 of R set by R_L, log-spaced and dense about 1 / RANK_TOL
        R_F = _triangular(rng, np.geomspace(1.0, 0.1, k))
        R_L = np.stack([_triangular(rng, np.geomspace(1.0, 1.0 / kap, q1 + 1)[1:])
                        for kap in kappas])
        C = rng.normal(size=(len(kappas), k, q1))
        batches[f"graded q1={q1}"] = (k, _block_r(R_F, C, R_L))
        # ill-conditioning that only the C block of R^-1 shows:
        # R_F^-1 C R_L^-1 is far larger than R_F^-1 and R_L^-1
        R_F = _triangular(rng, [1.0, 1.0, 1.0, 1.0, 1e-3])
        weak = np.linalg.solve(R_F, np.eye(k))[:, -1]   # R_F @ weak = e_k
        C = (np.geomspace(1e-2, 1e5, 106)[:, None, None]
             * R_F @ weak[:, None] @ rng.normal(size=(1, q1)))
        R_L = np.stack([_triangular(rng, np.geomspace(1.0, 1e-3, q1 + 1)[1:])
                        for _ in range(106)])
        batches[f"coupled q1={q1}"] = (k, _block_r(R_F, C, R_L))
    # k = q1 = 1 and s_min / s_max within a few ulps of RANK_TOL, where
    # kappa_F = kappa_2 + 1 / kappa_2 rounds to kappa_2
    ulp = np.finfo(float).eps
    j = np.arange(-8, 9)
    for s in np.geomspace(0.01, 100.0, 5):
        C = np.zeros((2 * len(j), 1, 1))
        C[len(j):] = 1e-3 * s
        R_L = np.tile(s * RANK_TOL * (1.0 + j * ulp), 2)[:, None, None]
        batches[f"at the cutoff, scale {s:g}"] = (
            1, _block_r(np.array([[s]]), C, R_L))
    # zero, duplicated and fixed-copy lag columns among ordinary ones
    R_F = _triangular(rng, np.geomspace(1.0, 0.1, k))
    C = rng.normal(size=(8, k, 2))
    R_L = np.stack([_triangular(rng, [1.0, 0.5]) for _ in range(8)])
    C[0, :, 0], R_L[0, :, 0] = 0.0, 0.0                    # a zero lag
    C[1, :, 1], R_L[1, :, 1] = C[1, :, 0], R_L[1, :, 0]    # two equal lags
    C[2, :, 0], R_L[2, :, 0] = R_F[:, 3], 0.0              # a copy of F
    C[3, :, 1], R_L[3, :, 1] = -2.0 * C[3, :, 0], -2.0 * R_L[3, :, 0]
    batches["collinear lags"] = (k, _block_r(R_F, C, R_L))
    # a rank-deficient fixed block: numerically, and with an exact zero
    R_L = np.stack([_triangular(rng, [1.0, 0.5]) for _ in range(8)])
    batches["deficient R_F"] = (k, _block_r(
        _triangular(rng, [1.0, 1.0, 1.0, 1.0, 0.0]), C, R_L))
    R_F = _triangular(rng, np.geomspace(1.0, 0.1, k))
    R_F[:, 2] = 0.0
    batches["zero R_F column"] = (k, _block_r(R_F, C, R_L))
    return batches


def test_refit_screen_matches_svd_rule(rng):
    spread = []
    for name, (_, R) in _screen_batches(rng).items():
        kept, n_svd = _rank_rule(R)
        sv = np.linalg.svd(R, compute_uv=False)
        ref = _full_rank(sv)
        bad = np.flatnonzero(kept != ref)
        assert bad.size == 0, (name, bad, sv[bad, 0] / sv[bad, -1])
        assert 0 <= n_svd <= len(R)
        with np.errstate(divide="ignore"):
            spread.append(sv[:, 0] / sv[:, -1])
    kappa = np.concatenate(spread)
    # the batches reach both sides of the cutoff and beyond
    assert np.sum((kappa > 1e8) & (kappa < 1e12)) > 300
    assert np.min(kappa) < 1e3 and np.sum(np.isinf(kappa) | (kappa > 1e14)) > 5


def _assert_narrow_solve_is_full_solve(R, rhs, k, x2_F, name):
    """_full_rank_r on the trailing columns [I[:, k:] | rhs], with x2_F for
    the leading ones, against the full [I | rhs]: the same kept mask, the
    same bytes in every column they share, and the SVD rule's mask."""
    kept, _, X, x = _full_rank_r(R, rhs, k, x2_F)
    kept_full, _, X_full, x_full = _full_rank_r(R, rhs)
    assert kept.tolist() == kept_full.tolist(), name
    assert x.tobytes() == x_full.tobytes(), name
    assert X.tobytes() == X_full[..., k:].tobytes(), name
    ref = _full_rank(np.linalg.svd(R, compute_uv=False))
    assert kept.tolist() == ref.tolist(), (name, np.flatnonzero(kept != ref))


def _member_batch(rng):
    """(fixed, lags, response) of G = 3 members of B = 40 replicates: fixed
    (G, n, k) with kappa_2 10, 10^8.5 and 10^12, lags q1 (n, G, B) arrays and
    response (n, G, B). Each lag column is F w plus a part orthogonal to F,
    so R_F^-1 Q_F' L = w stays small and only ||R_F^-1||_F shows how badly
    R_F is conditioned: members 0, 1 and 2 are kept by the screen, kept by
    the SVD and dropped."""
    G, B, q1, n, k = 3, 40, 2, 50, 5
    fixed = np.stack([(np.linalg.qr(rng.normal(size=(n, k)))[0]
                       * np.geomspace(1.0, 1.0 / kappa, k))
                      @ np.linalg.qr(rng.normal(size=(k, k)))[0]
                      for kappa in (10.0, 10**8.5, 1e12)])
    Q_F = np.linalg.qr(fixed)[0]
    noise = rng.normal(size=(G, n, q1 * B))
    noise -= Q_F @ (Q_F.mT @ noise)
    lags = fixed @ (0.3 * rng.normal(size=(G, k, q1 * B))) + 0.3 * noise
    lags = lags.reshape(G, n, q1, B).transpose(2, 1, 0, 3)
    return fixed, list(lags), rng.normal(size=(n, G, B))


def _recorded_full_rank_r(monkeypatch):
    """The arguments of every _full_rank_r call that _batched_refit makes."""
    calls = []
    solve = intervals._full_rank_r

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(intervals, "_full_rank_r", recorded)
    return calls


def test_narrow_solve_matches_full_solve(rng, monkeypatch):
    for name, (k, R) in _screen_batches(rng).items():
        rhs = rng.normal(size=(R.shape[-1], 2, len(R))).transpose(2, 0, 1)
        _assert_narrow_solve_is_full_solve(R, rhs, k, _lead_x2(R[:, :k, :k]), name)
    # the R, Q'r and per-member term of the refit itself, in its
    # replicate-last layout
    calls = _recorded_full_rank_r(monkeypatch)
    fixed, lags, response = _rank_rule_batch(rng)
    _refit(fixed, lags.transpose(1, 2, 0), response.T)
    fixed, lags, response = _member_batch(rng)
    _batched_refit(_factor(fixed), lags, response)
    assert [args[2] for args in calls] == [5, 5]
    for name, args in zip(("rank rule batch", "member batch"), calls):
        _assert_narrow_solve_is_full_solve(*args, name)


def test_batched_refit_keeps_each_members_own_fixed_term(rng):
    # each member's replicates are screened with its own ||R_F^-1||_F: a
    # term taken from another member would keep member 2's replicates
    # unchecked, or send member 0's to the SVD
    fixed, lags, response = _member_batch(rng)
    G, B = response.shape[1:]
    coef, kept, checked = _batched_refit(_factor(fixed), lags, response.copy())
    assert kept.sum(axis=1).tolist() == [B, B, 0]
    assert checked.sum(axis=1).tolist() == [0, B, B]
    for g in range(G):
        one = _batched_refit(_factor(fixed[g:g + 1]), [lag[:, g:g + 1] for lag in lags],
                             response[:, g:g + 1].copy())
        assert one[0].tobytes() == coef[:, g:g + 1].tobytes(), g
        assert one[1].tolist() == kept[g:g + 1].tolist(), g


def test_boot_factors_fixed_blocks_once_per_call(monkeypatch):
    # a batch of 4 runs in two chunks at B = 500, and its fixed blocks are
    # factored in one QR before the first
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    batch = _fitted_batch(members=4)
    monkeypatch.setattr(np.linalg, "qr", counted)
    boot_interval(*batch, 4, BootstrapConfig(B=500, seed=(1, 2, 3, 4)), 0.05)
    assert calls == [(4, 50, 5)]


def _count_svd_rows(monkeypatch):
    rows = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return rows


def test_refit_screen_skips_svd_when_well_conditioned(rng, monkeypatch):
    rows = _count_svd_rows(monkeypatch)
    B, q1, n, k = 500, 2, 52, 5
    fixed = rng.normal(size=(n, k))
    lags = rng.normal(size=(B, q1, n)).transpose(1, 2, 0)
    response = rng.normal(size=(B, n)).T
    coef, kept, n_svd = _refit(fixed, lags, response)
    assert kept.all() and n_svd == 0 and rows == []


def test_refit_screen_sends_near_cutoff_to_svd(monkeypatch):
    _, R = _screen_batches(np.random.default_rng(3))["graded q1=2"]
    rows = _count_svd_rows(monkeypatch)
    kept, n_svd = _rank_rule(R)
    kappa = np.linalg.cond(R)
    near = (kappa > 1e9) & (kappa < 1e11)
    assert near.sum() > 20
    assert rows == [n_svd] and n_svd >= near.sum()
    assert n_svd < len(R)


def _sparse_residual_fit():
    """A fit whose replicates can be rank deficient.

    The covariate coefficients are zero and only three residuals are
    nonzero (1, 1, -2), so a replicate that draws none of them before the
    forecast origin rebuilds lag columns that are all zero.
    """
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    resid = np.zeros_like(jf.residuals)
    resid[:3] = [1.0, 1.0, -2.0]
    jf = dataclasses.replace(
        jf, residuals=resid, theta_hat=np.zeros_like(jf.theta_hat),
        delta_hat=np.zeros_like(jf.delta_hat),
        gamma_hat=np.zeros_like(jf.gamma_hat))
    return jf, sf, _reproducing_panel(jf, sf, mp, sp), sp, fut


# seed 7 drops exactly 5% of 500 replicates, seed 8 drops 5.6%
@pytest.mark.parametrize("seed, dropped", [(7, 25), (8, 28)])
def test_boot_drop_threshold(seed, dropped, caplog):
    jf, sf, mp, sp, fut = _sparse_residual_fit()
    cfg = BootstrapConfig(B=500, seed=seed)
    _, lower, upper, ref_dropped = _reference_boot(jf, sf, mp, sp, fut, 4,
                                                   cfg, 0.05)
    assert ref_dropped == dropped
    with caplog.at_level(logging.DEBUG, logger="surrocast.intervals"):
        if dropped <= 25:
            iv = boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.05)
            np.testing.assert_allclose(iv.lower, lower, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(iv.upper, upper, rtol=0.0, atol=1e-12)
        else:
            with pytest.raises(BootstrapUnstable, match=f"{dropped} of 500"):
                boot_interval(jf, sf, mp, sp, fut, 4, cfg, 0.05)
    assert f"{dropped} of 500 bootstrap replicates dropped" in caplog.text


def test_refit_zero_pivot_warns_nothing(rng, caplog):
    # a zero partialled lag column is a zero Gram-Schmidt pivot: it must
    # leave R finite for the SVD rather than divide 0 by 0
    jf, sf, mp, sp, fut = _sparse_residual_fit()
    fixed, lags, response = _rank_rule_batch(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.DEBUG, logger="surrocast.intervals"):
            boot_interval(jf, sf, mp, sp, fut, 4, BootstrapConfig(B=500, seed=7),
                          0.05)
            with pytest.raises(BootstrapUnstable, match="28 of 500"):
                boot_interval(jf, sf, mp, sp, fut, 4,
                              BootstrapConfig(B=500, seed=8), 0.05)
        _, kept, _ = _refit(fixed, lags.transpose(1, 2, 0), response.T)
    assert "25 of 500 bootstrap replicates dropped" in caplog.text
    assert np.flatnonzero(~kept).tolist() == [3, 17, 29, 35]


def test_boot_duplicated_covariate_unstable():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    x = mp.x.copy()
    x[:, 1] = x[:, 0]
    dup = MonthlyPanel(times=mp.times, y=mp.y, z=mp.z, x=x)
    # the residuals of jf's coefficients on the duplicated panel
    q1 = jf.q1
    X = _design(dup.y[:, None], q1, (dup.z, dup.x, jf.d_hat))
    jf = dataclasses.replace(jf, residuals=dup.y[q1:] - X @ _joint_coef(jf))
    with pytest.raises(BootstrapUnstable):
        boot_interval(jf, sf, dup, sp, fut, 4, BootstrapConfig(B=120), 0.05)


def test_boot_rejects_panels_of_another_draw():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    # the fitted shape, but not the fitted sample
    mp_o, sp_o = generate(benchmark_dgp(0.3, T=60), 5)
    with pytest.raises(PanelMismatch, match="reproduce the fit residuals"):
        boot_interval(jf, sf, mp_o.slice(0, mp.T), sp_o.slice(0, sp.T), fut,
                      4, BootstrapConfig(B=120), 0.05)


# ---------------------------------------------------------------------------
# boot_interval on a batch of members
# ---------------------------------------------------------------------------

def _fitted_batch(q1=2, members=4, H=8, rho=0.3, seed=17):
    """Batched (jf, sf, mp, sp, fut) of independent draws: T = 60 - H
    training months, q2 = 1."""
    seeds = [np.random.SeedSequence((seed, i)) for i in range(members)]
    mp, sp = generate(benchmark_dgp(rho, T=60), seeds)
    T = 60 - H
    mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
    jf, sf = fit_joint(mp_tr, sp_tr, q1, 1)
    fut = FutureExogenous(mp.z[:, T:], mp.x[:, T:], sp.ys[:, T:])
    return jf, sf, mp_tr, sp_tr, fut


def _members(batch, i):
    return [member(obj, i) for obj in batch]


@pytest.mark.parametrize("q1", [1, 2, 3])
@pytest.mark.parametrize("rule", ["ceil", "linear"])
@pytest.mark.parametrize("H", [1, 8])
def test_boot_batch_matches_one_series_calls(q1, rule, H):
    # one batched call gives each member the bounds of its own one-series
    # call with its own seed
    batch = _fitted_batch(q1=q1, H=H)
    seeds = (11, 0, 2**63, 5)
    iv = boot_interval(*batch, H, BootstrapConfig(B=300, seed=seeds,
                                                  quantile_rule=rule), 0.05)
    assert iv.lower.shape == iv.upper.shape == (4, H)
    for i, seed in enumerate(seeds):
        one = boot_interval(*_members(batch, i), H,
                            BootstrapConfig(B=300, seed=seed, quantile_rule=rule),
                            0.05)
        for got, want in ((iv.lower[i], one.lower), (iv.upper[i], one.upper)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_boot_batch_member_independent_of_group():
    # a member's bounds have the same bits whatever members share its call,
    # and an int seed serves every member
    batch = _fitted_batch(members=5)
    cfg = BootstrapConfig(B=200, seed=(3, 1, 4, 1, 5))
    whole = boot_interval(*batch, 4, cfg, 0.05)
    for group in (slice(0, 2), slice(2, 5), slice(4, 5)):
        part = boot_interval(*_members(batch, group), 4,
                             BootstrapConfig(B=200, seed=cfg.seed[group]), 0.05)
        assert part.lower.tobytes() == whole.lower[group].tobytes()
        assert part.upper.tobytes() == whole.upper[group].tobytes()
    same = boot_interval(*_members(batch, slice(1, 4, 2)), 4,
                         BootstrapConfig(B=200, seed=1), 0.05)
    assert same.upper.tobytes() == whole.upper[1::2].tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
def test_boot_two_batch_axes_match_flat(shape):
    # leading axes (a, b) give the bounds of the flat batch of a * b
    # members, seeds and members both taken in C order
    members = shape[0] * shape[1]
    batch = _fitted_batch(members=members)
    cfg = BootstrapConfig(B=100, seed=tuple(range(members)))
    flat = boot_interval(*batch, 4, cfg, 0.05)

    def reshaped(obj):
        return type(obj)(**{
            f.name: (v.reshape(shape + v.shape[1:]) if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]})

    grid = boot_interval(*map(reshaped, batch), 4, cfg, 0.05)
    assert grid.lower.shape == shape + (4,)
    assert grid.lower.tobytes() == flat.lower.tobytes()
    assert grid.upper.tobytes() == flat.upper.tobytes()


def test_boot_batch_rejects_wrong_seed_count():
    batch = _fitted_batch(members=3)
    for seed in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(InvalidData, match="seeds for a batch of 3"):
            boot_interval(*batch, 4, BootstrapConfig(B=100, seed=seed), 0.05)
    with pytest.raises(InvalidData, match="seeds for a batch of 1"):
        boot_interval(*_members(batch, 0), 4, BootstrapConfig(B=100, seed=(1, 2)),
                      0.05)


def test_boot_batch_residual_check_scales_per_member():
    # member 0's series is 1e6 times larger; member 2's panel differs from
    # its fitted one by 1e-4 in one month. Scaled by the largest |y| of the
    # whole batch the tolerance would let member 2 through
    jf, sf, mp, sp, fut = _fitted_batch(members=3)
    y = mp.y.copy()
    y[0] *= 1e6
    mp = MonthlyPanel(mp.times, y, mp.z, mp.x)
    jf = fit_joint(mp, sp, 2, 1)[0]
    boot_interval(jf, sf, mp, sp, fut, 4, BootstrapConfig(B=100), 0.05)
    y = y.copy()
    y[2, 30] += 1e-4
    shifted = MonthlyPanel(mp.times, y, mp.z, mp.x)
    with pytest.raises(PanelMismatch, match=r"reproduce the fit residuals \(member 2\)"):
        boot_interval(jf, sf, shifted, sp, fut, 4, BootstrapConfig(B=100), 0.05)
    with pytest.raises(PanelMismatch, match=r"residuals$"):
        boot_interval(*_members((jf, sf, shifted, sp, fut), 2), 4,
                      BootstrapConfig(B=100), 0.05)


def test_boot_batch_rejects_mismatched_batch_shapes():
    jf, sf, mp, sp, fut = _fitted_batch(members=3)
    with pytest.raises(PanelMismatch, match="batch shapes differ"):
        boot_interval(jf, sf, member(mp, slice(0, 2)), member(sp, slice(0, 2)),
                      fut, 4, BootstrapConfig(B=100), 0.05)


def _duplicated_covariate_batch(members=3, i=1):
    """A batch whose member i has its two x columns equal, with that
    member's residuals rebuilt so that the panels reproduce them."""
    jf, sf, mp, sp, fut = _fitted_batch(members=members)
    x = mp.x.copy()
    x[i, :, 1] = x[i, :, 0]
    dup = MonthlyPanel(mp.times, mp.y, mp.z, x)
    X = _design(dup.y[i, :, None], jf.q1, (dup.z[i], dup.x[i], jf.d_hat[i]))
    residuals = jf.residuals.copy()
    residuals[i] = dup.y[i, jf.q1:] - X @ _joint_coef(member(jf, i))
    return dataclasses.replace(jf, residuals=residuals), sf, dup, sp, fut


def test_boot_batch_duplicated_covariate_names_member(caplog):
    # the batched twin of test_boot_duplicated_covariate_unstable: only
    # member 1's covariates are duplicated, and only it drops replicates
    jf, sf, dup, sp, fut = _duplicated_covariate_batch()
    with caplog.at_level(logging.DEBUG, logger="surrocast.intervals"):
        with pytest.raises(BootstrapUnstable,
                           match=r"120 of 120 bootstrap replicates failed to refit \(member 1\)"):
            boot_interval(jf, sf, dup, sp, fut, 4, BootstrapConfig(B=120), 0.05)
    assert "0, 120, 0 of 120 bootstrap replicates dropped" in caplog.text
    for i in (0, 2):
        boot_interval(*_members((jf, sf, dup, sp, fut), i), 4,
                      BootstrapConfig(B=120), 0.05)


@pytest.mark.parametrize("failing", [0, 3])
def test_boot_chunked_batch_logs_every_member_then_raises(failing, caplog):
    # at B = 500 a batch of 4 runs in two chunks of two members; every
    # chunk runs before the one log line, and the error names the failing
    # member whichever chunk it is in
    jf, sf, dup, sp, fut = _duplicated_covariate_batch(members=4, i=failing)
    counts = ["0"] * 4
    counts[failing] = "500"
    with caplog.at_level(logging.DEBUG, logger="surrocast.intervals"):
        with pytest.raises(BootstrapUnstable,
                           match=rf"500 of 500 bootstrap replicates failed to refit "
                                 rf"\(member {failing}\)"):
            boot_interval(jf, sf, dup, sp, fut, 4, BootstrapConfig(B=500), 0.05)
    assert intervals._BOOT_COLUMNS // 500 == 2
    assert f"{', '.join(counts)} of 500 bootstrap replicates dropped" in caplog.text


def test_boot_working_set_is_one_chunk():
    # a call's traced peak is that of one chunk of members, not of the batch
    def peak(members):
        batch = _fitted_batch(members=members)
        cfg = BootstrapConfig(B=500, seed=tuple(range(members)))
        tracemalloc.start()
        try:
            boot_interval(*batch, 8, cfg, 0.05)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) <= 1.25 * peak(2)


# ---------------------------------------------------------------------------
# bj_interval_estimated
# ---------------------------------------------------------------------------

def _joint_coef(jf):
    return np.concatenate([jf.alpha_hat, jf.theta_hat, jf.delta_hat,
                           jf.gamma_hat])


def _with_coef(jf, coef):
    q1, d, p = jf.q1, len(jf.theta_hat), len(jf.delta_hat)
    return dataclasses.replace(
        jf, alpha_hat=coef[:q1], theta_hat=coef[q1:q1 + d],
        delta_hat=coef[q1 + d:q1 + d + p], gamma_hat=coef[q1 + d + p:])


def _gradient(jf, sf, mp, sp, fut, H):
    """Joint point forecasts and their gradient, formed as
    bj_interval_estimated forms them."""
    n = mp.T - jf.q1
    rows = _fitted_design(jf, sf, mp, sp, fut, H)[1]
    point = forecast_joint(jf, sf, mp, sp, fut, H).point
    return point, _joint_forecast_gradient(jf, mp.y, point, rows[..., n:, :])


def test_estimated_gradient_matches_finite_difference():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    H, eps = 8, 1e-6
    point, grad = _gradient(jf, sf, mp, sp, fut, H)
    coef = _joint_coef(jf)
    fd = np.empty_like(grad)
    for k in range(coef.shape[0]):
        step = np.zeros_like(coef)
        step[k] = eps
        up = forecast_joint(_with_coef(jf, coef + step), sf, mp, sp, fut, H)
        down = forecast_joint(_with_coef(jf, coef - step), sf, mp, sp, fut, H)
        fd[:, k] = (up.point - down.point) / (2 * eps)
    np.testing.assert_array_equal(
        point, forecast_joint(jf, sf, mp, sp, fut, H).point)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


def _loop_gradient(jf, sf, mp, sp, fut, H):
    """The former gradient loop: g_h = r_h + sum_l alpha_l g_{h-l}, by row."""
    q1 = jf.q1
    point = forecast_joint(jf, sf, mp, sp, fut, H).point
    cov_rows = np.hstack(_split_future_rows(fut, H, sf, sp))
    path = np.concatenate([mp.y[-q1:], point])
    grad = np.empty((H, q1 + cov_rows.shape[1]))
    for h in range(H):
        grad[h, :q1] = path[h:q1 + h][::-1]
        grad[h, q1:] = cov_rows[h]
        for l in range(1, min(q1, h) + 1):
            grad[h] += jf.alpha_hat[l - 1] * grad[h - l]
    return grad


@pytest.mark.parametrize("q1", [1, 2, 4])
def test_estimated_gradient_matches_loop_oracle(q1):
    # the batched recursion adds r_h after the lag sum, the loop before it;
    # the bound is relative to each column's largest entry, because an entry
    # that cancels to 1e-4 of it keeps only the column's absolute rounding
    for seed in range(3):
        mp, sp = generate(benchmark_dgp(0.3, T=60), (23, seed))
        mp_tr, sp_tr = mp.slice(0, 48), sp.slice(0, 48)
        jf, sf = fit_joint(mp_tr, sp_tr, q1, 1)
        fut = FutureExogenous(mp.z[48:], mp.x[48:], sp.ys[48:])
        _, grad = _gradient(jf, sf, mp_tr, sp_tr, fut, 12)
        ref = _loop_gradient(jf, sf, mp_tr, sp_tr, fut, 12)
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(grad - ref) <= 1e-13 * scale)


def test_estimated_one_step_is_ols_prediction_interval():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    q1 = jf.q1
    d_hat = sp.ys[1:] - sp.ys[:-1] @ sf.A_hat[0].T  # q2 = 1
    X = np.column_stack([mp.y[1:-1], mp.y[:-2], mp.z[q1:], mp.x[q1:],
                         d_hat[q1 - 1:]])
    n, m = X.shape
    s = np.sqrt(np.sum(jf.residuals**2) / (n - m))
    w = np.concatenate([[mp.y[-1], mp.y[-2]], fut.z_future[0], fut.x_future[0],
                        fut.ys_future[0] - sf.A_hat[0] @ sp.ys[-1]])
    half = 1.959963984540054 * s * np.sqrt(
        1.0 + w @ np.linalg.solve(X.T @ X, w))
    iv = bj_interval_estimated(jf, sf, mp, sp, fut, 1, 0.05)
    assert iv.kind == "bj_estimated"
    assert iv.upper[0] - iv.lower[0] == pytest.approx(2 * half, rel=1e-9)


def test_estimated_wider_than_plug_in():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    fc = forecast_joint(jf, sf, mp, sp, fut, 8)
    iv = bj_interval_estimated(jf, sf, mp, sp, fut, 8, 0.05)
    plug = bj_interval(fc, jf, 0.05)
    np.testing.assert_allclose((iv.lower + iv.upper) / 2, fc.point, atol=1e-12)
    assert np.all(iv.length > plug.length)


def test_estimated_rejects_mispaired_panels():
    jf, sf, mp, sp, fut, _ = _fitted_setup()
    # same shape, different draw: the residuals are not reproduced
    mp_o, sp_o = generate(benchmark_dgp(0.3, T=60), 5)
    with pytest.raises(PanelMismatch):
        bj_interval_estimated(jf, sf, mp_o.slice(0, mp.T),
                              sp_o.slice(0, sp.T), fut, 4, 0.05)
    # a history longer than the fitted sample
    mp_l, sp_l = generate(benchmark_dgp(0.3, T=60), 4)
    with pytest.raises(PanelMismatch):
        bj_interval_estimated(jf, sf, mp_l, sp_l, fut, 4, 0.05)
    # target and surrogate panels of different lengths
    with pytest.raises(PanelMismatch):
        bj_interval_estimated(jf, sf, mp, sp_l, fut, 4, 0.05)


def _former_estimated_interval(jf, sf, mp, sp, fut, H, alpha):
    """The former one-series bj_interval_estimated: its own QR of X and a
    triangular solve of R'u = g, so that u'u = g'(X'X)^{-1}g."""
    X = _fitted_design(jf, sf, mp, sp)[0]
    n, m = X.shape
    s2 = float(jf.residuals @ jf.residuals) / (n - m)
    point, grad = _gradient(jf, sf, mp, sp, fut, H)
    u = np.linalg.solve(np.linalg.qr(X, mode="r").T, grad.T)
    half = _z(alpha) * np.sqrt(
        s2 * (_psi_weights(jf.alpha_hat, H)**2 + np.sum(u**2, axis=0)))
    return point - half, point + half


@pytest.mark.parametrize("q1", [1, 2, 4])
@pytest.mark.parametrize("H", [1, 8])
def test_estimated_batch_matches_one_series_calls(q1, H):
    # a batched call gives each member the bits of its own one-series call,
    # and those stay within 1e-12 of the former QR-and-solve form
    batch = _fitted_batch(q1=q1, H=H)
    iv = bj_interval_estimated(*batch, H, 0.05)
    point, grad = _gradient(*batch, H)
    assert iv.lower.shape == (4, H) and grad.shape == (4, H, q1 + 5)
    for i in range(4):
        one = _members(batch, i)
        iv_one = bj_interval_estimated(*one, H, 0.05)
        point_one, grad_one = _gradient(*one, H)
        assert iv.lower[i].tobytes() == iv_one.lower.tobytes()
        assert iv.upper[i].tobytes() == iv_one.upper.tobytes()
        assert point[i].tobytes() == point_one.tobytes()
        assert grad[i].tobytes() == grad_one.tobytes()
        former = _former_estimated_interval(*one, H, 0.05)
        for got, want in zip((iv_one.lower, iv_one.upper), former):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_estimated_rank_deficient_design_raises():
    # the rebuilt design of member 1 fails the kernel's rank rule, as its
    # fit would have
    with pytest.raises(RankDeficient):
        bj_interval_estimated(*_duplicated_covariate_batch(), 4, 0.05)


def test_estimated_needs_residual_degrees_of_freedom():
    # T - q1 = 7 rows for 7 coefficients: the fit is exact, s^2 is undefined
    mp, sp = generate(benchmark_dgp(0.3, T=12), 6)
    mp, sp = mp.slice(0, 9), sp.slice(0, 9)
    jf, sf = fit_joint(mp, sp, 2, 1)
    fut = FutureExogenous(np.zeros((1, 0)), np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(InsufficientSample):
        bj_interval_estimated(jf, sf, mp, sp, fut, 1, 0.05)


# ---------------------------------------------------------------------------
# coverage properties at moderate sample size
# ---------------------------------------------------------------------------

def _per_h_coverage(interval_kind, T=200, Q=500, H=5, rho=0.2, B=500):
    seeds = [np.random.SeedSequence((31, rep)) for rep in range(Q)]
    mp, sp = generate(benchmark_dgp(rho, T=T + H), seeds)
    mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
    jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
    fut = FutureExogenous(mp.z[:, T:], mp.x[:, T:], sp.ys[:, T:])
    if interval_kind == "bj":
        iv = bj_interval(forecast_joint(jf, sf, mp_tr, sp_tr, fut, H), jf, 0.05)
        bounds = (iv.lower, iv.upper)
    elif interval_kind == "bj_estimated":
        iv = bj_interval_estimated(jf, sf, mp_tr, sp_tr, fut, H, 0.05)
        bounds = (iv.lower, iv.upper)
    else:
        # one call, each member with its own seed, as the harness runs the
        # bootstrap of a cell
        iv = boot_interval(jf, sf, mp_tr, sp_tr, fut, H,
                           BootstrapConfig(B=B, seed=tuple(range(Q))), 0.05)
        bounds = (iv.lower, iv.upper)
    y_test = mp.y[:, T:]
    return np.mean((y_test >= bounds[0]) & (y_test <= bounds[1]), axis=0)


def test_bj_coverage_moderate_sample():
    coverage = _per_h_coverage("bj")
    assert np.all(coverage >= 0.91) and np.all(coverage <= 0.98)


def test_bj_estimated_coverage_moderate_sample():
    coverage = _per_h_coverage("bj_estimated")
    assert np.all(coverage >= 0.91) and np.all(coverage <= 0.98)


def test_boot_coverage_moderate_sample():
    coverage = _per_h_coverage("boot")
    assert np.all(coverage >= 0.89) and np.all(coverage <= 0.98)


def test_joint_bj_shorter_than_ar_baseline():
    # the surrogate-augmented interval should be far tighter when errors
    # correlate and the covariate signal dominates the target variance
    ratios = []
    for rep in range(40):
        mp, sp = generate(benchmark_dgp(0.2, T=205), (41, rep))
        T = 200
        mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
        jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
        fut = FutureExogenous(mp.z[T:], mp.x[T:], sp.ys[T:])
        fc = forecast_joint(jf, sf, mp_tr, sp_tr, fut, 5)
        ar = fit_arx(mp_tr.y, 2)
        fc_ar = forecast_arx(ar, mp_tr.y, None, 5)
        iv = bj_interval(fc, jf, 0.05)
        iv_ar = bj_interval(fc_ar, ar, 0.05)
        ratios.append(iv.length.mean() / iv_ar.length.mean())
    assert np.mean(ratios) < 0.6


# ---------------------------------------------------------------------------
# efficiency_gain
# ---------------------------------------------------------------------------

def test_efficiency_no_correlation_no_gain():
    assert efficiency_gain(1.0, np.zeros(3), np.eye(3)) == pytest.approx(1.0)


def test_efficiency_closed_form_value():
    value = efficiency_gain(1.0, np.full(3, 0.4), np.eye(3))
    assert value == pytest.approx(1.92308, abs=5e-6)


def test_efficiency_boundary_not_positive_definite():
    with pytest.raises(InvalidCovariance):
        efficiency_gain(1.0, np.array([1.0]), np.eye(1))


def test_efficiency_monotone_in_rho():
    values = [efficiency_gain(1.0, np.full(3, r), np.eye(3))
              for r in np.linspace(0.0, 0.5, 11)]
    assert np.all(np.diff(values) >= 0)


def test_efficiency_rejects_non_pd_surrogate_cov():
    with pytest.raises(InvalidCovariance):
        efficiency_gain(1.0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("sigma_ts,sigma_ss", [
    (np.full(3, 0.4), np.eye(2)),                      # K of 3 against 2
    (np.full(2, 0.4), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    (np.full((1, 2), 0.4), np.eye(2)),                 # not a vector
])
def test_efficiency_rejects_mismatched_shapes(sigma_ts, sigma_ss):
    with pytest.raises(InvalidData):
        efficiency_gain(1.0, sigma_ts, sigma_ss)


@pytest.mark.parametrize("sigma_tt,sigma_ts,sigma_ss", [
    (math.nan, np.full(3, 0.4), np.eye(3)),
    (math.inf, np.full(3, 0.4), np.eye(3)),
    (1.0, np.array([0.4, math.nan, 0.4]), np.eye(3)),
    (1.0, np.full(3, 0.4), np.diag([1.0, math.inf, 1.0])),
])
def test_efficiency_rejects_non_finite_input(sigma_tt, sigma_ts, sigma_ss):
    with pytest.raises(InvalidData, match="finite"):
        efficiency_gain(sigma_tt, sigma_ts, sigma_ss)


# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------

def test_normal_quantile_within_8_ulp_of_scipy():
    # scipy.special.ndtri (which norm.ppf calls) is the oracle. The quantile
    # comes from statistics.NormalDist (Wichura's AS 241), whose largest
    # distance from ndtri on this sweep is 6 ulp
    from scipy.special import ndtri

    rng = np.random.default_rng(20261018)
    central = rng.uniform(0.136, 0.864, 4000)            # exp(-2) < p < 1 - exp(-2)
    tail = 10.0 ** rng.uniform(-13.8, -0.87, 4000)       # 2 <= sqrt(-2 log p) < 8
    far = 10.0 ** rng.uniform(-300.0, -13.9, 4000)       # sqrt(-2 log p) >= 8
    alphas = np.array([0.001, 0.01, 0.05, 0.1, 0.2, 0.32])
    edges = np.array([math.exp(-2.0), np.nextafter(math.exp(-2.0), 1.0),
                      math.exp(-32.0), np.nextafter(math.exp(-32.0), 0.0),
                      0.5, 5e-324])
    p = np.concatenate([central, tail, far, alphas / 2.0, edges])
    mine = np.array([_z(2.0 * v) for v in p])            # _z(alpha) is at p = alpha/2
    ref = -ndtri(p)
    assert np.all(np.abs(mine - ref) <= 8 * np.spacing(np.abs(ref)))
    assert _z(5e-324) == math.inf                        # alpha/2 underflows to 0
