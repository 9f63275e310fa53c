import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from surrocast import (
    ArxFit,
    BootstrapConfig,
    FutureExogenous,
    InsufficientSample,
    InvalidData,
    JointFit,
    Method,
    MissingExogenous,
    MonthlyPanel,
    PanelMismatch,
    SurrogateFit,
    benchmark_dgp,
    bj_interval_estimated,
    boot_interval,
    companion_weight,
    correlation_pursuit,
    fit_arx,
    fit_joint,
    fit_surrogate,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
    generate,
    select_ar_order,
)

from surrocast.estimation import _driver
from surrocast.forecasting import _ar_recursion

from conftest import build_panels, member


def _manual_joint(alpha, gamma, d_hat_rows=1, q2=1):
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    K = gamma.shape[0]
    return JointFit(
        alpha_hat=alpha,
        theta_hat=np.zeros(0),
        delta_hat=np.zeros(0),
        gamma_hat=gamma,
        sigma_e_hat=0.0,
        residuals=np.zeros(3),
        d_hat=np.zeros((d_hat_rows, K)),
        q1=alpha.shape[0],
        q2=q2,
    )


def _manual_surrogate(A, K=1):
    return SurrogateFit(A_hat=np.asarray(A, dtype=float).reshape(1, K, K),
                        B_hat=np.zeros((K, 0)), residuals=np.zeros((1, K)), q2=1)


def test_joint_all_zero_coefficients():
    mp, sp = build_panels([1.0, 2.0, 3.0], [[0.5], [0.4], [0.3]])
    jf = _manual_joint([0.0], [0.0], d_hat_rows=2)
    sf = _manual_surrogate([[0.0]])
    fut = FutureExogenous(np.zeros((2, 0)), np.zeros((2, 0)), np.array([[1.0], [2.0]]))
    fc = forecast_joint(jf, sf, mp, sp, fut, 2)
    np.testing.assert_array_equal(fc.point, [0.0, 0.0])


def test_joint_one_step_hand_value():
    # alpha=0.5, gamma=1, y_T=2, surrogate innovation at T+1 equal to 0.3
    mp, sp = build_panels([0.0, 2.0], [[0.1], [0.2]])
    jf = _manual_joint([0.5], [1.0])
    sf = _manual_surrogate([[0.0]])  # innovation = raw future surrogate value
    fut = FutureExogenous(np.zeros((1, 0)), np.zeros((1, 0)), np.array([[0.3]]))
    fc = forecast_joint(jf, sf, mp, sp, fut, 1)
    assert fc.point[0] == pytest.approx(1.3)


def test_joint_two_step_rolling_recursion():
    mp, sp = build_panels([0.0, 2.0], [[0.1], [0.2]])
    jf = _manual_joint([0.5], [1.0])
    sf = _manual_surrogate([[0.0]])
    fut = FutureExogenous(np.zeros((2, 0)), np.zeros((2, 0)),
                          np.array([[0.3], [0.0]]))
    fc = forecast_joint(jf, sf, mp, sp, fut, 2)
    np.testing.assert_allclose(fc.point, [1.3, 0.65])


def test_joint_missing_future_surrogate():
    mp, sp = build_panels([0.0, 2.0], [[0.1], [0.2]])
    jf = _manual_joint([0.5], [1.0])
    sf = _manual_surrogate([[0.0]])
    fut = FutureExogenous(np.zeros((1, 0)), np.zeros((1, 0)), np.array([[0.3]]))
    with pytest.raises(MissingExogenous):
        forecast_joint(jf, sf, mp, sp, fut, 2)


def test_arx_zero_coefficients():
    fit = ArxFit(alpha_hat=np.zeros(2), theta_hat=np.zeros(0),
                 beta_hat=np.zeros(0), sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=2)
    fc = forecast_arx(fit, np.array([5.0, 6.0, 7.0]), None, 3)
    np.testing.assert_array_equal(fc.point, np.zeros(3))


def test_arx_geometric_recursion():
    fit = ArxFit(alpha_hat=np.array([0.5]), theta_hat=np.zeros(0),
                 beta_hat=np.zeros(0), sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=1)
    fc = forecast_arx(fit, np.array([1.0, 4.0]), None, 3)
    np.testing.assert_allclose(fc.point, [2.0, 1.0, 0.5])


def test_arx_labels_ar_without_covariates():
    ar = ArxFit(alpha_hat=np.array([0.5]), theta_hat=np.zeros(0),
                beta_hat=np.zeros(0), sigma_e_hat=1.0, residuals=np.zeros(3), q1=1)
    assert forecast_arx(ar, np.ones(3), None, 2).method is Method.AR
    arx = ArxFit(alpha_hat=np.array([0.5]), theta_hat=np.zeros(0),
                 beta_hat=np.array([1.0]), sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=1)
    fut = FutureExogenous(np.zeros((2, 0)), np.ones((2, 1)), np.zeros((2, 0)))
    assert forecast_arx(arx, np.ones(3), fut, 2).method is Method.ARX


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("d,p", [(0, 0), (0, 2), (1, 0), (2, 3)])
def test_driver_equals_hand_written_sums(K, d, p):
    # rows @ coef, one product, against the block sums z @ theta + x @ delta
    # (+ d_hat @ gamma) that the forecasts and the bootstrap used to write
    # out: the two differ only in the order of the sum, so by at most the
    # rounding bound 2 gamma_m sum_i |r_i c_i| of two m-term dot products
    rng = np.random.default_rng(10 * K + d + p)
    n, Q = 40, 3
    z, x, dh = (rng.standard_normal((Q, n, w)) for w in (d, p, K))
    theta, delta, gamma = (rng.standard_normal((Q, w)) for w in (d, p, K))
    jf = JointFit(alpha_hat=np.zeros((Q, 1)), theta_hat=theta, delta_hat=delta,
                  gamma_hat=gamma, sigma_e_hat=np.ones(Q), residuals=np.zeros((Q, 3)),
                  d_hat=dh, q1=1, q2=1)
    arx = ArxFit(alpha_hat=np.zeros((Q, 1)), theta_hat=theta, beta_hat=delta,
                 sigma_e_hat=np.ones(Q), residuals=np.zeros((Q, 3)), q1=1)

    def block_sum(blocks, coefs):
        return sum((b @ c[..., None])[..., 0] for b, c in zip(blocks, coefs))

    for fit, blocks, coefs in ((jf, (z, x, dh), (theta, delta, gamma)),
                               (arx, (z, x), (theta, delta))):
        rows = np.concatenate(blocks, axis=-1)
        coef = np.concatenate(coefs, axis=-1)
        got = _driver(rows, fit)
        m = rows.shape[-1]
        scale = (np.abs(rows) @ np.abs(coef)[..., None])[..., 0]
        bound = 2 * m * np.finfo(float).eps * scale
        assert np.all(np.abs(got - block_sum(blocks, coefs)) <= bound)
        # each member keeps the bits of its one-series call
        for i in range(Q):
            assert _driver(rows[i], member(fit, i)).tobytes() == got[i].tobytes()


@pytest.fixture(scope="module")
def horizon_calls():
    """Every public entry point that takes a forecast horizon, as a
    function of H alone."""
    mp, sp = generate(benchmark_dgp(0.3, T=40), 2)
    mp_tr, sp_tr = mp.slice(0, 32), sp.slice(0, 32)
    jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
    arx = fit_arx(mp_tr.y, 2, x=mp_tr.x)
    fut = FutureExogenous(mp.z[32:], mp.x[32:], sp.ys[32:])
    joint = (jf, sf, mp_tr, sp_tr, fut)
    return {
        "forecast_joint": lambda H: forecast_joint(*joint, H),
        "forecast_arx": lambda H: forecast_arx(arx, mp_tr.y, fut, H),
        "forecast_rw": lambda H: forecast_rw(mp_tr.y, H),
        "forecast_ave": lambda H: forecast_ave(mp_tr.y, H),
        "bj_interval_estimated": lambda H: bj_interval_estimated(*joint, H, 0.05),
        "boot_interval": lambda H: boot_interval(*joint, H, BootstrapConfig(B=100),
                                                 0.05),
        "companion_weight": lambda H: companion_weight(jf.alpha_hat, H),
    }


_BAD_COUNTS = [0, -1, 2.0, np.float64(2.0), True, "2", None]


@pytest.mark.parametrize("H", _BAD_COUNTS)
@pytest.mark.parametrize("entry", ["forecast_joint", "forecast_arx", "forecast_rw",
                                   "forecast_ave", "bj_interval_estimated",
                                   "boot_interval", "companion_weight"])
def test_every_forecast_rejects_a_bad_horizon(horizon_calls, entry, H):
    with pytest.raises(InvalidData, match="[Hh] must be"):
        horizon_calls[entry](H)
    horizon_calls[entry](np.int64(2))


@pytest.fixture(scope="module")
def order_calls():
    """Every public entry point that takes a lag order, as a function of
    that order alone, with the order's name."""
    mp, sp = generate(benchmark_dgp(0.3, T=40), 2)
    return {
        "select_ar_order": ("q_max", lambda q: select_ar_order(mp.y, q)),
        "correlation_pursuit": ("q_max", lambda q: correlation_pursuit(mp.y, mp.x, q)),
        "fit_arx": ("q1", lambda q: fit_arx(mp.y, q)),
        "fit_surrogate": ("q2", lambda q: fit_surrogate(sp, mp.x, q)),
        "fit_joint-q1": ("q1", lambda q: fit_joint(mp, sp, q, 1)),
        "fit_joint-q2": ("q2", lambda q: fit_joint(mp, sp, 2, q)),
    }


@pytest.mark.parametrize("q", _BAD_COUNTS)
@pytest.mark.parametrize("entry", ["select_ar_order", "correlation_pursuit", "fit_arx",
                                   "fit_surrogate", "fit_joint-q1", "fit_joint-q2"])
def test_every_fit_rejects_a_bad_lag_order(order_calls, entry, q):
    name, call = order_calls[entry]
    with pytest.raises(InvalidData, match=f"^{name} must be"):
        call(q)
    call(np.int64(2))


def test_future_block_rejects_a_scalar():
    with pytest.raises(InvalidData, match="z_future must be an"):
        FutureExogenous(np.float64(1.0), np.zeros((2, 0)), np.zeros((2, 1)))


def test_joint_rejects_panels_with_other_covariates_than_the_fit():
    # the history's covariate widths define the rows; a fit of other widths
    # is a PanelMismatch, not a shape error inside the driver's product
    mp, sp = generate(benchmark_dgp(0.3, T=40), 3)
    jf, sf = fit_joint(mp.slice(0, 32), sp.slice(0, 32), 2, 1)
    wide = MonthlyPanel(mp.times, mp.y, mp.z, np.hstack([mp.x, mp.x[:, :1]]))
    fut = FutureExogenous(wide.z[32:], wide.x[32:], sp.ys[32:])
    with pytest.raises(PanelMismatch, match="6 covariates for a fit of 5"):
        forecast_joint(jf, sf, wide.slice(0, 32), sp.slice(0, 32), fut, 4)


def test_history_shorter_than_ar_order_rejected():
    # one month of history cannot supply the two lags of an AR(2)
    fit = ArxFit(alpha_hat=np.array([0.5, 0.3]), theta_hat=np.zeros(0),
                 beta_hat=np.zeros(0), sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=2)
    with pytest.raises(InsufficientSample, match="q1=2"):
        forecast_arx(fit, np.array([2.0]), None, 2)
    mp, sp = build_panels([2.0], [[0.1]])
    fut = FutureExogenous(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 1)))
    with pytest.raises(InsufficientSample, match="q1=2"):
        forecast_joint(_manual_joint([0.5, 0.3], [1.0]),
                       _manual_surrogate([[0.0]]), mp, sp, fut, 2)


def test_arx_equals_joint_when_gamma_zero():
    mp, sp = generate(benchmark_dgp(0.3, T=80), 5)
    jf, sf = fit_joint(mp, sp, 2, 1)
    jf_zero = _manual_joint(jf.alpha_hat, np.zeros(3), d_hat_rows=len(jf.d_hat))
    object.__setattr__(jf_zero, "delta_hat", jf.delta_hat)
    arx = ArxFit(alpha_hat=jf.alpha_hat, theta_hat=np.zeros(0),
                 beta_hat=jf.delta_hat, sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=2)
    H = 4
    fut = FutureExogenous(np.zeros((H, 0)), np.tile(mp.x[-1], (H, 1)),
                          np.tile(sp.ys[-1], (H, 1)))
    fc_joint = forecast_joint(jf_zero, sf, mp, sp, fut, H)
    fc_arx = forecast_arx(arx, mp.y, fut, H)
    np.testing.assert_allclose(fc_joint.point, fc_arx.point, atol=1e-12)


def test_rw_constant_forecast():
    fc = forecast_rw(np.array([0.3, -1.0, 1.7]), 4)
    np.testing.assert_array_equal(fc.point, [1.7, 1.7, 1.7, 1.7])
    assert fc.method is Method.RW


def test_rw_depends_only_on_last_value(rng):
    y = rng.standard_normal(30)
    shuffled = y.copy()
    rng.shuffle(shuffled[:-1])
    np.testing.assert_array_equal(forecast_rw(y, 3).point,
                                  forecast_rw(shuffled, 3).point)


def test_ave_means_of_last_h():
    fc = forecast_ave(np.array([0.0, 1.0, 3.0]), 2)
    np.testing.assert_allclose(fc.point, [3.0, 2.0])


def test_ave_constant_history():
    fc = forecast_ave(np.full(10, 2.5), 5)
    np.testing.assert_allclose(fc.point, 2.5)


def test_ave_needs_enough_history():
    with pytest.raises(InsufficientSample):
        forecast_ave(np.array([1.0]), 2)


def test_rolling_consistency_arx():
    # H-step recursion equals repeated 1-step with forecasts appended
    fit = ArxFit(alpha_hat=np.array([0.6, -0.25]), theta_hat=np.zeros(0),
                 beta_hat=np.array([0.4]), sigma_e_hat=1.0, residuals=np.zeros(3),
                 q1=2)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(12)
    x_fut = rng.standard_normal((6, 1))
    full = forecast_arx(fit, y, FutureExogenous(np.zeros((6, 0)), x_fut,
                                                np.zeros((6, 0))), 6).point
    hist = y.copy()
    stepwise = []
    for h in range(6):
        fut = FutureExogenous(np.zeros((1, 0)), x_fut[h:h + 1], np.zeros((1, 0)))
        nxt = forecast_arx(fit, hist, fut, 1).point[0]
        stepwise.append(nxt)
        hist = np.append(hist, nxt)
    np.testing.assert_allclose(full, stepwise, atol=1e-12)


def _dot_loop_recursion(alpha, history, driver):
    """One series rolled forward with a dot product per step."""
    q1, H = len(alpha), len(driver)
    buf = np.concatenate([history[-q1:], np.zeros(H)]) if q1 else np.zeros(H)
    for h in range(H):
        buf[q1 + h] = alpha @ buf[h:q1 + h][::-1] + driver[h]
    return buf[q1:]


def test_ar_recursion_one_series_byte_identical_to_dot_loop(rng):
    for _ in range(500):
        q1, H = int(rng.integers(0, 6)), int(rng.integers(1, 16))
        alpha = rng.uniform(-0.6, 0.6, size=q1)
        history = rng.normal(size=q1 + int(rng.integers(0, 5))) * 10.0
        driver = rng.normal(size=H) * 10.0 ** rng.uniform(-3, 3)
        got = _ar_recursion(alpha, history, driver)
        assert got.tobytes() == _dot_loop_recursion(alpha, history,
                                                    driver).tobytes()


@pytest.mark.parametrize("q1", [0, 1, 2, 4])
def test_ar_recursion_signed_zeros_byte_identical_to_dot_loop(q1):
    # the lag sum starts from +0.0, as a dot product does, so a month whose
    # lag terms and driver are all -0.0 comes out +0.0 on both paths
    driver = np.array([-0.0, 0.0, -0.0, -0.0, 1.5, -0.0, -0.0])
    for lag, hist in ((0.5, -0.0), (-0.5, 0.0), (-0.0, -0.0), (0.0, 1.0)):
        alpha, history = np.full(q1, lag), np.full(q1 + 1, hist)
        want = _dot_loop_recursion(alpha, history, driver)
        assert _ar_recursion(alpha, history, driver).tobytes() == want.tobytes()
        # as a batch of three, the rows of a (months, 3) buffer
        batch = _ar_recursion(alpha, history, np.tile(driver, (3, 1)))
        assert all(row.tobytes() == want.tobytes() for row in batch)


def test_ar_recursion_batch_rows_equal_single_series(rng):
    B, q1, H = 30, 3, 9
    alpha = rng.uniform(-0.4, 0.4, size=(B, q1))
    history = rng.normal(size=(B, 7))
    driver = rng.normal(size=(B, H))
    batch = _ar_recursion(alpha, history, driver)
    shared = _ar_recursion(alpha[0], history, driver)
    assert batch.shape == shared.shape == (B, H)
    for b in range(B):
        one = _ar_recursion(alpha[b], history[b], driver[b])
        assert batch[b].tobytes() == one.tobytes()
        assert shared[b].tobytes() == _ar_recursion(alpha[0], history[b],
                                                    driver[b]).tobytes()


def _floats(draw, shape, bound):
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(
        -bound, bound, allow_nan=False, allow_infinity=False)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), q1=st.integers(0, 5), H=st.integers(1, 20),
       B=st.integers(1, 6), extra=st.integers(0, 4),
       shared_alpha=st.booleans(), shared_history=st.booleans())
def test_ar_recursion_batch_property(data, q1, H, B, extra, shared_alpha,
                                     shared_history):
    # every batch row is the 1-D call on that row, and the 1-D call is the
    # dot-product loop, byte for byte; a (q1,) alpha or history is shared
    alpha = _floats(data.draw, (q1,) if shared_alpha else (B, q1), 0.9)
    n_hist = q1 + extra
    history = _floats(data.draw, (n_hist,) if shared_history else (B, n_hist),
                      1e3)
    driver = _floats(data.draw, (B, H), 1e3)
    batch = _ar_recursion(alpha, history, driver)
    assert batch.shape == (B, H)
    for b in range(B):
        a = alpha if shared_alpha else alpha[b]
        hist = history if shared_history else history[b]
        one = _ar_recursion(a, hist, driver[b])
        assert batch[b].tobytes() == one.tobytes()
        assert one.tobytes() == _dot_loop_recursion(a, hist, driver[b]).tobytes()


def test_rolling_consistency_joint():
    mp, sp = generate(benchmark_dgp(0.3, T=46), 8)
    T_train = 40
    mp_tr, sp_tr = mp.slice(0, T_train), sp.slice(0, T_train)
    jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
    H = 6
    fut = FutureExogenous(mp.z[T_train:], mp.x[T_train:], sp.ys[T_train:])
    full = forecast_joint(jf, sf, mp_tr, sp_tr, fut, H).point
    stepwise = []
    for h in range(H):
        mp_h = mp.slice(0, T_train + h)
        sp_h = sp.slice(0, T_train + h)
        y_aug = mp_h.y.copy()
        y_aug[T_train:] = stepwise  # pseudo-history from earlier forecasts
        mp_h = type(mp_h)(mp_h.times, y_aug, mp_h.z, mp_h.x)
        fut_h = FutureExogenous(mp.z[T_train + h: T_train + h + 1],
                                mp.x[T_train + h: T_train + h + 1],
                                sp.ys[T_train + h: T_train + h + 1])
        stepwise.append(forecast_joint(jf, sf, mp_h, sp_h, fut_h, 1).point[0])
    np.testing.assert_allclose(full, stepwise, atol=1e-12)


def test_joint_forecast_asymptotically_unbiased():
    # at large T the mean one-step error over fresh draws is within MC noise
    Q, T = 500, 2000
    errors = np.empty(Q)
    for rep in range(Q):
        mp, sp = generate(benchmark_dgp(0.3, T=T + 1), (17, rep))
        mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
        jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
        fut = FutureExogenous(mp.z[T:], mp.x[T:], sp.ys[T:])
        fc = forecast_joint(jf, sf, mp_tr, sp_tr, fut, 1)
        errors[rep] = fc.point[0] - mp.y[T]
    mc_se = errors.std(ddof=1) / np.sqrt(Q)
    assert abs(errors.mean()) < 3.0 * mc_se
