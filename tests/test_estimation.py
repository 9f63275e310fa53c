import ast
from pathlib import Path

import numpy as np
import pytest

import surrocast
from surrocast import (
    InsufficientSample,
    InvalidData,
    PanelMismatch,
    RankDeficient,
    SurrogatePanel,
    benchmark_dgp,
    companion_matrix,
    d_residual_matrix,
    fit_arx,
    fit_joint,
    fit_joint_step2,
    fit_surrogate,
    generate,
    joint_fit_from_dict,
    joint_fit_to_dict,
    residual_pairs,
    select_ar_order,
)
from surrocast.estimation import SurrogateFit, _design, _joint_rows, _solve
from surrocast.forecasting import FutureExogenous
from surrocast.simulation import Ar1Spec, DgpSpec

from conftest import build_panels, member


# ---------------------------------------------------------------------------
# _solve: the least-squares kernel every fit runs
# ---------------------------------------------------------------------------

def _coef(design, rhs):
    """_solve's coefficients (..., m, r) for [design | rhs], rhs (..., n, r)."""
    return _solve(np.concatenate([design, rhs], axis=-1), design.shape[-1])[0]


def test_ols_identity_design():
    coef = _coef(np.eye(3), np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_allclose(coef[:, 0], [1.0, 2.0, 3.0])


def test_ols_column_of_ones_gives_mean():
    coef = _coef(np.ones((4, 1)), np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert coef[0, 0] == pytest.approx(2.5)


def test_ols_duplicated_column_rank_deficient(rng):
    col = rng.standard_normal(20)
    design = np.column_stack([col, col, rng.standard_normal(20)])
    with pytest.raises(RankDeficient) as exc:
        _coef(design, rng.standard_normal((20, 1)))
    assert set(exc.value.columns) >= {0, 1}


def test_ols_batch_member_is_its_own_solve(rng):
    # a stacked solve treats each design on its own: same bits as alone,
    # for one right-hand side per design and for several
    design = rng.standard_normal((9, 50, 7))
    for response in (rng.standard_normal((9, 50, 1)), rng.standard_normal((9, 50, 3))):
        coef = _coef(design, response)
        assert coef.shape == (9, 7) + response.shape[2:]
        for i in range(9):
            assert coef[i].tobytes() == _coef(design[i], response[i]).tobytes()
        ref = np.linalg.lstsq(design[0], response[0], rcond=None)[0]
        np.testing.assert_allclose(coef[0], ref, rtol=1e-12, atol=1e-13)


def test_non_finite_design_raises_invalid_data(rng):
    # a NaN or Inf in the design is told apart from a singular design on the
    # kernel's SVD path, for the member that holds it
    y = rng.standard_normal((3, 40))
    y[1, 20] = np.nan
    for fit in (lambda y: fit_arx(y, 2), lambda y: select_ar_order(y, 3)):
        with pytest.raises(InvalidData, match=r"NaN or Inf \(member 1\)"):
            fit(y)
        with pytest.raises(InvalidData, match=r"NaN or Inf$"):
            fit(y[1])
        fit(y[[0, 2]])
    design = rng.standard_normal((2, 3, 30, 4))
    design[1, 2, 5, 1] = np.inf
    with pytest.raises(InvalidData, match=r"NaN or Inf \(member 1, 2\)"):
        _coef(design, rng.standard_normal((2, 3, 30, 1)))


def test_non_finite_response_raises_invalid_data(rng):
    # the last month is response only, never a lag, so its NaN passes the
    # rank rule on R and reaches only the coefficients; it must not fit
    y = rng.standard_normal((3, 40))
    y[1, -1] = np.nan
    for fit in (lambda y: fit_arx(y, 2), lambda y: select_ar_order(y, 3)):
        with pytest.raises(InvalidData, match=r"response holds NaN or Inf \(member 1\)"):
            fit(y)
        with pytest.raises(InvalidData, match=r"response holds NaN or Inf$"):
            fit(y[1])
        fit(y[[0, 2]])
    design = rng.standard_normal((2, 3, 30, 4))
    response = rng.standard_normal((2, 3, 30, 1))
    response[1, 2, 5] = -np.inf
    with pytest.raises(InvalidData, match=r"response holds NaN or Inf \(member 1, 2\)"):
        _coef(design, response)
    with pytest.raises(InvalidData, match=r"response holds NaN or Inf$"):
        _coef(design[1, 2], response[1, 2])


def test_ols_batch_rank_deficient_member(rng):
    design = rng.standard_normal((5, 20, 3))
    design[2, :, 2] = design[2, :, 0]
    with pytest.raises(RankDeficient) as many:
        _coef(design, rng.standard_normal((5, 20, 1)))
    with pytest.raises(RankDeficient) as one:
        _coef(design[2], rng.standard_normal((20, 1)))
    assert many.value.columns == one.value.columns == (0, 2)
    assert "rank 2 of 3" in str(many.value)


# ---------------------------------------------------------------------------
# _design: byte-for-byte the designs the fits used to stack by hand
# ---------------------------------------------------------------------------

def _hand_lags(series, q):
    cols = [series[q - l: len(series) - l] for l in range(1, q + 1)]
    return np.column_stack(cols) if series.ndim == 1 else np.hstack(cols)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("d,p", [(0, 0), (0, 2), (1, 0), (2, 3)])
def test_design_equals_hand_stacked_designs(q, K, d, p):
    rng = np.random.default_rng(100 * q + 10 * K + d + p)
    T, H = 30, 5
    y, ys = rng.standard_normal(T), rng.standard_normal((T, K))
    z, x = rng.standard_normal((T, d)), rng.standard_normal((T, p))
    # surrogate VARX and ARX
    assert _same_bytes(_design(ys, q, (x,)), np.hstack([_hand_lags(ys, q), x[q:]]))
    assert _same_bytes(_design(y[:, None], q, (z, x)),
                       np.hstack([_hand_lags(y, q), z[q:], x[q:]]))
    # AR order selection: the lag block alone
    assert _same_bytes(_design(y[:, None], q), np.column_stack(
        [y[q - l: T - l] for l in range(1, q + 1)]))
    for q2 in range(1, q + 1):  # joint model: d_hat starts at month q2
        d_hat = rng.standard_normal((T - q2, K))
        assert _same_bytes(_design(y[:, None], q, (z, x, d_hat)), np.hstack(
            [_hand_lags(y, q), z[q:], x[q:], d_hat[q - q2:]]))
    # forecast-gradient rows of T+1..T+H
    path = rng.standard_normal(q + H)
    fut = (rng.standard_normal((H, d)), rng.standard_normal((H, p)),
           rng.standard_normal((H, K)))
    assert _same_bytes(_design(path[:, None], q, fut),
                       np.hstack([_hand_lags(path, q), *fut]))


# ---------------------------------------------------------------------------
# companion_matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 4])
def test_companion_scalar_lags_equal_one_by_one_stack(rng, q):
    alpha = rng.uniform(-0.9, 0.9, size=q)
    A = companion_matrix(alpha)
    np.testing.assert_array_equal(A, companion_matrix(alpha[:, None, None]))
    np.testing.assert_array_equal(A[0], alpha)
    np.testing.assert_array_equal(A[1:, :-1], np.eye(q - 1))


def test_companion_of_lag_stack():
    A1, A2 = np.arange(4.0).reshape(2, 2), -np.arange(4.0).reshape(2, 2)
    np.testing.assert_array_equal(companion_matrix(np.stack([A1, A2])), [
        [0.0, 1.0, -0.0, -1.0],
        [2.0, 3.0, -2.0, -3.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    np.testing.assert_array_equal(companion_matrix(A1[None]), A1)


# ---------------------------------------------------------------------------
# fit_surrogate
# ---------------------------------------------------------------------------

def test_surrogate_exact_recovery_noiseless_transient():
    # y_t = 0.2 y_{t-1}, started at 1: a single decaying column, no noise.
    T = 30
    ys = 0.2 ** np.arange(T)
    _, sp = build_panels(np.zeros(T), ys.reshape(-1, 1))
    sf = fit_surrogate(sp, np.zeros((T, 0)), q2=1)
    assert abs(sf.A_hat[0, 0, 0] - 0.2) < 1e-10
    np.testing.assert_allclose(sf.residuals, 0.0, atol=1e-12)


def test_surrogate_recovery_benchmark_dgp():
    # average estimate over 20 seeds should sit within 0.05 of every entry
    A_sum = np.zeros((3, 3))
    B_sum = np.zeros((3, 2))
    n_seeds = 20
    for seed in range(n_seeds):
        mp, sp = generate(benchmark_dgp(0.2, T=5000), seed)
        sf = fit_surrogate(sp, mp.x, q2=1)
        A_sum += sf.A_hat[0]
        B_sum += sf.B_hat
    A_true = np.array([[0.2, 0.2, 0.2], [-0.2, -0.2, -0.2], [-0.1, -0.1, -0.1]])
    B_true = np.array([[0.1, 0.1], [-0.1, -0.1], [-0.3, -0.3]])
    assert np.max(np.abs(A_sum / n_seeds - A_true)) < 0.05
    assert np.max(np.abs(B_sum / n_seeds - B_true)) < 0.05


def test_surrogate_insufficient_sample():
    _, sp = build_panels(np.zeros(2), np.ones((2, 3)))
    with pytest.raises(InsufficientSample):
        fit_surrogate(sp, np.zeros((2, 0)), q2=1)


# ---------------------------------------------------------------------------
# d_residual_matrix
# ---------------------------------------------------------------------------

def test_d_residual_zero_lag_coefficients(rng):
    ys = rng.standard_normal((10, 2))
    np.testing.assert_array_equal(
        d_residual_matrix(ys, np.zeros((1, 2, 2)), 1), ys[1:])


@pytest.mark.parametrize("q2", [1, 2, 3])
def test_joint_rows_d_hat_over_joined_span_matches_split_calls(rng, q2):
    # one d_residual_matrix pass over [history | future] gives, month by
    # month, the bytes of separate passes over the history and over its
    # last q2 months followed by the future
    T, H, K = 50, 8, 3
    ys = rng.standard_normal((4, T + H, K))
    mp, _ = build_panels(np.zeros(T), np.zeros((T, K)),
                         x=rng.standard_normal((T, 2)))
    sp = SurrogatePanel(times=mp.times, ys=ys[:, :T])
    A = 0.3 * rng.standard_normal((4, q2, K, K))
    sf = SurrogateFit(A_hat=A, B_hat=np.zeros((4, K, 2)),
                      residuals=np.zeros((4, T - q2, K)), q2=q2)
    fut = FutureExogenous(np.zeros((H, 0)), rng.standard_normal((H, 2)), ys[:, T:])
    rows, d_hat = _joint_rows(mp, sp, sf, q2, fut, H)
    assert rows.shape == (4, T - q2 + H, 2 + K)
    history = d_residual_matrix(sp.ys, A, q2)
    future = d_residual_matrix(ys[:, T - q2:], A, q2)
    assert d_hat.tobytes() == np.concatenate([history, future], axis=1).tobytes()
    assert rows[..., 2:].tobytes() == d_hat.tobytes()
    assert (rows[0, :, :2] == np.concatenate([mp.x[q2:], fut.x_future])).all()


def test_d_residual_hand_value():
    ys = np.array([[2.0], [3.0]])
    d = d_residual_matrix(ys, np.full((1, 1, 1), 0.5), 1)
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(2.0)  # 3 - 0.5*2


# ---------------------------------------------------------------------------
# fit_joint
# ---------------------------------------------------------------------------

def test_joint_gamma_vanishes_without_error_correlation():
    gamma_sum = np.zeros(3)
    n_seeds = 20
    for seed in range(n_seeds):
        mp, sp = generate(benchmark_dgp(0.0, T=10000), 100 + seed)
        jf, _ = fit_joint(mp, sp, 2, 1)
        gamma_sum += jf.gamma_hat
    assert np.max(np.abs(gamma_sum / n_seeds)) < 0.05


def test_joint_alpha_recovery():
    alpha_sum = np.zeros(2)
    n_seeds = 20
    for seed in range(n_seeds):
        mp, sp = generate(benchmark_dgp(0.4, T=5000), 200 + seed)
        jf, _ = fit_joint(mp, sp, 2, 1)
        alpha_sum += jf.alpha_hat
    np.testing.assert_allclose(alpha_sum / n_seeds, [0.5, -0.3], atol=0.05)


def test_joint_reduces_residual_variance():
    mp, sp = generate(benchmark_dgp(0.4, T=5000), 7)
    jf, _ = fit_joint(mp, sp, 2, 1)
    arx = fit_arx(mp.y, 2, x=mp.x)
    # error variance drops by Sigma_ts Sigma_ss^{-1} Sigma_st = 3rho^2/(1+2rho)
    assert jf.sigma_e_hat**2 < 0.9 * arx.sigma_e_hat**2


def test_joint_sigma_denominator_is_t_minus_q1():
    mp, sp = generate(benchmark_dgp(0.2, T=200), 3)
    jf, _ = fit_joint(mp, sp, 2, 1)
    expected = np.sqrt(np.sum(jf.residuals**2) / (mp.T - 2))
    assert jf.sigma_e_hat == pytest.approx(expected, rel=1e-12)


def test_joint_orthogonality_invariant():
    mp, sp = generate(benchmark_dgp(0.3, T=400), 11)
    jf, sf = fit_joint(mp, sp, 2, 1)
    q1 = 2
    lags = np.column_stack([mp.y[q1 - l: mp.T - l] for l in range(1, q1 + 1)])
    design = np.hstack([lags, mp.z[q1:], mp.x[q1:], jf.d_hat[q1 - 1:]])
    np.testing.assert_allclose(design.T @ jf.residuals, 0.0, atol=1e-8)
    sur_design = np.hstack([sp.ys[:-1], mp.x[1:]])
    np.testing.assert_allclose(sur_design.T @ sf.residuals, 0.0, atol=1e-8)


def test_joint_x_scaling_invariance():
    mp, sp = generate(benchmark_dgp(0.3, T=300), 13)
    jf, sf = fit_joint(mp, sp, 2, 1)
    from surrocast import MonthlyPanel

    c = 37.5
    x_scaled = mp.x.copy()
    x_scaled[:, 1] *= c
    mp2 = MonthlyPanel(mp.times, mp.y, mp.z, x_scaled)
    jf2, sf2 = fit_joint(mp2, sp, 2, 1)
    assert jf2.delta_hat[1] == pytest.approx(jf.delta_hat[1] / c, rel=1e-8)
    np.testing.assert_allclose(sf2.B_hat[:, 1], sf.B_hat[:, 1] / c, rtol=1e-8)
    np.testing.assert_allclose(jf2.residuals, jf.residuals, atol=1e-8)
    assert jf2.sigma_e_hat == pytest.approx(jf.sigma_e_hat, abs=1e-10)


def test_joint_root_t_consistency_rate():
    # doubling T should shrink the median coefficient error by about sqrt(2)
    spec = benchmark_dgp(0.3, T=500)
    gamma_true = np.full(3, 0.3 / 1.6)  # equicorrelated errors at rho=0.3
    delta_true = spec.beta - spec.B_S.T @ gamma_true
    truth = np.concatenate([spec.alpha, delta_true, gamma_true])
    errs = {500: [], 1000: []}
    for seed in range(50):
        for T in (500, 1000):
            mp, sp = generate(benchmark_dgp(0.3, T=T), (seed, T))
            jf, _ = fit_joint(mp, sp, 2, 1)
            coef = np.concatenate([jf.alpha_hat, jf.delta_hat, jf.gamma_hat])
            errs[T].append(np.linalg.norm(coef - truth))
    ratio = np.median(errs[500]) / np.median(errs[1000])
    assert 1.2 <= ratio <= 1.7


def test_joint_misaligned_panels_rejected():
    from surrocast import PanelMismatch

    mp, sp = generate(benchmark_dgp(0.2, T=50), 1)
    sp_shifted = type(sp)(times=tuple(["2018-12"] + list(sp.times[:-1])),
                          ys=sp.ys)
    with pytest.raises(PanelMismatch):
        fit_joint(mp, sp_shifted, 2, 1)
    # a shorter surrogate panel is rejected before the surrogate step runs
    with pytest.raises(PanelMismatch):
        fit_joint(mp, sp.slice(0, 40), 2, 1)
    sf = fit_surrogate(sp, mp.x, 1)
    with pytest.raises(PanelMismatch):
        fit_joint_step2(mp, sp_shifted, sf, 2)


# ---------------------------------------------------------------------------
# residual_pairs
# ---------------------------------------------------------------------------

def _no_x_dgp(rho, T):
    return DgpSpec(
        alpha=np.array([0.5, -0.3]),
        beta=np.zeros(0),
        A_S=np.array([[[0.2, 0.2, 0.2], [-0.2, -0.2, -0.2], [-0.1, -0.1, -0.1]]]),
        B_S=np.zeros((3, 0)),
        Sigma=np.full((4, 4), rho) + (1 - rho) * np.eye(4),
        T=T,
        x_gen=Ar1Spec(0),
    )


def test_residual_pairs_cardinality():
    mp, sp = generate(_no_x_dgp(0.2, 7 + 2), 5)
    # K=3 here; check row count = T - q1 and width 1 + K
    jf, sf = fit_joint(mp, sp, 2, 1)
    pairs = residual_pairs(jf, sf)
    assert pairs.shape == (mp.T - 2, 4)


def test_residual_pairs_uncorrelated_when_independent():
    mp, sp = generate(_no_x_dgp(0.0, 10000), 21)
    jf, sf = fit_joint(mp, sp, 2, 1)
    pairs = residual_pairs(jf, sf)
    for k in range(1, 4):
        r = np.corrcoef(pairs[:, 0], pairs[:, k])[0, 1]
        assert abs(r) < 0.05


def test_residual_pairs_correlated_dgp():
    mp, sp = generate(_no_x_dgp(0.4, 5000), 22)
    jf, sf = fit_joint(mp, sp, 2, 1)
    pairs = residual_pairs(jf, sf)
    for k in range(1, 4):
        r = np.corrcoef(pairs[:, 0], pairs[:, k])[0, 1]
        assert abs(r) > 0.3


def _batched_fit(q1, q2, members=3):
    seeds = [np.random.SeedSequence((13, i)) for i in range(members)]
    mp, sp = generate(benchmark_dgp(0.3, T=40), seeds)
    return fit_joint(mp, sp, q1, q2)


@pytest.mark.parametrize("q1, q2", [(2, 1), (2, 2), (4, 1)])
def test_residual_pairs_batch_matches_one_series_calls(q1, q2):
    jf, sf = _batched_fit(q1, q2)
    pairs = residual_pairs(jf, sf)
    assert pairs.shape == (3, 40 - q1, 4)
    for i in range(3):
        one = residual_pairs(member(jf, i), member(sf, i))
        assert pairs[i].tobytes() == one.tobytes()


def test_residual_pairs_rejects_fits_of_different_lengths():
    jf = fit_joint(*generate(benchmark_dgp(0.3, T=40), 1), 2, 1)[0]
    sf = fit_joint(*generate(benchmark_dgp(0.3, T=41), 1), 2, 1)[1]
    with pytest.raises(PanelMismatch, match="equal length"):
        residual_pairs(jf, sf)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_fit_document_rejects_batched_fit():
    with pytest.raises(InvalidData, match="one series"):
        joint_fit_to_dict(*_batched_fit(2, 1))


def test_fit_document_roundtrip():
    mp, sp = generate(benchmark_dgp(0.2, T=80), 9)
    jf, sf = fit_joint(mp, sp, 2, 1)
    doc = joint_fit_to_dict(jf, sf)
    jf2, sf2 = joint_fit_from_dict(doc)
    np.testing.assert_array_equal(jf.alpha_hat, jf2.alpha_hat)
    np.testing.assert_array_equal(jf.gamma_hat, jf2.gamma_hat)
    np.testing.assert_array_equal(jf.d_hat, jf2.d_hat)
    np.testing.assert_array_equal(sf.A_hat, sf2.A_hat)
    assert jf.sigma_e_hat == jf2.sigma_e_hat


def _fit_document():
    mp, sp = generate(benchmark_dgp(0.2, T=40), 9)
    return joint_fit_to_dict(*fit_joint(mp, sp, 2, 1))


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("alpha_hat"),
    lambda doc: doc.update(alpha_hat=doc["alpha_hat"] + [0.1]),
    lambda doc: doc.update(q1=2.0),
    lambda doc: doc.update(q2=3),
    lambda doc: doc.update(sigma_e_hat=float("nan")),
    lambda doc: doc.update(sigma_e_hat=-1.0),
    lambda doc: doc.update(sigma_e_hat=[1.0]),
    lambda doc: doc.update(sigma_e_hat=10 ** 400),
    lambda doc: doc["theta_hat"].append(float("inf")),
    lambda doc: doc.update(gamma_hat=doc["gamma_hat"][:2]),
    lambda doc: doc.update(A_hat=doc["A_hat"] * 2),
    lambda doc: doc.update(d_hat=[row[:2] for row in doc["d_hat"]]),
    lambda doc: doc.update(surrogate_residuals=doc["surrogate_residuals"][1:]),
    lambda doc: doc.update(B_hat=doc["B_hat"][:1]),
    lambda doc: doc.update(residuals=doc["residuals"][1:]),
    lambda doc: doc.update(d_hat=[[1.0, 2.0, 3.0], [1.0]]),
    lambda doc: doc.update(residuals={"a": 1}),
    lambda doc: doc.update(delta_hat=[10 ** 400]),
], ids=["missing", "alpha_longer_than_q1", "float_order", "q2_above_q1",
        "nan_sigma", "negative_sigma", "vector_sigma", "overflow_sigma",
        "inf_entry", "narrow_gamma", "A_hat_lags", "narrow_d_hat",
        "short_surrogate_residuals", "B_hat_rows", "short_residuals", "ragged",
        "not_an_array", "overflow"])
def test_fit_document_malformed_rejected(edit):
    doc = _fit_document()
    edit(doc)
    with pytest.raises(InvalidData):
        joint_fit_from_dict(doc)


@pytest.mark.parametrize("doc", [[], None, {"schema": "surrocast-fit/0"}])
def test_fit_document_wrong_schema_rejected(doc):
    with pytest.raises(InvalidData, match="schema"):
        joint_fit_from_dict(doc)


# ---------------------------------------------------------------------------
# one least-squares kernel
# ---------------------------------------------------------------------------

def _package_census(pick) -> dict[str, list[str]]:
    """The labels pick(node) gives the AST nodes of the package, by the
    qualified name of the function they sit in (Class.method for a method);
    pick returns None for a node it does not count."""
    found: dict[str, list[str]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            label = pick(child)
            if label is not None:
                found.setdefault(".".join(scope), []).append(label)
            visit(child, scope)

    for path in sorted(Path(surrocast.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _linalg_calls() -> dict[str, set[str]]:
    """The np.linalg functions that each function of the package calls."""
    def pick(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func.value) in ("np.linalg", "numpy.linalg")):
            return node.func.attr
        return None

    return {scope: set(names) for scope, names in _package_census(pick).items()}


def test_factorizations_live_in_the_listed_functions():
    # every least-squares step goes through _triangularize (one Householder
    # QR) or the bootstrap's partialled refit, and every rank verdict through
    # the SVD of _full_rank_r; a new factorization needs an entry here
    assert _linalg_calls() == {
        "_triangularize": {"qr"},
        "_full_rank_r": {"svd"},
        "_rank_deficient": {"svd"},
        "_batched_refit": {"qr"},
        "efficiency_gain": {"cholesky", "solve"},
        "DgpSpec.__post_init__": {"cholesky", "eigvals"},
    }


def _matrix_products() -> dict[str, list[str]]:
    """The source of every @, np.matmul, np.einsum and np.dot in the
    package, by function."""
    def pick(node):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            return ast.unparse(node)
        if (isinstance(node, ast.Call) and ast.unparse(node.func)
                in ("np.matmul", "np.einsum", "np.dot")):
            return ast.unparse(node)
        return None

    return _package_census(pick)


# Every matrix product of the package, with the reason its result does not
# depend on how many members, replicates or groups share the call, and the
# reason for its operand layout where that layout is not the obvious one.
# BLAS may order a product's sums by the product's shape, so a member keeps
# the bits of its one-series call only while the shape it sees is fixed.
_MATRIX_PRODUCTS = {
    "_full_rank_r": {
        "np.einsum('...ij,...ij->...', R, R)":
            "numpy's own einsum loop, no BLAS: one sum per member in a fixed order",
        "np.einsum('...ij,...ij->...', X, X)":
            "numpy's own einsum loop, no BLAS: one sum per member in a fixed order",
    },
    "_solve": {
        "aug[..., :m] @ coef":
            "stacked: each member's own (n, m) @ (m, r) product",
    },
    "d_residual_matrix": {
        "ys[..., q2 - l:T - l, :] @ np.ascontiguousarray("
        "np.swapaxes(A_hat[..., l - 1, :, :], -1, -2))":
            "stacked: each member's own (T - q2, K) @ (K, K); the transposed "
            "lag matrix is copied C-contiguous, which is faster and keeps the bits",
    },
    "_driver": {
        "rows @ coef[..., None]":
            "stacked: each member's own (months, k) @ (k, 1)",
    },
    "_fitted_design": {
        "X[..., :q1] @ jf.alpha_hat[..., None]":
            "stacked: each member's own (n, q1) @ (q1, 1)",
    },
    "residual_pairs": {
        "jf.d_hat[..., offset:, :] @ jf.gamma_hat[..., None]":
            "stacked: each member's own (n, K) @ (K, 1)",
    },
    "efficiency_gain": {
        "w @ w": "one K-vector; no batch",
    },
    "bj_interval_estimated": {
        "grad @ R_inv": "stacked: each member's own (H, m) @ (m, m)",
    },
    "_batched_refit": {
        "np.matmul(Q_F.mT, col.transpose(1, 0, 2), out=top[:, j].transpose(1, 0, 2))":
            "per member (k, n) @ (n, B), B the replicate count of every chunk; "
            "Q_F.mT stays a transposed view: a C-contiguous copy changed the "
            "bootstrap interval bits of two of the eight cli-pipeline datasets",
        "np.matmul(Q_F, proj, out=fit.transpose(1, 0, 2))":
            "per member (n, k) @ (k, B), B the replicate count of every chunk",
        "np.einsum('tb,tb->b', col, col)":
            "numpy's own einsum loop, no BLAS: one sum per replicate column",
        "np.einsum('tb,tb->b', col, cols[j], out=low[i, j])":
            "numpy's own einsum loop, no BLAS: one sum per replicate column",
    },
    "boot_interval.run": {
        "np.matmul(rows[chunk, n:], coef[:k].transpose(1, 0, 2), "
        "out=paths[q1:].transpose(1, 0, 2))":
            "per member (H, k) @ (k, B), B the replicate count of every chunk",
    },
    "select_ar_order": {
        "lags[..., :q] @ coef": "stacked: each member's own (n, q) @ (q, 1)",
    },
    "_abs_correlations": {
        "centered.T @ tc": "one series of the greedy selection; no batch",
    },
    "_doubling_powers": {
        "P @ P": "one (state, state) transition power; no batch",
    },
    "_burn_in_fold": {
        "V @ M.T": "one (rows, state) @ (state, state) per spec; no batch",
        "blocks.reshape(-1, len(M)) @ P_t":
            "one (blocks * rows, state) @ (state, state) per doubling pass of "
            "a spec; no batch",
    },
    "_linear_recursion": {
        "s[..., :n - shift, :] @ P_t":
            "stacked: each member's own (n - shift, state) @ (state, state), n "
            "the kept months; P_t is C-contiguous, 2-3x faster than the "
            "transposed view with the same bits",
    },
    "_draw_states": {
        "normals @ spec._chol_t":
            "stacked: each member's own (n, 1 + K) @ (1 + K, 1 + K), n the "
            "burn-in plus kept months; the factor is kept transposed and "
            "C-contiguous",
        "eps[:, :b].reshape(Q, 1, b * (1 + K)) @ spec._fold_eps":
            "stacked: each member's own (1, b (1 + K)) @ (b (1 + K), state), b "
            "the spec's burn-in; the fold is kept C-contiguous",
        "u[:, :b].reshape(Q, 1, b * p) @ spec._fold_u":
            "stacked: each member's own (1, b p) @ (b p, state), b the spec's "
            "burn-in; the fold is kept C-contiguous",
        "u @ spec._B_S_t":
            "stacked: each member's own (T, p) @ (p, K); B_S' is kept C-contiguous",
        "u @ spec.beta": "stacked: each member's own (T, p) @ (p,)",
    },
}


def test_matrix_products_are_listed_with_their_reason():
    # a new product, or a product whose operands change, needs an entry
    # here saying why its result keeps its bits in any batch (ROADMAP item 5)
    found = {scope: sorted(srcs) for scope, srcs in _matrix_products().items()}
    assert found == {scope: sorted(listed)
                     for scope, listed in _MATRIX_PRODUCTS.items()}
    assert all(reason for listed in _MATRIX_PRODUCTS.values()
               for reason in listed.values())
