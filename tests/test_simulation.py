import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surrocast import (
    Ar1Spec,
    BaselineDegenerate,
    BootstrapConfig,
    DgpSpec,
    ExperimentGrid,
    FutureExogenous,
    InvalidCovariance,
    InvalidData,
    MonthlyPanel,
    NonStationarySpec,
    RankDeficient,
    SurrogatePanel,
    benchmark_dgp,
    bj_interval,
    boot_interval,
    coverage_length,
    equicorrelated,
    fit_arx,
    fit_joint,
    fit_joint_step2,
    fit_surrogate,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
    generate,
    rpmse,
    rsign,
    run_experiment,
    select_ar_order,
    standardize_cpi,
)
from surrocast import intervals, simulation
from surrocast.estimation import companion_matrix

from conftest import member


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _iid_spec(T):
    return DgpSpec(
        alpha=[0.0], beta=np.zeros(0), A_S=np.zeros((1, 3, 3)),
        B_S=np.zeros((3, 0)), Sigma=np.eye(4), T=T, x_gen=Ar1Spec(0),
    )


def test_generate_iid_when_all_coefficients_zero():
    mp, sp = generate(_iid_spec(5000), 0)
    for series in [mp.y] + [sp.ys[:, k] for k in range(3)]:
        r = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert abs(r) < 0.05


def test_generate_innovation_covariance_matches_sigma():
    spec = benchmark_dgp(0.3, T=5000)
    eps = simulation._draw_states(spec, [1])[0][0]
    sample = np.cov(eps.T)
    assert np.max(np.abs(sample - spec.Sigma)) < 0.05


def test_generate_student_t_covariance_matches_sigma():
    spec = benchmark_dgp(0.3, T=5000, error_kind="student-t")
    eps = simulation._draw_states(spec, [2])[0][0]
    sample = np.cov(eps.T)
    assert np.max(np.abs(sample - spec.Sigma)) < 0.05


def test_generate_rejects_nonstationary_target():
    with pytest.raises(NonStationarySpec):
        DgpSpec(alpha=[1.1], beta=np.zeros(0), A_S=np.zeros((1, 2, 2)),
                B_S=np.zeros((2, 0)), Sigma=np.eye(3), T=50, x_gen=Ar1Spec(0))


def test_generate_rejects_nonstationary_surrogate():
    with pytest.raises(NonStationarySpec):
        DgpSpec(alpha=[0.5], beta=np.zeros(0), A_S=1.2 * np.eye(2)[None],
                B_S=np.zeros((2, 0)), Sigma=np.eye(3), T=50, x_gen=Ar1Spec(0))


@pytest.mark.parametrize("alpha, A_S", [
    (np.zeros(0), np.zeros((1, 2, 2))),
    ([0.5], np.zeros((0, 2, 2))),
])
def test_spec_rejects_empty_lag_coefficients(alpha, A_S):
    with pytest.raises(InvalidData, match="at least one lag"):
        DgpSpec(alpha=alpha, beta=np.zeros(0), A_S=A_S, B_S=np.zeros((2, 0)),
                Sigma=np.eye(3), T=10, x_gen=Ar1Spec(0))


def test_generate_rejects_non_pd_sigma():
    sigma = equicorrelated(4, 0.9)
    sigma[0, 1] = 0.2  # asymmetric
    with pytest.raises(InvalidCovariance):
        DgpSpec(alpha=[0.5], beta=np.zeros(0), A_S=np.zeros((1, 3, 3)),
                B_S=np.zeros((3, 0)), Sigma=sigma, T=50, x_gen=Ar1Spec(0))


def test_generate_deterministic_given_seed():
    # a spec is factored once: redrawing from it, or from a fresh copy of the
    # same process, gives the same bytes
    for error_kind in ("gaussian", "student-t"):
        spec = benchmark_dgp(0.2, T=100, error_kind=error_kind)
        specs = [spec, spec, benchmark_dgp(0.2, T=100, error_kind=error_kind)]
        draws = [(*generate(s, 42), simulation._draw_states(s, [42])[0]) for s in specs]
        for mp, sp, eps in draws[1:]:
            assert mp.y.tobytes() == draws[0][0].y.tobytes()
            assert sp.ys.tobytes() == draws[0][1].ys.tobytes()
            assert eps.tobytes() == draws[0][2].tobytes()


def _surrogate_lags():
    """Random stable (q2, K, K) lag stacks, a Jordan block and a strongly
    non-normal matrix."""
    rng = np.random.default_rng(0)
    lags = {}
    for K in (1, 2, 3):
        for q2 in (1, 2):
            A_S = rng.standard_normal((q2, K, K))
            radius = np.max(np.abs(np.linalg.eigvals(companion_matrix(A_S))))
            # scaling lag l by c**l scales every companion eigenvalue by c
            scale = (0.9 / radius) ** np.arange(1, q2 + 1)
            lags[f"K{K}-q2{q2}"] = A_S * scale[:, None, None]
    lags["jordan"] = np.array([[[0.5, 1.0], [0.0, 0.5]]])
    lags["non-normal"] = np.array([[[0.95, 5.0], [0.0, 0.95]]])
    return lags


_SURROGATE_LAGS = _surrogate_lags()


@pytest.mark.parametrize("n", [1, 2, 260, 2201])
@pytest.mark.parametrize("case", list(_SURROGATE_LAGS))
def test_linear_recursion_matches_direct_loop(case, n):
    # the doubling scan sums M^j W_{t-j} in another order than the loop, so
    # the two agree to a bound set by double rounding, not bit for bit;
    # 2201 is the draw length of criterion 3
    A_S = _SURROGATE_LAGS[case]
    K = A_S.shape[-1]
    rng = np.random.default_rng(n)
    spec = DgpSpec(alpha=[0.5, -0.3], beta=rng.standard_normal(2), A_S=A_S,
                   B_S=rng.standard_normal((K, 2)), Sigma=np.eye(1 + K), T=10,
                   x_gen=Ar1Spec(2, phi=0.8))
    M = spec._transition
    W = rng.standard_normal((n, len(M)))
    loop = np.zeros_like(W)
    for t in range(n):
        loop[t] = W[t] + (M @ loop[t - 1] if t else 0.0)
    powers = simulation._doubling_powers(M, n)
    scan = simulation._linear_recursion(powers, W.copy())
    assert np.max(np.abs(scan - loop)) <= 1e-12 * (1.0 + np.max(np.abs(loop)))
    # a list that covers more months, as a spec builds when its burn-in is
    # longer than T, gives the same bits, written over W; one that covers
    # fewer is refused
    longer = simulation._doubling_powers(M, 4 * n + 1)
    assert len(longer) > len(powers)
    assert simulation._linear_recursion(longer, W) is W
    assert W.tobytes() == scan.tobytes()
    if powers:
        with pytest.raises(ValueError, match="cover fewer"):
            simulation._linear_recursion(powers[:-1], W)


@pytest.mark.parametrize("error_kind", ["gaussian", "student-t"])
def test_spec_draw_operands_are_contiguous_and_exact(error_kind):
    # the operands a spec caches are C-contiguous copies of the transposes
    # the draw multiplies by; its doubling powers are the squarings of its
    # transition matrix, bit for bit, up to the T kept months; its burn-in
    # fold is the moving-average weight of every burn-in innovation
    spec = benchmark_dgp(0.3, T=60, error_kind=error_kind)
    assert spec._burn_in == simulation._BURN_IN
    assert len(spec._powers) == math.ceil(math.log2(spec.T))
    P = spec._transition
    for P_t in spec._powers:
        assert P_t.flags.c_contiguous
        assert P_t.tobytes() == P.T.tobytes()
        P = P @ P
        P[np.abs(P) < np.finfo(float).tiny] = 0.0
    chol = np.linalg.cholesky(spec.Sigma if error_kind == "gaussian"
                              else spec.Sigma * (simulation._T_DF - 2.0) / simulation._T_DF)
    assert spec._chol_t.flags.c_contiguous
    assert spec._chol_t.tobytes() == chol.T.tobytes()
    # the innovation map puts eps_0 into y_t, eps_1..eps_K into ys_t, and
    # u_t into x_t and, through B_S and beta, into ys_t and y_t
    M, b, K, p = spec._transition, spec._burn_in, spec.K, spec.x_gen.n_cols
    y_col = p + K * spec.q2
    E = np.zeros((1 + K, len(M)))
    E[0, y_col] = 1.0
    E[1:, p:p + K] = np.eye(K)
    U = np.zeros((p, len(M)))
    U[:, :p] = np.eye(p)
    U[:, p:p + K] = spec.B_S.T
    U[:, y_col] = spec.beta
    V = np.vstack([E, U])
    assert spec._inject.flags.c_contiguous
    assert spec._inject.tobytes() == V.tobytes()
    # month t's innovations reach the first kept month through M^(b - t)
    assert spec._fold.flags.c_contiguous
    assert spec._fold.shape == (b * len(V), len(M))
    for t in (0, 1, b // 2, b - 2, b - 1):
        weight = V @ np.linalg.matrix_power(M, b - t).T
        block = spec._fold[t * len(V):(t + 1) * len(V)]
        assert np.max(np.abs(block - weight)) <= 1e-14 * np.max(np.abs(weight))


def _slow_decay_spec(K, q2, T, error_kind):
    """A spec whose surrogate companion matrix has spectral radius 0.97,
    so the burn-in's weight on the first kept month decays slowly."""
    rng = np.random.default_rng(K * 10 + q2)
    A_S = rng.standard_normal((q2, K, K))
    radius = np.max(np.abs(np.linalg.eigvals(companion_matrix(A_S))))
    A_S *= ((0.97 / radius) ** np.arange(1, q2 + 1))[:, None, None]
    return DgpSpec(alpha=[0.6, 0.3], beta=np.array([0.7, -0.2]), A_S=A_S,
                   B_S=rng.standard_normal((K, 2)),
                   Sigma=equicorrelated(1 + K, 0.3), T=T,
                   x_gen=Ar1Spec(2, phi=0.9, scale=6.0), error_kind=error_kind)


@pytest.mark.parametrize("T", [60, 2001])
@pytest.mark.parametrize("K, q2", [(3, 1), (10, 2)])
@pytest.mark.parametrize("error_kind", ["gaussian", "student-t"])
def test_burn_in_fold_matches_full_recursion(error_kind, K, q2, T):
    # the folded burn-in gives the states of the full recursion over
    # _BURN_IN + T months from the same stream, within 1e-12 of their scale,
    # and the innovations of the kept months bit for bit; 2001 is the draw
    # length of criterion 3
    spec = _slow_decay_spec(K, q2, T, error_kind)
    M = spec._transition
    radii = [np.max(np.abs(np.linalg.eigvals(companion_matrix(a))))
             for a in (spec.alpha, spec.A_S)]
    assert max(radii) >= 0.95
    seeds = [np.random.SeedSequence((11, i)) for i in range(3)]
    mp, sp = generate(spec, seeds)
    kept_eps = simulation._draw_states(spec, seeds)[0]
    b, p = simulation._BURN_IN, spec.x_gen.n_cols
    n, y_col = b + T, p + K * q2
    chol_t = np.linalg.cholesky(spec.Sigma if error_kind == "gaussian"
                                else spec.Sigma * (simulation._T_DF - 2.0)
                                / simulation._T_DF).T
    for i, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        eps = rng.standard_normal((n, 1 + K)) @ chol_t
        if error_kind == "student-t":
            eps *= np.sqrt(simulation._T_DF / rng.chisquare(simulation._T_DF, n))[:, None]
        u = rng.standard_normal((n, p)) * spec.x_gen._innovation_sd
        W = np.zeros((n, len(M)))
        W[:, :p] = u
        W[:, p:p + K] = u @ spec.B_S.T + eps[:, 1:]
        W[:, y_col] = u @ spec.beta + eps[:, 0]
        s = simulation._linear_recursion(simulation._doubling_powers(M, n), W)[b:]
        assert kept_eps[i].tobytes() == eps[b:].tobytes()
        for got, want in ((mp.y[i], s[:, y_col]), (mp.x[i], s[:, :p]),
                          (sp.ys[i], s[:, p:p + K])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fold_of_a_fast_decaying_spec_holds_no_subnormals():
    # spectral radius 0.01: the burn-in's early months reach the first kept
    # month with weights far below the smallest normal double, which the
    # fold holds as zeros, so the carry product never sees a subnormal
    spec = DgpSpec(alpha=[0.01], beta=[0.5], A_S=0.01 * np.eye(2), B_S=[[0.3], [-0.2]],
                   Sigma=np.eye(3), T=10, x_gen=Ar1Spec(1, phi=0.01))
    fold = np.abs(spec._fold)
    assert np.all((fold == 0.0) | (fold >= np.finfo(float).tiny))
    assert (fold == 0.0).any() and (fold > 0.0).any()


@pytest.mark.parametrize("burn_in", [0, 1, 2, 3, 64, 65])
def test_spec_keeps_the_burn_in_it_was_built_for(burn_in, monkeypatch):
    # the burn-in is the spec's, not the module's at draw time; short and
    # power-of-two lengths fold the same months the full recursion runs
    monkeypatch.setattr(simulation, "_BURN_IN", burn_in)
    spec = benchmark_dgp(0.3, T=5)
    monkeypatch.setattr(simulation, "_BURN_IN", 200)
    assert spec._burn_in == burn_in
    assert spec._fold.shape == (burn_in * 6, len(spec._transition))
    mp, sp = generate(spec, 9)
    monkeypatch.setattr(simulation, "_BURN_IN", 0)
    full = DgpSpec(alpha=spec.alpha, beta=spec.beta, A_S=spec.A_S, B_S=spec.B_S,
                   Sigma=spec.Sigma, T=burn_in + 5, x_gen=spec.x_gen)
    mp_full, sp_full = generate(full, 9)
    eps, eps_full = (simulation._draw_states(s, [9])[0][0] for s in (spec, full))
    assert eps.tobytes() == eps_full[burn_in:].tobytes()
    for got, want in ((mp.y, mp_full.y[burn_in:]), (mp.x, mp_full.x[burn_in:]),
                      (sp.ys, sp_full.ys[burn_in:])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spec_arrays_are_read_only_copies():
    # a spec's arrays cannot be edited after construction, which would part
    # them from the operands the draw caches; the caller's arrays stay
    # writable
    args = dict(alpha=np.array([0.5, -0.3]), beta=np.array([0.7, -0.2]),
                A_S=np.full((1, 3, 3), 0.1), B_S=np.full((3, 2), 0.2),
                Sigma=equicorrelated(4, 0.3))
    spec = DgpSpec(**args, T=10, x_gen=Ar1Spec(2))
    for name, value in args.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(spec, name)[(0,) * value.ndim] = 0.9
        value[(0,) * value.ndim] = 0.25
        assert getattr(spec, name)[(0,) * value.ndim] != 0.25


def test_generate_matches_model_equations(monkeypatch):
    # one state-space draw equals the model written out month by month:
    # ys_t = A ys_{t-1} + B_S x_t + e_t and y_t = alpha'y_lags + beta'x_t + e_t,
    # here with a Jordan-block surrogate matrix, which has no eigenbasis;
    # without a burn-in, so that the loop sees every drawn month
    monkeypatch.setattr(simulation, "_BURN_IN", 0)
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    beta, B_S = np.array([0.7, -0.2]), np.array([[0.1, 0.3], [-0.2, 0.4]])
    alpha = np.array([0.5, -0.3])
    spec = DgpSpec(alpha=alpha, beta=beta, A_S=A[None], B_S=B_S,
                   Sigma=np.eye(3), T=300, x_gen=Ar1Spec(2, phi=0.6, scale=2.0))
    mp, sp = generate(spec, 3)
    x, eps = mp.x, simulation._draw_states(spec, [3])[0][0]
    ys, y = np.zeros((300, 2)), np.zeros(300)
    for t in range(300):
        ys[t] = B_S @ x[t] + eps[t, 1:] + (A @ ys[t - 1] if t else 0.0)
        y[t] = beta @ x[t] + eps[t, 0] + sum(
            alpha[l] * y[t - 1 - l] for l in range(2) if t > l)
    bound = 1e-12 * (1.0 + max(np.max(np.abs(ys)), np.max(np.abs(y))))
    assert np.max(np.abs(sp.ys - ys)) <= bound
    assert np.max(np.abs(mp.y - y)) <= bound
    assert mp.z.shape == (300, 0)
    # the covariate innovations are drawn after the target/surrogate ones
    rng = np.random.default_rng(3)
    rng.standard_normal((300, 3))
    x_alone = spec.x_gen.draw(rng, 300)
    assert np.max(np.abs(x - x_alone)) <= 1e-12 * (1.0 + np.max(np.abs(x_alone)))


def test_x_generator_stationary_scale():
    x = Ar1Spec(2, 0.5, 6.0).draw(np.random.default_rng(0), 200000)
    np.testing.assert_allclose(x.std(axis=0), 6.0, rtol=0.02)
    r = np.corrcoef(x[:-1, 0], x[1:, 0])[0, 1]
    assert r == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_rpmse_identical_to_baseline_is_one(rng):
    truth = rng.standard_normal((20, 5))
    fc = truth + rng.standard_normal((20, 5))
    assert rpmse(fc, truth, fc) == pytest.approx(1.0)


def test_rpmse_half_errors():
    truth = np.zeros((10, 4))
    base = np.full((10, 4), 2.0)
    assert rpmse(base / 2, truth, base) == pytest.approx(0.5)


def test_rpmse_perfect_method():
    truth = np.ones((5, 3))
    base = np.zeros((5, 3))
    assert rpmse(truth, truth, base) == 0.0


def test_rpmse_degenerate_baseline():
    truth = np.ones((5, 3))
    with pytest.raises(BaselineDegenerate):
        rpmse(np.zeros((5, 3)), truth, truth)


def test_rsign_identical_forecasts():
    truth = np.array([[1.0, -1.0], [1.0, 1.0]])
    fc = np.array([[2.0, 1.0], [1.0, -3.0]])
    assert rsign(fc, truth, fc) == pytest.approx(1.0)


def test_rsign_perfect_method_vs_fallible_baseline():
    truth = np.array([[1.0, -2.0]])
    good = np.array([[0.5, -0.1]])
    bad = np.array([[-0.5, -0.1]])
    assert rsign(good, truth, bad) == 0.0


def test_rsign_both_always_wrong():
    truth = np.ones((3, 2))
    wrong = -np.ones((3, 2))
    assert rsign(wrong, truth, wrong) == pytest.approx(1.0)


def test_coverage_length_truth_always_inside():
    truth = np.zeros((6, 4))
    cov, length = coverage_length(truth - 1.0, truth + 2.0, truth)
    assert cov == 1.0
    assert length == pytest.approx(3.0)


def test_coverage_length_constant_width():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((8, 3))
    cov, length = coverage_length(truth - 0.25, truth - 0.05, truth)
    assert cov == 0.0
    assert length == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def _small_grid(**kw):
    base = dict(rhos=(0.2,), horizons=(8,), B=100, include_boot=False)
    base.update(kw)
    return ExperimentGrid(**base)


def test_experiment_single_repetition_runs():
    report = run_experiment(_small_grid(), Q=1, seed=0)
    assert report.Q == 1
    assert report.value(0.2, 8, "JOINT", "rpmse") >= 0.0


def test_experiment_deterministic():
    a = run_experiment(_small_grid(include_boot=True), Q=3, seed=5)
    b = run_experiment(_small_grid(include_boot=True), Q=3, seed=5)
    assert a == b


def test_experiment_worker_count_invariant(tmp_path):
    # 2 cells x 4 reps = 8 tasks; then one cell of 10 bootstrap reps, the
    # shape of a small Monte Carlo call, which two workers share
    for kw, workers, Q in (({"rhos": (0.1, 0.3)}, 3, 4),
                           ({"include_boot": True}, 2, 10)):
        a = run_experiment(_small_grid(workers=1, **kw), Q=Q, seed=9)
        b = run_experiment(_small_grid(workers=workers, **kw), Q=Q, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(p1)
        b.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class _InProcessPool:
    """ProcessPoolExecutor stand-in that maps in this process and records
    the worker count it was given and the number of chunks of every map."""

    chunks: list = []
    workers: list = []

    def __init__(self, workers):
        self.workers.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        tasks = list(tasks)
        self.chunks.append(-(-len(tasks) // chunksize))
        return map(fn, tasks)


def test_experiment_spreads_small_runs_over_workers(monkeypatch):
    # every worker must get at least one chunk of a 10-repetition run
    monkeypatch.setattr(simulation.concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    for workers in (2, 3):
        run_experiment(_small_grid(workers=workers), Q=10, seed=0)
        assert _InProcessPool.chunks[-1] >= workers


def test_experiment_pool_never_exceeds_its_tasks(monkeypatch):
    # a fork pool starts all its processes at the first submit, so a huge
    # --workers on a 2-repetition run must not ask for more than 2
    monkeypatch.setattr(simulation.concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    one = run_experiment(_small_grid(), Q=2, seed=0)
    assert run_experiment(_small_grid(workers=10_000), Q=2, seed=0).rows == one.rows
    assert 1 <= _InProcessPool.workers[-1] <= 2


def test_report_independent_of_block_split(monkeypatch):
    # a pool splits each cell into blocks of repetitions (here of 1 and 2);
    # the report must equal that of one batch per cell to the last bit,
    # which needs each aggregated array in one memory order
    monkeypatch.setattr(simulation.concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    for seed in (20260810, 1, 2, 3):
        grid = _small_grid(rhos=(0.1, 0.2))
        one = run_experiment(grid, Q=4, seed=seed)
        for workers in (2, 3):
            split = run_experiment(_small_grid(rhos=(0.1, 0.2), workers=workers),
                                   Q=4, seed=seed)
            assert split.rows == one.rows, (seed, workers)


def test_experiment_builds_one_spec_per_rho(monkeypatch):
    built = []

    def counting_dgp(rho, **kw):
        built.append(rho)
        return benchmark_dgp(rho, **kw)

    monkeypatch.setattr(simulation, "benchmark_dgp", counting_dgp)
    run_experiment(_small_grid(rhos=(0.1, 0.3), horizons=(8, 9)), Q=3, seed=0)
    assert built == [0.1, 0.3]


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_experiment_grid_rejects_non_finite_rho(rho):
    with pytest.raises(InvalidData, match="finite"):
        ExperimentGrid(rhos=(0.2, rho), horizons=(8,), include_boot=False)


@pytest.mark.parametrize("kw,match", [
    ({"rhos": (0.3, 0.1, 0.3)}, "rho grid repeats 0.3"),
    # one seed key, round(rho * 1e6), so one set of streams
    ({"rhos": (0.3, 0.3000001)}, "repeats 0.3 \\(as 0.3000001"),
    ({"horizons": (8, 9, 8)}, "horizon grid repeats 8"),
])
def test_experiment_grid_rejects_duplicate_values(kw, match):
    with pytest.raises(InvalidData, match=match):
        ExperimentGrid(**{"rhos": (0.2,), "horizons": (8,), **kw})
    # values one seed key apart are distinct cells
    ExperimentGrid(rhos=(0.3, 0.300001), horizons=(8, 9))


@pytest.mark.parametrize("field,value", [
    ("workers", 0), ("workers", -3),
    ("x_scale", math.nan), ("x_scale", math.inf), ("x_scale", -1.0),
    ("x_scale", 0.0),
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.05), ("alpha", math.nan),
    # a training window shorter than H or than 2 * 4 + 3 months
    ("horizons", (8, 49)), ("horizons", (31,)), ("total_months", 14),
    ("total_months", 18),
])
def test_experiment_grid_rejects_invalid_field(field, value):
    with pytest.raises(InvalidData, match=field):
        _small_grid(**{field: value})


def test_experiment_grid_horizon_bound_is_tight():
    # a training window of max(H, 11) months is long enough; one month
    # less is rejected (test_experiment_grid_rejects_invalid_field)
    _small_grid(horizons=(30,))
    _small_grid(total_months=19)
    assert simulation._AR_Q_MAX == 4
    _small_grid(total_months=13, horizons=(2,))
    with pytest.raises(InvalidData, match="horizons \\[5\\]"):
        _small_grid(total_months=14, horizons=(5,))


def test_experiment_grid_checks_bootstrap_replicates_up_front():
    # rejected when the grid is built, not in the first (possibly worker) rep
    with pytest.raises(InvalidData, match="B >= 100"):
        _small_grid(B=50, include_boot=True)
    _small_grid(B=50, include_boot=False)
    _small_grid(B=50, include_boot=True, include_intervals=False)


def test_every_traced_name_resolves(tracing):
    # the tracer patches these names by module; a refactor that unbinds one
    # would otherwise first fail in a traced benchmark run
    for mod_name, attrs in tracing.TARGETS.items():
        mod = importlib.import_module(mod_name)
        missing = [attr for attr in attrs if not callable(getattr(mod, attr, None))]
        assert missing == [], f"{mod_name} lacks {missing}"


def test_joint_intervals_reach_the_traced_forecast(tracing):
    # the tracer times the joint intervals' point forecasts by wrapping
    # surrocast.intervals.forecast_joint; an interval that forecast by
    # another route would drop them from the traced forecasting layer
    mp, sp = generate(benchmark_dgp(0.3, T=40), 2)
    mp_tr, sp_tr = mp.slice(0, 32), sp.slice(0, 32)
    jf, sf = fit_joint(mp_tr, sp_tr, 2, 1)
    fut = FutureExogenous(mp.z[32:], mp.x[32:], sp.ys[32:])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        intervals.bj_interval_estimated(jf, sf, mp_tr, sp_tr, fut, 4, 0.05)
        intervals.boot_interval(jf, sf, mp_tr, sp_tr, fut, 4, BootstrapConfig(B=100),
                                0.05)
    finally:
        tracer.remove()
    assert tracer.calls()["forecasting.forecast_joint"] == 2


def test_experiment_reaches_every_traced_layer(tracing):
    # perfbench/tracing.py times the harness by wrapping the names it calls in
    # surrocast.simulation; a call routed around one of them would leave that
    # layer empty in a traced benchmark run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simulation.run_experiment(_small_grid(include_boot=True), Q=2, seed=0)
    finally:
        tracer.remove()
    calls = tracer.calls()
    layers = set(tracing.TARGETS["surrocast.simulation"].values())
    assert {layer for layer in layers if calls[layer] == 0} == set()


@pytest.mark.parametrize("variant", simulation.VARIANTS)
def test_experiment_rep_ignores_holdout_rows(variant, monkeypatch):
    # every forecast and interval of a repetition is a function of its
    # training months: poisoning the last H target values moves the truth
    # and nothing else
    H = 8
    grid = _small_grid(variant=variant, include_boot=True)
    spec = benchmark_dgp(0.2, T=grid.total_months,
                         error_kind=simulation._VARIANTS[variant][0])
    task = (grid, spec, 1, 0.2, H, range(3))
    clean = simulation._run_reps(task)

    draw = simulation.generate

    def poisoned(spec, seed):
        mp, sp = draw(spec, seed)
        y = mp.y.copy()
        y[..., -H:] = 1e6
        return MonthlyPanel(mp.times, y, mp.z, mp.x), sp

    monkeypatch.setattr(simulation, "generate", poisoned)
    dirty = simulation._run_reps(task)
    assert clean.keys() == dirty.keys()
    assert "JOINT_BOOT" in clean
    assert not np.array_equal(clean["truth"], dirty["truth"])
    for key in clean.keys() - {"truth"}:
        assert np.array_equal(clean[key], dirty[key]), key


def test_variant_order_is_fixed():
    # the index of a variant is hashed into every repetition's seed
    assert simulation.VARIANTS == ("base", "omitted", "overfit", "student-t")


@pytest.mark.parametrize("variant,x_width,p,error_kind", [
    ("base", 2, 2, "gaussian"),
    ("omitted", 1, 1, "gaussian"),
    ("overfit", 4, 2, "gaussian"),
    ("student-t", 2, 2, "student-t"),
])
def test_experiment_applies_variant_row(variant, x_width, p, error_kind,
                                        monkeypatch):
    seen = {"x": [], "p": [], "kind": []}

    def wrap(name, record):
        inner = getattr(simulation, name)

        def wrapped(*args, **kw):
            record(*args, **kw)
            return inner(*args, **kw)
        monkeypatch.setattr(simulation, name, wrapped)

    # one batched call per cell: (repetitions, width) of each
    wrap("fit_surrogate", lambda sp, x, q2: seen["x"].append((len(x), x.shape[-1])))
    wrap("fit_joint_step2", lambda mp, *a: seen["p"].append((len(mp.y), mp.p)))
    wrap("benchmark_dgp", lambda rho, **kw: seen["kind"].append(kw["error_kind"]))
    run_experiment(_small_grid(variant=variant, include_intervals=False),
                   Q=2, seed=0)
    assert seen == {"x": [(2, x_width)], "p": [(2, p)], "kind": [error_kind]}


def test_spec_compares_and_hashes_by_identity():
    a, b = benchmark_dgp(0.3), benchmark_dgp(0.3)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_experiment_variants_run():
    for variant in ("omitted", "overfit", "student-t"):
        report = run_experiment(_small_grid(variant=variant), Q=2, seed=2)
        assert report.value(0.2, 8, "JOINT", "rpmse") > 0.0


def test_experiment_metrics_improve_with_correlation():
    grid = ExperimentGrid(rhos=(0.1, 0.4), horizons=(8,), include_boot=False)
    report = run_experiment(grid, Q=80, seed=3)
    assert (report.value(0.4, 8, "JOINT", "rpmse")
            <= report.value(0.1, 8, "JOINT", "rpmse") + 0.01)
    assert (report.value(0.4, 8, "JOINT_BJ", "length")
            <= report.value(0.1, 8, "JOINT_BJ", "length"))


def test_report_csv_schema(tmp_path):
    report = run_experiment(_small_grid(), Q=2, seed=4)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,rho,H,method,metric,value"
    assert all(line.startswith("base,0.2,8,") for line in lines[1:])


# ---------------------------------------------------------------------------
# the per-cell batch against one-series calls
# ---------------------------------------------------------------------------

def test_rep_seed_is_the_spawned_child():
    # a repetition's hashed state is that of the child spawn(3) returns;
    # seeds and repetitions past one 32-bit word, and a negative rho,
    # whose key wraps
    for entropy in [(0, 0, 100000, 8, 0), (20260810, 3, 400000, 15, 499),
                    (7, 1, 2**64 - 5, 1, 12), (2**32, 2, 300000, 9, 3),
                    (10**12, 0, 250000, 12, 7), (2**70 + 5, 1, 0, 8, 1),
                    (3, 0, 100000, 8, 2**32 + 1), (0, 2, 2**64 - 100000, 10, 0),
                    (np.int64(2**40), 1, 100000, np.int64(8), 4)]:
        spawned = np.random.SeedSequence(entropy).spawn(3)
        seed, variant, rho_key, H, rep = entropy
        rho = rho_key / 1e6 if rho_key < 2**63 else (rho_key - 2**64) / 1e6
        assert simulation._rho_key(rho) == rho_key
        for child in range(3):
            states = simulation._rep_states(seed, simulation.VARIANTS[variant], rho,
                                            H, range(rep, rep + 1), child, 8)
            assert states.dtype == np.uint64 and states.shape == (1, 8)
            assert np.array_equal(states[0], spawned[child].generate_state(8, np.uint64))


def test_rep_states_hash_one_and_two_word_repetitions_apart():
    # a block that straddles 2**32 holds members of one and of two rep
    # words; each row is its own SeedSequence's state
    reps = range(2**32 - 3, 2**32 + 3)
    states = simulation._rep_states(11, "overfit", 0.3, 8, reps, 1, 4)
    for row, rep in zip(states, reps):
        child = np.random.SeedSequence((11, 2, 300000, 8, rep)).spawn(3)[1]
        assert np.array_equal(row, child.generate_state(4, np.uint64))


def test_seed_states_match_numpy_seed_sequence():
    # numpy's SeedSequence is the oracle: entropies of 1-9 words, spawn keys
    # of 0-2 words (some past 2**32) and 1-8 uint64 words of state
    rng = np.random.default_rng(2026)
    for _ in range(300):
        entropy = rng.integers(0, 2**32, size=(3, rng.integers(1, 10)), dtype=np.uint32)
        key = tuple(int(k) for k in rng.choice([0, 5, 2**32 - 1, 2**32 + 7, 2**63],
                                               size=rng.integers(0, 3)))
        n_words = int(rng.integers(1, 9))
        got = simulation._seed_states(entropy, key, n_words)
        assert got.dtype == np.uint64 and got.shape == (3, n_words)
        for row, words in zip(got, entropy):
            want = np.random.SeedSequence(words, spawn_key=key).generate_state(
                n_words, np.uint64)
            assert np.array_equal(row, want), (words, key, n_words)


def test_pcg_seed_draws_its_seed_sequence_stream():
    ss = np.random.SeedSequence((20260810, 0, 100000, 8, 3)).spawn(3)[0]
    state = simulation._rep_states(20260810, "base", 0.1, 8, range(3, 4), 0, 4)[0]
    wrapped = simulation._PcgSeed(state)
    assert np.array_equal(np.random.default_rng(wrapped).standard_normal(20),
                          np.random.default_rng(ss).standard_normal(20))
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError, match="answers only"):
            wrapped.generate_state(n_words, dtype)


def test_uint32_words_rejects_a_negative_value():
    assert simulation._uint32_words((0, 2**32 + 3)).tolist() == [0, 3, 1]
    with pytest.raises(InvalidData, match="nonnegative"):
        simulation._uint32_words((5, -1))


def test_padded_ar_fit_gives_the_per_order_bytes():
    # one order-4 fit with zero-padded lags forecasts and bounds every
    # member with the bits of its own order's fit; orders 1 and 3 have one
    # member, 2 and 4 several
    rng = np.random.default_rng(8)
    y = np.zeros((9, 52))
    for t in range(2, 52):
        y[:, t] = 0.5 * y[:, t - 1] - 0.3 * y[:, t - 2] + rng.standard_normal(9)
    orders = np.array([2, 4, 1, 4, 2, 3, 4, 2, 4])
    ar = simulation._padded_ar_fit(y, orders)
    assert ar.alpha_hat.shape == (9, simulation._AR_Q_MAX)
    fc = forecast_arx(ar, y, None, 8)
    iv = bj_interval(fc, ar, 0.05)
    for q in (1, 2, 3, 4):
        group = orders == q
        fit = fit_arx(y[group], q)
        fc_q = forecast_arx(fit, y[group], None, 8)
        iv_q = bj_interval(fc_q, fit, 0.05)
        assert np.all(ar.alpha_hat[group, q:] == 0.0)
        for got, want in ((fc.point, fc_q.point), (iv.lower, iv_q.lower),
                          (iv.upper, iv_q.upper)):
            assert got[group].tobytes() == want.tobytes(), q


def test_generate_batch_member_is_its_one_series_draw():
    for error_kind in ("gaussian", "student-t"):
        spec = benchmark_dgp(0.3, T=60, error_kind=error_kind)
        seeds = [np.random.SeedSequence((5, i)) for i in range(9)]
        mp, sp = generate(spec, seeds)
        eps = simulation._draw_states(spec, seeds)[0]
        assert mp.y.shape == (9, 60) and mp.x.shape == (9, 60, 2)
        assert sp.ys.shape == (9, 60, 3) and eps.shape == (9, 60, 4)
        for i, ss in enumerate(seeds):
            mp1, sp1 = generate(spec, ss)
            assert mp1.y.tobytes() == mp.y[i].tobytes()
            assert mp1.x.tobytes() == mp.x[i].tobytes()
            assert sp1.ys.tobytes() == sp.ys[i].tobytes()
            assert simulation._draw_states(spec, [ss])[0][0].tobytes() == eps[i].tobytes()


def test_generate_takes_a_batch_only_of_seed_sequences():
    # a tuple of seed sequences is a batch, as a list is; a list of ints is
    # one series' entropy; a sequence that mixes the two is refused, naming
    # its first element that is not a seed sequence
    spec = benchmark_dgp(0.3, T=20)
    seeds = [np.random.SeedSequence((5, i)) for i in range(3)]
    as_list, as_tuple = generate(spec, seeds)[0], generate(spec, tuple(seeds))[0]
    assert as_tuple.y.shape == (3, 20)
    assert as_tuple.y.tobytes() == as_list.y.tobytes()
    ints = generate(spec, [5, 1])[0]
    assert ints.y.shape == (20,)
    assert ints.y.tobytes() == generate(spec, np.random.SeedSequence([5, 1]))[0].y.tobytes()
    for mixed in ([seeds[0], 5], (seeds[0], seeds[1], None)):
        with pytest.raises(InvalidData, match=rf"seed\[{len(mixed) - 1}\] is"):
            generate(spec, mixed)


def _oracle_rep(grid, spec, seed, rho, H, rep):
    """One repetition through one-series public calls: the harness before
    it ran a cell as one batch."""
    _, withheld, n_noise = simulation._VARIANTS[grid.variant]
    # numpy's own spawn, independent of the harness's hash
    dgp_ss, noise_ss, boot_ss = np.random.SeedSequence(
        (seed, simulation.VARIANTS.index(grid.variant), simulation._rho_key(rho), H,
         rep)).spawn(3)
    mp, sp = generate(spec, dgp_ss)
    T_train = grid.total_months - H
    y = standardize_cpi(mp.y, base=0.0, train_size=T_train).values
    x = mp.x[:, :mp.p - withheld]
    mp_tr = MonthlyPanel(mp.times[:T_train], y[:T_train], mp.z[:T_train],
                         x[:T_train])
    sp_tr = sp.slice(0, T_train)
    x_sur = mp_tr.x
    if n_noise:
        noise = np.random.default_rng(noise_ss).standard_normal((T_train, n_noise))
        x_sur = np.hstack([x_sur, noise])
    sf = fit_surrogate(sp_tr, x_sur, 1)
    jf = fit_joint_step2(mp_tr, sp_tr, sf, 2)
    y_train = mp_tr.y
    ar = fit_arx(y_train, select_ar_order(y_train, 4))
    fut = FutureExogenous(mp.z[T_train:], x[T_train:], sp.ys[T_train:])
    fc_joint = forecast_joint(jf, sf, mp_tr, sp_tr, fut, H)
    fc_ar = forecast_arx(ar, y_train, None, H)
    out = {"truth": y[T_train:], "JOINT": fc_joint.point, "AR": fc_ar.point,
           "RW": forecast_rw(y_train, H).point,
           "AVE": forecast_ave(y_train, H).point}
    if grid.include_intervals:
        iv_ar = bj_interval(fc_ar, ar, grid.alpha)
        iv_bj = bj_interval(fc_joint, jf, grid.alpha)
        out["AR_BJ"] = (iv_ar.lower, iv_ar.upper)
        out["JOINT_BJ"] = (iv_bj.lower, iv_bj.upper)
        if grid.include_boot:
            cfg = BootstrapConfig(
                B=grid.B, seed=int(boot_ss.generate_state(1, dtype=np.uint64)[0]))
            iv_bt = boot_interval(jf, sf, mp_tr, sp_tr, fut, H, cfg, grid.alpha)
            out["JOINT_BOOT"] = (iv_bt.lower, iv_bt.upper)
    return out


def _cell_task(variant, include_boot, reps, rho=0.3, H=8, seed=11):
    grid = _small_grid(variant=variant, include_boot=include_boot)
    spec = benchmark_dgp(rho, T=grid.total_months,
                         error_kind=simulation._VARIANTS[variant][0])
    return grid, spec, seed, rho, H, reps


def _arrays(out):
    """(name, array) of every output, interval bounds one by one."""
    for key, value in sorted(out.items()):
        for j, arr in enumerate(value if isinstance(value, tuple) else (value,)):
            yield f"{key}[{j}]", arr


@pytest.mark.parametrize("include_boot", [False, True])
@pytest.mark.parametrize("variant", simulation.VARIANTS)
def test_batched_cell_matches_one_series_oracle(variant, include_boot):
    # the batch runs the same kernels as one-series calls; every output
    # must agree within 1e-12, scaled by max(1, |oracle|)
    task = _cell_task(variant, include_boot, range(12))
    batch = simulation._run_reps(task)
    assert ("JOINT_BOOT" in batch) == include_boot
    for i, rep in enumerate(task[-1]):
        oracle = _oracle_rep(*task[:-1], rep)
        assert oracle.keys() == batch.keys()
        for (name, got), (_, want) in zip(_arrays(batch), _arrays(oracle)):
            assert got.shape == (12, 8), name
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got[i] - want) <= 1e-12 * scale), (name, rep)


@pytest.mark.parametrize("variant", simulation.VARIANTS)
def test_rep_outputs_independent_of_batch(variant):
    # a repetition has the same bits in a batch of 50, of 7 and alone, so
    # reports do not depend on how a cell is split among workers
    whole = simulation._run_reps(_cell_task(variant, True, range(50)))
    for reps in (range(7), range(20, 27), range(49, 50)):
        part = simulation._run_reps(_cell_task(variant, True, reps))
        for (name, got), (_, want) in zip(_arrays(part), _arrays(whole)):
            assert got.tobytes() == want[reps.start:reps.stop].tobytes(), (name, reps)


def test_report_independent_of_boot_group(monkeypatch):
    # boot_interval runs a cell's members in chunks of _BOOT_COLUMNS
    # replicate columns, one call per cell; chunks of 1, 2 and 3 members
    # must give the same report bits
    grid = _small_grid(rhos=(0.1, 0.3), include_boot=True)
    calls, chunks = [], []
    boot, refit = simulation.boot_interval, intervals._batched_refit

    def counted(jf, *args):
        calls.append(len(jf.residuals))
        return boot(jf, *args)

    def chunk_counted(factor, *args):
        chunks.append(len(factor[0]))   # members of the chunk's Q_F
        return refit(factor, *args)

    monkeypatch.setattr(simulation, "boot_interval", counted)
    monkeypatch.setattr(intervals, "_batched_refit", chunk_counted)
    reports = []
    for members in (1, 2, 3):
        monkeypatch.setattr(intervals, "_BOOT_COLUMNS", members * grid.B)
        calls.clear()
        chunks.clear()
        reports.append(run_experiment(grid, Q=7, seed=13))
        assert calls == [7, 7]
        assert chunks == 2 * ([members] * (7 // members) + [7 % members] * (7 % members > 0))
    assert reports[0].rows == reports[1].rows == reports[2].rows


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy before 1.26 has no dict mode
        return "unknown"


# the tests of a member's bits against the batch it runs in
_INVARIANCE_TESTS = (
    "tests/test_intervals.py::test_boot_batch_member_independent_of_group",
    "tests/test_simulation.py::test_report_independent_of_boot_group",
    "tests/test_simulation.py::test_rep_outputs_independent_of_batch",
    "tests/test_simulation.py::test_generate_batch_member_is_its_one_series_draw",
)


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE "
                           "selects no kernel")
def test_batch_invariance_on_haswell_kernels():
    # OpenBLAS picks its GEMM kernels by CPU, and on some kernels a column
    # of a product depends on how many columns share the call; the batch
    # invariants must hold on the Haswell kernels that a CPU without
    # AVX-512 runs, not only on the host's own
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *_INVARIANCE_TESTS], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:]


def test_rank_deficient_member_raises_as_alone():
    spec = benchmark_dgp(0.2, T=60)
    mp, sp = generate(spec, [np.random.SeedSequence((4, i)) for i in range(6)])
    x = mp.x.copy()
    x[3, :, 1] = -2.0 * x[3, :, 0]  # member 3's covariates are collinear
    batch = MonthlyPanel(mp.times, mp.y, mp.z, x)
    alone = member(batch, 3)
    with pytest.raises(RankDeficient) as one:
        fit_joint(alone, member(sp, 3), 2, 1)
    with pytest.raises(RankDeficient) as many:
        fit_joint(batch, sp, 2, 1)
    assert str(many.value) == str(one.value)
    assert many.value.columns == one.value.columns != ()
    # the AR order rule: a flat member makes the lag block singular
    y = mp.y.copy()
    y[2] = 0.0
    for series in (y, y[2]):
        with pytest.raises(RankDeficient):
            select_ar_order(series, 4)
    # the members before it fit
    fit_joint(MonthlyPanel(mp.times, mp.y[:3], mp.z[:3], x[:3]),
              SurrogatePanel(sp.times, sp.ys[:3]), 2, 1)


@pytest.mark.parametrize("kw", [
    {"horizons": (8.0,)}, {"horizons": (8, 9.5)}, {"horizons": (True,)},
    {"B": 500.5}, {"total_months": 60.0}, {"workers": 2.0},
])
def test_experiment_grid_rejects_non_integer_field(kw):
    with pytest.raises(InvalidData, match="integer"):
        ExperimentGrid(rhos=(0.2,), **kw)


@pytest.mark.parametrize("Q, seed", [(2.0, 0), (2, 1.5), (2, "1")])
def test_experiment_rejects_non_integer_count_or_seed(Q, seed):
    with pytest.raises(InvalidData, match="integer"):
        run_experiment(_small_grid(), Q=Q, seed=seed)
    run_experiment(_small_grid(), Q=np.int64(2), seed=np.int64(1))
