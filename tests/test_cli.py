import contextlib
import csv
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surrocast import benchmark_dgp, efficiency_gain, generate
from surrocast.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _write_workspace(directory, seed=77):
    """History and future CSVs from one draw of the benchmark process."""
    total, horizon = 40, 6
    mp, sp = generate(benchmark_dgp(0.3, T=total), seed)
    T = total - horizon

    monthly = directory / "monthly.csv"
    with open(monthly, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "y", "x_1", "x_2"])
        for t in range(T):
            w.writerow([mp.times[t], repr(float(mp.y[t])),
                        repr(float(mp.x[t, 0])), repr(float(mp.x[t, 1]))])

    surrogate = directory / "surrogate.csv"
    with open(surrogate, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "ys_1", "ys_2", "ys_3"])
        for t in range(T):
            w.writerow([sp.times[t]] + [repr(float(v)) for v in sp.ys[t]])

    future = directory / "future.csv"
    with open(future, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "x_1", "x_2", "ys_1", "ys_2", "ys_3"])
        for t in range(T, total):
            w.writerow([mp.times[t], repr(float(mp.x[t, 0])), repr(float(mp.x[t, 1]))]
                       + [repr(float(v)) for v in sp.ys[t]])

    return {"dir": directory, "monthly": str(monthly),
            "surrogate": str(surrogate), "future": str(future),
            "horizon": horizon}


@pytest.fixture
def workspace(tmp_path):
    return _write_workspace(tmp_path)


def _fit_args(ws, out):
    return ["fit", "--monthly", ws["monthly"], "--surrogate", ws["surrogate"],
            "--q1", "2", "--q2", "1", "--out", str(out)]


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_smoke(workspace, capsys):
    out = workspace["dir"] / "fit.json"
    pairs = workspace["dir"] / "pairs.csv"
    rc = main(_fit_args(workspace, out) + ["--residual-pairs", str(pairs)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "surrocast-fit/1"
    for key in ("alpha_hat", "theta_hat", "delta_hat", "gamma_hat", "A_hat"):
        assert key in doc
    assert len(doc["alpha_hat"]) == 2
    rows = _read_rows(pairs)
    assert rows[0] == ["e", "eps_s_1", "eps_s_2", "eps_s_3"]


def test_fit_reruns_byte_identical(workspace):
    out1 = workspace["dir"] / "fit1.json"
    out2 = workspace["dir"] / "fit2.json"
    assert main(_fit_args(workspace, out1)) == 0
    assert main(_fit_args(workspace, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_mismatched_panels_error(workspace, tmp_path, capsys):
    from surrocast import month_range

    shifted = tmp_path / "shifted.csv"
    rows = _read_rows(workspace["surrogate"])
    labels = month_range("2018-06", len(rows) - 1)  # consecutive, misaligned
    for row, label in zip(rows[1:], labels):
        row[0] = label
    with open(shifted, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rc = main(["fit", "--monthly", workspace["monthly"], "--surrogate",
               str(shifted), "--out", str(tmp_path / "f.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["code"] == "PanelMismatch"


def test_fit_missing_input_file(workspace, tmp_path, capsys):
    rc = main(["fit", "--monthly", str(tmp_path / "missing.csv"), "--surrogate",
               workspace["surrogate"], "--out", str(tmp_path / "f.json")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert json.loads(err[0])["code"] == "FileNotFoundError"


def test_fit_rejects_nan_field(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    rows = _read_rows(workspace["monthly"])
    rows[3][1] = "nan"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rc = main(["fit", "--monthly", str(bad), "--surrogate",
               workspace["surrogate"], "--out", str(tmp_path / "f.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["code"] == "InvalidData"


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def _fitted(workspace):
    out = workspace["dir"] / "fit.json"
    assert main(_fit_args(workspace, out)) == 0
    return str(out)


def test_forecast_smoke(workspace):
    fit = _fitted(workspace)
    out = workspace["dir"] / "fc.csv"
    rc = main(["forecast", "--fit", fit, "--monthly", workspace["monthly"],
               "--surrogate", workspace["surrogate"], "--future",
               workspace["future"], "--horizon", "6", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["method", "h", "point"]
    methods = {r[0] for r in rows[1:]}
    assert methods == {"JOINT", "AR", "RW", "AVE"}
    assert len(rows) == 1 + 4 * 6


def test_forecast_rw_matches_last_observation(workspace):
    fit = _fitted(workspace)
    out = workspace["dir"] / "fc.csv"
    main(["forecast", "--fit", fit, "--monthly", workspace["monthly"],
          "--surrogate", workspace["surrogate"], "--future",
          workspace["future"], "--horizon", "3", "--out", str(out)])
    monthly_rows = _read_rows(workspace["monthly"])
    last_y = float(monthly_rows[-1][1])
    rw = [float(r[2]) for r in _read_rows(out)[1:] if r[0] == "RW"]
    assert rw == [last_y] * 3


def test_forecast_missing_future_rows(workspace, capsys):
    fit = _fitted(workspace)
    rc = main(["forecast", "--fit", fit, "--monthly", workspace["monthly"],
               "--surrogate", workspace["surrogate"], "--future",
               workspace["future"], "--horizon", "12",
               "--out", str(workspace["dir"] / "fc.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["code"] == "MissingExogenous"


def test_forecast_surrogate_shorter_than_history(workspace, capsys):
    fit = _fitted(workspace)
    short = workspace["dir"] / "short_surrogate.csv"
    with open(short, "w", newline="") as fh:
        csv.writer(fh).writerows(_read_rows(workspace["surrogate"])[:-8])
    capsys.readouterr()
    rc = main(["forecast", "--fit", fit, "--monthly", workspace["monthly"],
               "--surrogate", str(short), "--future", workspace["future"],
               "--horizon", "3", "--out", str(workspace["dir"] / "fc.csv")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert json.loads(err[0])["code"] == "PanelMismatch"


# ---------------------------------------------------------------------------
# interval
# ---------------------------------------------------------------------------

def _interval(workspace, fit, out, *extra):
    return main(["interval", "--fit", fit, "--monthly", workspace["monthly"],
                 "--surrogate", workspace["surrogate"], "--future",
                 workspace["future"], "--horizon", "4", "--out", str(out),
                 *extra])


def test_interval_bj_and_boot_share_points(workspace):
    fit = _fitted(workspace)
    bj = workspace["dir"] / "bj.csv"
    bt = workspace["dir"] / "bt.csv"
    assert _interval(workspace, fit, bj, "--method", "bj") == 0
    assert _interval(workspace, fit, bt, "--method", "boot", "--B", "120",
                     "--seed", "5") == 0
    pts_bj = [r[1] for r in _read_rows(bj)[1:]]
    pts_bt = [r[1] for r in _read_rows(bt)[1:]]
    assert pts_bj == pts_bt


def test_interval_alpha_nesting(workspace):
    fit = _fitted(workspace)
    wide = workspace["dir"] / "a05.csv"
    narrow = workspace["dir"] / "a10.csv"
    _interval(workspace, fit, wide, "--method", "bj", "--alpha", "0.05")
    _interval(workspace, fit, narrow, "--method", "bj", "--alpha", "0.10")
    for rw, rn in zip(_read_rows(wide)[1:], _read_rows(narrow)[1:]):
        assert float(rn[2]) > float(rw[2]) and float(rn[3]) < float(rw[3])


def test_interval_boot_seeded_rerun_identical(workspace):
    fit = _fitted(workspace)
    a = workspace["dir"] / "b1.csv"
    b = workspace["dir"] / "b2.csv"
    _interval(workspace, fit, a, "--method", "boot", "--B", "150", "--seed", "3")
    _interval(workspace, fit, b, "--method", "boot", "--B", "150", "--seed", "3")
    assert a.read_bytes() == b.read_bytes()


def test_interval_boot_negative_seed_is_data_error(workspace, capsys):
    fit = _fitted(workspace)
    capsys.readouterr()
    out = workspace["dir"] / "never.csv"
    assert _interval(workspace, fit, out, "--method", "boot", "--B", "100",
                     "--seed", "-1") == 3
    assert _one_error_code(capsys) == "InvalidData"
    assert not out.exists()


def test_interval_boot_history_longer_than_fit(workspace, capsys):
    # fit on the first 30 months, then pass all 34 as the history
    short = {}
    for name in ("monthly", "surrogate"):
        rows = _read_rows(workspace[name])[:31]
        short[name] = workspace["dir"] / f"short_{name}.csv"
        with open(short[name], "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    fit = workspace["dir"] / "short_fit.json"
    assert main(["fit", "--monthly", str(short["monthly"]), "--surrogate",
                 str(short["surrogate"]), "--q1", "2", "--q2", "1",
                 "--out", str(fit)]) == 0
    capsys.readouterr()
    rc = _interval(workspace, str(fit), workspace["dir"] / "bt.csv",
                   "--method", "boot", "--B", "120")
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["code"] == "PanelMismatch"


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_smoke(workspace, capsys):
    out = workspace["dir"] / "sel.csv"
    rc = main(["select", "--monthly", workspace["monthly"], "--q-max", "3",
               "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["step", "column", "aic", "accepted"]
    assert rows[1][0] == "0"


def test_select_needs_x_columns(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "y"])
        for i, v in enumerate(np.sin(np.arange(30.0))):
            w.writerow([f"2020-{i % 12 + 1:02d}" if False else
                        f"{2020 + i // 12}-{i % 12 + 1:02d}", repr(v)])
    rc = main(["select", "--monthly", str(path), "--q-max", "2",
               "--out", str(tmp_path / "sel.csv")])
    assert rc == 3


def test_select_short_series_is_one_error_line(tmp_path, capsys):
    # 7 months cannot score AR(1)..AR(4), which needs T > 2 * 4 + 2
    path = tmp_path / "short.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "y", "x_1"])
        for i in range(7):
            w.writerow([f"2020-{i + 1:02d}", repr(float(np.sin(i))),
                        repr(float(np.cos(i)))])
    rc = main(["select", "--monthly", str(path), "--q-max", "4",
               "--out", str(tmp_path / "sel.csv")])
    assert rc == 3
    assert _one_error_code(capsys) == "InsufficientSample"


def test_select_strict_threshold_accepts_less(workspace):
    loose = workspace["dir"] / "loose.csv"
    strict = workspace["dir"] / "strict.csv"
    main(["select", "--monthly", workspace["monthly"], "--q-max", "3",
          "--out", str(loose)])
    main(["select", "--monthly", workspace["monthly"], "--q-max", "3",
          "--min-decrease", "5.0", "--out", str(strict)])
    n_loose = sum(1 for r in _read_rows(loose)[1:] if r[3] == "1")
    n_strict = sum(1 for r in _read_rows(strict)[1:] if r[3] == "1")
    assert n_strict <= n_loose


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_smoke(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "2",
               "--seed", "1", "--skip-boot", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["variant", "rho", "H", "method", "metric", "value"]
    assert len(rows) > 5


def test_simulate_seeded_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--rho-grid", "0.1", "--H-grid", "8", "--Q", "3",
            "--seed", "7", "--B", "100"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_negative_seed_is_data_error(tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main(["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "1",
               "--B", "100", "--seed", "-1", "--out", str(out)])
    assert rc == 3
    assert _one_error_code(capsys) == "InvalidData"
    assert not out.exists()


def test_simulate_negative_rho_rerun_identical(tmp_path):
    # rho in (-1/3, 0) is a valid equicorrelated process; -1e-1 is also a
    # value argparse would otherwise read as an option
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--rho-grid", "-1e-1,0.2", "--H-grid", "8", "--Q", "2",
            "--seed", "3", "--skip-boot"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert {r[1] for r in _read_rows(a)[1:]} == {"-0.1", "0.2"}


def test_simulate_variant_flag(tmp_path):
    out = tmp_path / "omit.csv"
    rc = main(["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "2",
               "--seed", "1", "--variant", "omitted", "--skip-intervals",
               "--out", str(out)])
    assert rc == 0
    assert all(r[0] == "omitted" for r in _read_rows(out)[1:])


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

def test_efficiency_closed_form(capsys):
    rc = main(["efficiency", "--sigma-tt", "1.0", "--rho", "0.4", "--K", "3"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0 / 0.52, rel=1e-9)


def test_efficiency_explicit_matrices(capsys):
    rc = main(["efficiency", "--sigma-tt", "1.0", "--sigma-ts", "0.4,0.4,0.4",
               "--sigma-ss", "1,0,0;0,1,0;0,0,1"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.92308, abs=5e-6)


def test_efficiency_pd_violation_exit_code(capsys):
    rc = main(["efficiency", "--sigma-tt", "1.0", "--rho", "1.0", "--K", "1"])
    assert rc == 4
    assert json.loads(capsys.readouterr().err.strip())["code"] == "InvalidCovariance"


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--rho-grid", "0.1,abc", "--out", "never.csv"], "--rho-grid"),
    (["simulate", "--rho-grid", "0.1,nan", "--out", "never.csv"], "--rho-grid"),
    (["simulate", "--H-grid", "8,x", "--out", "never.csv"], "--H-grid"),
    (["efficiency", "--sigma-ts", "0.4,y", "--sigma-ss", "1,0;0,1"], "--sigma-ts"),
    (["efficiency", "--sigma-ts", "0.4,0.4", "--sigma-ss", "1,0;0,1,2"], "--sigma-ss"),
    (["efficiency", "--K", "-1"], "--K"),
    (["efficiency", "--K", "0"], "--K"),
    (["efficiency", "--sigma-tt", "nan"], "--sigma-tt"),
    (["efficiency", "--rho", "nan"], "--rho"),
    (["efficiency", "--rho", "inf"], "--rho"),
    (["standardize", "--input", "raw.csv", "--train-size", "-1", "--out", "never.csv"],
     "--train-size"),
    (["standardize", "--input", "raw.csv", "--train-size", "-4", "--out", "never.csv"],
     "--train-size"),
    (["standardize", "--input", "raw.csv", "--train-size", "0", "--out", "never.csv"],
     "--train-size"),
    (["simulate", "--workers", "0", "--out", "never.csv"], "--workers"),
    (["simulate", "--workers", "-3", "--out", "never.csv"], "--workers"),
    (["select", "--monthly", "m.csv", "--min-decrease", "nan", "--out", "never.csv"],
     "--min-decrease"),
    (["select", "--monthly", "m.csv", "--min-decrease", "inf", "--out", "never.csv"],
     "--min-decrease"),
    (["select", "--monthly", "m.csv", "--min-decrease=-inf", "--out", "never.csv"],
     "--min-decrease"),
    (["standardize", "--input", "raw.csv", "--base", "nan", "--out", "never.csv"],
     "--base"),
    (["standardize", "--input", "raw.csv", "--base", "inf", "--out", "never.csv"],
     "--base"),
])
def test_malformed_numeric_flag_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_negative_infinity_reaches_the_converter(capsys):
    # -inf is joined to its flag, so the finite check rejects it, not
    # argparse's "expected one argument"
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--rho", "-inf"])
    assert exc.value.code == 2
    assert "argument --rho: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [("--x-scale", "nan", "x_scale"),
                                              ("--x-scale", "0", "x_scale"),
                                              ("--alpha", "1.5", "alpha"),
                                              # training windows too short
                                              ("--H-grid", "8,49", "horizons"),
                                              ("--total-months", "14", "horizons")])
def test_simulate_invalid_grid_named_before_any_rep(flag, value, field, tmp_path,
                                                    capsys):
    out = tmp_path / "never.csv"
    rc = main(["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "1",
               flag, value, "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "InvalidData" and field in err["detail"]
    assert not out.exists()


def test_efficiency_mis_sized_covariance_exit_code(capsys):
    rc = main(["efficiency", "--sigma-ts", "0.4,0.4,0.4", "--sigma-ss", "1,0;0,1"])
    assert rc == 3
    assert _one_error_code(capsys) == "InvalidData"


# ---------------------------------------------------------------------------
# aggregate-daily
# ---------------------------------------------------------------------------

def _write_daily(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "score"])
        w.writerows(rows)


def test_aggregate_daily_block_means(tmp_path, capsys):
    daily = tmp_path / "daily.csv"
    _write_daily(daily, [[f"2021-01-{d:02d}", repr(d / 31)] for d in range(1, 32)])
    out = tmp_path / "sur.csv"
    rc = main(["aggregate-daily", "--daily", str(daily), "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == ["month", "ys_1", "ys_2", "ys_3"]
    np.testing.assert_allclose([float(v) for v in rows[1][1:]],
                               [5.5 / 31, 15.5 / 31, 26 / 31], atol=1e-12)


def test_aggregate_daily_missing_block(tmp_path, capsys):
    daily = tmp_path / "daily.csv"
    _write_daily(daily, [[f"2021-01-{d:02d}", "0.4"] for d in range(1, 15)])
    rc = main(["aggregate-daily", "--daily", str(daily),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["code"] == "MissingPeriod"


def test_aggregate_daily_roundtrip_readable(tmp_path):
    daily = tmp_path / "daily.csv"
    _write_daily(daily, [[f"2021-0{m}-{d:02d}", repr(0.1 * m + d / 100)]
                         for m in (1, 2) for d in range(1, 29)])
    out = tmp_path / "sur.csv"
    assert main(["aggregate-daily", "--daily", str(daily), "--K", "2",
                 "--out", str(out)]) == 0
    from surrocast import read_surrogate_csv

    sp = read_surrogate_csv(str(out))
    assert sp.K == 2 and sp.times == ("2021-01", "2021-02")


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

def _write_two_col(path, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "value"])
        for i, v in enumerate(values):
            w.writerow([f"{2020 + i // 12}-{i % 12 + 1:02d}", repr(v)])


def test_standardize_cpi_mode(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    _write_two_col(src, [99.0, 101.0])
    out = tmp_path / "std.csv"
    rc = main(["standardize", "--input", str(src), "--mode", "cpi",
               "--base", "100", "--out", str(out)])
    assert rc == 0
    params = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert params["scale"] == pytest.approx(np.sqrt(2))
    values = [float(r[1]) for r in _read_rows(out)[1:]]
    np.testing.assert_allclose(values, [-0.7071, 0.7071], atol=5e-5)


def test_standardize_base_with_negative_exponent(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    _write_two_col(src, [99.0, 101.0])
    rc = main(["standardize", "--input", str(src), "--base", "-1e3",
               "--out", str(tmp_path / "std.csv")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip())["offset"] == -1000.0


def test_standardize_z_mode(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    _write_two_col(src, [1.0, 2.0, 3.0])
    out = tmp_path / "std.csv"
    rc = main(["standardize", "--input", str(src), "--mode", "z",
               "--out", str(out)])
    assert rc == 0
    values = [float(r[1]) for r in _read_rows(out)[1:]]
    np.testing.assert_allclose(values, [-1.0, 0.0, 1.0], atol=1e-12)


def test_standardize_degenerate_series(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    _write_two_col(src, [100.0, 100.0, 100.0])
    rc = main(["standardize", "--input", str(src), "--mode", "cpi",
               "--base", "100", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["code"] == "DegenerateSeries"


@pytest.mark.parametrize("mode", ["cpi", "z"])
def test_standardize_huge_values(mode, tmp_path, capsys):
    # |v| of 1e200 standardizes without a word on stderr; a spread beyond
    # the largest double is one JSON error line, not "zero sample variance"
    src, out = tmp_path / "raw.csv", tmp_path / "std.csv"
    _write_two_col(src, [1e200, -1e200, 1e200, -1e200])
    assert main(["standardize", "--input", str(src), "--mode", mode,
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["scale"] == pytest.approx(2e200 / np.sqrt(3.0))
    _write_two_col(src, [1.7e308, -1.7e308, 1.7e308, -1.7e308])
    assert main(["standardize", "--input", str(src), "--mode", mode,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "code": "DegenerateSeries",
        "detail": "series spread overflows a double; cannot standardize"}


def test_simulate_huge_covariates_at_most_one_json_line(tmp_path, capsys):
    # the target reaches |y| ~ 1e160, whose spread used to overflow; what
    # the fit then says of x at that scale is one JSON line on stderr
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "2",
               "--seed", "1", "--skip-boot", "--x-scale", "1e160",
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert len(err) <= 1
    if err:
        assert rc in (3, 4)
        assert json.loads(err[0])["code"] != "DegenerateSeries"
    else:
        assert rc == 0 and out.exists()


def test_simulate_duplicate_grid_value_is_data_error(tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main(["simulate", "--rho-grid", "0.3,0.3", "--H-grid", "8", "--Q", "1",
               "--skip-boot", "--out", str(out)])
    assert rc == 3
    assert _one_error_code(capsys) == "InvalidData"
    assert not out.exists()


def test_standardize_train_size_beyond_file(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    _write_two_col(src, [99.0, 101.0, 100.5, 98.0, 102.0, 100.0])
    out = tmp_path / "s.csv"
    rc = main(["standardize", "--input", str(src), "--train-size", "7",
               "--out", str(out)])
    assert rc == 3
    assert _one_error_code(capsys) == "InvalidData"
    assert not out.exists()


def test_interval_boot_oversized_request_is_memory_error(workspace, capsys):
    # 1e13 replicates ask numpy for petabytes at once, which fails at once
    fit = _fitted(workspace)
    capsys.readouterr()
    out = workspace["dir"] / "never.csv"
    assert _interval(workspace, fit, out, "--method", "boot",
                     "--B", "10000000000000") == 3
    assert _one_error_code(capsys) == "MemoryError"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the history and future must belong to the fit
# ---------------------------------------------------------------------------

def _one_error_code(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    return json.loads(err[0])["code"]


@pytest.mark.parametrize("command", [["forecast"], ["interval", "--method", "bj"]])
def test_fit_of_another_draw_rejected(workspace, tmp_path, capsys, command):
    # same months and widths, different draw: only the residuals differ
    (tmp_path / "other").mkdir()
    other = _write_workspace(tmp_path / "other", seed=78)
    fit = tmp_path / "other" / "fit.json"
    assert main(_fit_args(other, fit)) == 0
    capsys.readouterr()
    rc = main([*command, "--fit", str(fit), "--monthly", workspace["monthly"],
               "--surrogate", workspace["surrogate"], "--future",
               workspace["future"], "--horizon", "3",
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    assert _one_error_code(capsys) == "PanelMismatch"


@pytest.mark.parametrize("method", ["bj", "boot"])
def test_surrogate_narrower_than_fit_rejected(workspace, capsys, method):
    fit = _fitted(workspace)
    narrow = workspace["dir"] / "narrow_surrogate.csv"
    with open(narrow, "w", newline="") as fh:
        csv.writer(fh).writerows(r[:3] for r in _read_rows(workspace["surrogate"]))
    capsys.readouterr()
    rc = main(["interval", "--fit", fit, "--monthly", workspace["monthly"],
               "--surrogate", str(narrow), "--future", workspace["future"],
               "--horizon", "3", "--method", method, "--B", "100",
               "--out", str(workspace["dir"] / "iv.csv")])
    assert rc == 3
    assert _one_error_code(capsys) == "PanelMismatch"


@pytest.mark.parametrize("relabel", [
    lambda last, months: ["1999-01"] * len(months),
    lambda last, months: months[1:] + ["2099-01"],
    lambda last, months: [last] + months[:-1],
    lambda last, months: months[:2] + months[3:] + ["2099-01"],
], ids=["constant", "late_start", "overlapping_start", "gap"])
def test_future_months_must_continue_history(workspace, capsys, relabel):
    fit = _fitted(workspace)
    rows = _read_rows(workspace["future"])
    last = _read_rows(workspace["monthly"])[-1][0]
    for row, label in zip(rows[1:], relabel(last, [row[0] for row in rows[1:]])):
        row[0] = label
    bad = workspace["dir"] / "bad_future.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    rc = main(["forecast", "--fit", fit, "--monthly", workspace["monthly"],
               "--surrogate", workspace["surrogate"], "--future", str(bad),
               "--horizon", "3", "--out", str(workspace["dir"] / "fc.csv")])
    assert rc == 3
    assert _one_error_code(capsys) == "PanelMismatch"


# ---------------------------------------------------------------------------
# malformed inputs: exit 3 with one JSON line, whatever the command
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Valid inputs of every command; the fuzz corrupts copies of them."""
    ws = _write_workspace(tmp_path_factory.mktemp("pristine"))
    ws["fit"] = str(ws["dir"] / "fit.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_fit_args(ws, ws["fit"])) == 0
    ws["daily"] = str(ws["dir"] / "daily.csv")
    _write_daily(ws["daily"],
                 [[f"2021-01-{d:02d}", repr(d / 31)] for d in range(1, 32)])
    ws["raw"] = str(ws["dir"] / "raw.csv")
    _write_two_col(ws["raw"], [99.0, 101.0, 100.5, 98.7])
    return ws


_INPUTS = {
    "fit": ("monthly", "surrogate"),
    "forecast": ("fit", "monthly", "surrogate", "future"),
    "interval": ("fit", "monthly", "surrogate", "future"),
    "aggregate-daily": ("daily",),
    "select": ("monthly",),
    "standardize": ("raw",),
}
_NUMBERED = ("monthly", "surrogate", "future")  # files with x_/z_/ys_ blocks
_CSV_KINDS = ("non_utf8", "ragged", "x2_without_x1", "non_numeric", "nan",
              "empty", "header_only")
_FIT_KINDS = ("truncated_json", "deep_json", "missing_alpha_hat", "long_alpha_hat")
_FUZZ_CASES = [
    (command, kind) for command, inputs in _INPUTS.items()
    for kind in _CSV_KINDS + (_FIT_KINDS if "fit" in inputs else ())
    if kind != "x2_without_x1" or set(inputs) & set(_NUMBERED)
]


def _argv(command, paths, draw):
    out = ["--out", str(paths["dir"] / "fuzz_out.csv")]
    if command == "fit":
        return _fit_args(paths, paths["dir"] / "fuzz_fit.json")
    if command in ("forecast", "interval"):
        argv = [command, "--fit", paths["fit"], "--monthly", paths["monthly"],
                "--surrogate", paths["surrogate"], "--future", paths["future"],
                "--horizon", "3", *out]
        if command == "interval":
            argv += ["--method", draw(st.sampled_from(["bj", "boot"])), "--B", "50"]
        return argv
    if command == "aggregate-daily":
        return ["aggregate-daily", "--daily", paths["daily"], *out]
    if command == "select":
        return ["select", "--monthly", paths["monthly"], "--q-max", "2", *out]
    return ["standardize", "--input", paths["raw"], *out]


def _corrupt(kind, raw, draw):
    """``raw`` file bytes with one defect of the given kind."""
    if kind == "non_utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    if kind == "empty":
        return b""
    if kind == "header_only":
        return raw.split(b"\n", 1)[0] + b"\n"
    if kind == "truncated_json":
        return raw[:draw(st.integers(0, len(raw) - 2))]  # at least "}\n" goes
    if kind == "deep_json":
        return b"[" * draw(st.integers(10**5, 2 * 10**5))
    if kind in _FIT_KINDS:
        doc = json.loads(raw)
        if kind == "missing_alpha_hat":
            del doc["alpha_hat"]
        else:
            doc["alpha_hat"].append(draw(st.floats(-1.0, 1.0)))
        return json.dumps(doc).encode()
    rows = list(csv.reader(io.StringIO(raw.decode())))
    r = draw(st.integers(1, len(rows) - 1))
    if kind == "ragged":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0.5"]
    elif kind == "x2_without_x1":
        firsts = [i for i, name in enumerate(rows[0])
                  if re.fullmatch(r"(z|x|ys)_1", name)]
        c = draw(st.sampled_from(firsts))
        rows = [row[:c] + row[c + 1:] for row in rows]
    else:
        c = draw(st.integers(1, len(rows[r]) - 1))
        rows[r][c] = draw(st.sampled_from(
            ["abc", "", "1.2.3", "0x1p3", "--1"] if kind == "non_numeric"
            else ["nan", "NaN", "inf", "-Infinity", "1e999"]))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


@pytest.mark.parametrize("command,kind", _FUZZ_CASES)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_malformed_input_exits_3(pristine, command, kind, data):
    inputs = _INPUTS[command]
    if kind in _FIT_KINDS:
        name = "fit"
    elif kind in ("non_utf8", "empty"):
        name = data.draw(st.sampled_from(inputs))
    else:
        name = data.draw(st.sampled_from(
            [n for n in inputs if n != "fit"
             and (kind != "x2_without_x1" or n in _NUMBERED)]))
    with open(pristine[name], "rb") as fh:
        raw = fh.read()
    paths = dict(pristine)
    paths[name] = str(pristine["dir"] / f"fuzz_{name}")
    with open(paths[name], "wb") as fh:
        fh.write(_corrupt(kind, raw, data.draw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(_argv(command, paths, data.draw))
    lines = err.getvalue().splitlines()
    assert rc == 3, lines
    assert len(lines) == 1 and "Traceback" not in lines[0]
    assert set(json.loads(lines[0])) == {"code", "detail"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["interval", "--method", "nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# start-up: the runtime loads nothing but the standard library and numpy
# ---------------------------------------------------------------------------

_OUTSIDE_MODULES = """
import json, sys
at_start = set(sys.modules)  # __main__ and what the site hooks loaded
# numpy.random's Cython extensions register cython_runtime and _cython_<version>
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "surrocast", "cython_runtime"}
def loaded():
    new = [m for m in sys.modules if m not in at_start]
    return {"outside": sorted(m for m in new if m.split(".")[0] not in ALLOWED
                              and not m.startswith("_cython_")),
            "surrocast": sorted(m for m in new if m.split(".")[0] == "surrocast"),
            "numpy": "numpy" in sys.modules}
import surrocast
seen = {"import surrocast": loaded()}
import surrocast.cli
seen["import surrocast.cli"] = loaded()
for label, argv in json.loads(sys.argv[1]):
    assert surrocast.cli.main(argv) == 0, argv
    seen[label] = loaded()
print(json.dumps(seen))
"""


def _python(*args):
    """A fresh interpreter that imports surrocast from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def _every_command(ws):
    """(label, argv, the surrocast modules it adds to those of the commands
    before it) for each subcommand, in an order where each adds the modules
    the last did not."""
    d = ws["dir"]
    _write_daily(d / "daily.csv", [[f"2021-01-{k:02d}", repr(k / 31)]
                                   for k in range(1, 32)])
    _write_two_col(d / "raw.csv", [99.0, 101.0, 100.5])
    common = ["--fit", str(d / "fit.json"), "--monthly", ws["monthly"],
              "--surrogate", ws["surrogate"], "--future", ws["future"],
              "--horizon", str(ws["horizon"])]
    return [
        ("aggregate-daily", ["aggregate-daily", "--daily", str(d / "daily.csv"),
                             "--out", str(d / "s.csv")], ["panels"]),
        ("standardize", ["standardize", "--input", str(d / "raw.csv"),
                         "--out", str(d / "std.csv")], []),
        ("fit", _fit_args(ws, d / "fit.json"), ["estimation"]),
        ("forecast", ["forecast", *common, "--out", str(d / "fc.csv")], ["forecasting"]),
        ("interval bj", ["interval", "--method", "bj", *common,
                         "--out", str(d / "bj.csv")], ["intervals"]),
        ("interval boot", ["interval", "--method", "boot", "--B", "100", *common,
                           "--out", str(d / "boot.csv")], []),
        ("select", ["select", "--monthly", ws["monthly"], "--out", str(d / "sel.csv")],
         ["selection"]),
        ("efficiency", ["efficiency", "--sigma-tt", "1.0", "--rho", "0.3"], []),
        ("simulate", ["simulate", "--rho-grid", "0.2", "--H-grid", "8", "--Q", "2",
                      "--B", "100", "--out", str(d / "sim.csv")], ["simulation"]),
    ]


def test_data_commands_do_not_import_scipy(workspace):
    # importing scipy.stats cost about 1.2 s of every command's start-up;
    # the package, the data commands and the simulator must load no module
    # outside the standard library, numpy and surrocast (scipy is only the
    # tests' oracle). Within surrocast, a bare import loads no numpy and
    # each command loads only the modules it runs: the commands run in one
    # process, in an order where each adds the modules the last did not.
    commands = _every_command(workspace)
    proc = _python("-c", _OUTSIDE_MODULES,
                   json.dumps([(label, argv) for label, argv, _ in commands]))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(seen) == 2 + len(commands)
    assert all(step["outside"] == [] for step in seen.values()), seen
    assert seen["import surrocast"]["surrocast"] == ["surrocast", "surrocast.errors"]
    assert not seen["import surrocast"]["numpy"]
    before = ["surrocast", "surrocast.cli", "surrocast.errors"]
    assert seen["import surrocast.cli"]["surrocast"] == before
    for label, _, adds in commands:
        after = seen[label]["surrocast"]
        assert sorted(set(after) - set(before)) == [f"surrocast.{m}" for m in adds], label
        before = after


def test_efficiency_loads_only_panels_and_estimation():
    # the closed-form gain needs no forecasting or interval code
    proc = _python("-c", "import json, sys; from surrocast.cli import main; "
                   "main(['efficiency']); print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith("surrocast")] == [
        "surrocast", "surrocast.cli", "surrocast.errors", "surrocast.estimation",
        "surrocast.panels"]


def test_module_entry_point():
    # under python -m the CLI module runs as __main__, and its names resolve
    # through that module
    proc = _python("-m", "surrocast.cli", "efficiency", "--rho", "0.3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(efficiency_gain(1.0, np.full(3, 0.3), np.eye(3))) + "\n"


# ---------------------------------------------------------------------------
# lazy names: the package's public names and the CLI's globals
# ---------------------------------------------------------------------------

def test_package_names_resolve_lazily():
    import surrocast
    for name in surrocast.__all__:
        if name == "errors" or name in surrocast._PUBLIC:
            want = importlib.import_module(f"surrocast.{name}")
        else:
            want = getattr(importlib.import_module(
                "surrocast." + surrocast._MODULE_OF.get(name, "errors")), name)
        assert getattr(surrocast, name) is want, name
    # the name table is the one list: each submodule exports it, and every
    # name in it is defined in the submodule it is filed under
    for module, names in surrocast._PUBLIC.items():
        submodule = importlib.import_module(f"surrocast.{module}")
        assert submodule.__all__ is names, module
        for name in names:
            assert getattr(submodule, name).__module__ == submodule.__name__, name
    assert set(surrocast.__all__) <= set(dir(surrocast))
    namespace = {}
    exec("from surrocast import *", namespace)
    assert {name: namespace[name] for name in surrocast.__all__} == {
        name: getattr(surrocast, name) for name in surrocast.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        surrocast.no_such_name
    with pytest.raises(ImportError):
        exec("from surrocast import no_such_name", {})


def test_cli_lazy_names_resolve():
    import surrocast
    import surrocast.cli as cli
    for name, module in cli._HELPERS.items():
        assert getattr(cli, name) is getattr(
            importlib.import_module(f"surrocast.{module}"), name), name
    for name in surrocast._MODULE_OF:
        assert getattr(cli, name) is getattr(surrocast, name), name
    for name in ("no_such_name", "errors", "__version__"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


def test_every_command_reaches_every_traced_layer(workspace, tracing):
    # perfbench/tracing.py times the commands by wrapping the names they look
    # up on surrocast.cli; a call routed around _lib would leave its layer
    # empty in a traced benchmark run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv, _ in _every_command(workspace):
                assert main(argv) == 0, label
    finally:
        tracer.remove()
    calls = tracer.calls()
    layers = set(tracing.TARGETS["surrocast.cli"].values())
    assert {layer for layer in layers if calls[layer] == 0} == set()


def test_wrapper_patched_before_main_is_called(workspace, monkeypatch):
    # a tracer replaces the CLI's names before main runs; resolving the names
    # a command calls must keep the wrapper. Patched here: a public name, a
    # CLI-only helper, and a name whose module's other name fit_joint is
    # first looked up after the patch
    import surrocast.cli as cli
    d = workspace["dir"]
    _write_two_col(d / "raw.csv", [99.0, 101.0, 100.5])
    fit = _fit_args(workspace, d / "fit.json")
    standardize = ["standardize", "--input", str(d / "raw.csv"), "--out", str(d / "std.csv")]
    for argv, name, unbound in ((fit, "fit_joint", ()), (standardize, "_read_rows", ()),
                                (fit, "joint_fit_to_dict", ("fit_joint",))):
        with monkeypatch.context() as patch:
            for other in unbound:
                patch.delitem(vars(cli), other, raising=False)
            calls, original = [], getattr(cli, name)

            def counting(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            patch.setattr(cli, name, counting)
            assert main(argv) == 0
        assert len(calls) == 1, name
