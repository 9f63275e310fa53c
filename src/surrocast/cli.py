"""Command-line interface for reproducible fit/forecast/simulate pipelines.

Every subcommand is a pure function of its inputs, flags, and seed: reruns
produce byte-identical outputs. Failures print one machine-readable JSON line
on stderr (fields ``code`` and ``detail``) and exit with status 3 for data
and file errors or 4 for numerical errors; argparse reports usage errors
with 2. A file error's code is the name of its OSError subclass.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import (
    InvalidData,
    NumericalError,
    PanelMismatch,
    SurrocastError,
)
from .estimation import (
    fit_arx,
    fit_joint,
    joint_fit_from_dict,
    joint_fit_to_dict,
    residual_pairs,
)
from .forecasting import (
    FutureExogenous,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
)
from .intervals import (BootstrapConfig, _fitted_design, bj_interval, boot_interval,
                        efficiency_gain)
from .panels import (
    aggregate_daily,
    read_daily_csv,
    read_monthly_csv,
    read_surrogate_csv,
    standardize_cpi,
    standardize_z,
    write_surrogate_csv,
    _parse_float,
    _parse_month,
    _read_rows,
    _read_table,
    _write_csv,
)
from .selection import correlation_pursuit
from .simulation import VARIANTS, ExperimentGrid, run_experiment

__all__ = ["main"]


# argparse type= converters: a malformed value is a usage error (exit 2).

def _converter(parse, valid, expected: str):
    """A type= function: parse(text), accepted only when valid(value)."""
    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _split(kind):
    return lambda text: [kind(v) for v in text.split(",") if v.strip()]


_floats = _converter(_split(float), lambda vs: all(map(math.isfinite, vs)),
                     "comma-separated finite numbers")
_ints = _converter(_split(int), lambda vs: True, "comma-separated integers")
_finite_float = _converter(float, math.isfinite, "a finite number")
_positive_int = _converter(int, lambda v: v >= 1, "a positive integer")


def _matrix(text: str) -> np.ndarray:
    rows = [_floats(row) for row in text.split(";")]
    if len({len(row) for row in rows}) != 1:
        raise argparse.ArgumentTypeError(
            f"matrix rows (separated by ';') differ in length: {text!r}")
    return np.array(rows)


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    mp = read_monthly_csv(args.monthly)
    sp = read_surrogate_csv(args.surrogate)
    jf, sf = fit_joint(mp, sp, args.q1, args.q2)
    doc = joint_fit_to_dict(jf, sf)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if args.residual_pairs:
        _write_csv(args.residual_pairs, ["e"] + [f"eps_s_{k + 1}" for k in range(sf.K)],
                   residual_pairs(jf, sf).tolist())
    print(f"fitted joint model (q1={args.q1}, q2={args.q2}) "
          f"on {mp.T} months -> {args.out}")
    return 0


def _load_fit_and_history(args):
    """The fit, the history it was estimated on, and the future rows
    ``month[,z_*][,x_*][,ys_*]`` of the months that follow. A forecast that
    needs more future rows than there are raises MissingExogenous."""
    with open(args.fit, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidData(f"{args.fit}: not a JSON document ({exc})") from None
    jf, sf = joint_fit_from_dict(doc)
    mp = read_monthly_csv(args.monthly)
    sp = read_surrogate_csv(args.surrogate)
    _fitted_design(jf, sf, mp, sp)
    months, (z, x, ys) = _read_table(args.future, ("month",), ("z_", "x_", "ys_"))
    first = _parse_month(mp.times[-1]) + 1
    if [_parse_month(m) for m in months] != list(range(first, first + len(months))):
        raise PanelMismatch(f"{args.future}: months {months[0]}..{months[-1]} do not "
                            f"run on consecutively from the history's {mp.times[-1]}")
    return jf, sf, mp, sp, FutureExogenous(z, x, ys)


def _cmd_forecast(args) -> int:
    jf, sf, mp, sp, fut = _load_fit_and_history(args)
    H = args.horizon
    forecasts = (
        forecast_joint(jf, sf, mp, sp, fut, H),
        forecast_arx(fit_arx(mp.y, jf.q1), mp.y, None, H),
        forecast_rw(mp.y, H),
        forecast_ave(mp.y, H),
    )
    rows = [[fc.method.value, h + 1, float(v)]
            for fc in forecasts for h, v in enumerate(fc.point)]
    _write_csv(args.out, ["method", "h", "point"], rows)
    print(f"wrote {len(rows)} forecast rows -> {args.out}")
    return 0


def _cmd_interval(args) -> int:
    jf, sf, mp, sp, fut = _load_fit_and_history(args)
    H = args.horizon
    fc = forecast_joint(jf, sf, mp, sp, fut, H)
    if args.method == "bj":
        iv = bj_interval(fc, jf, args.alpha)
    else:
        cfg = BootstrapConfig(B=args.B, seed=args.seed,
                              quantile_rule=args.quantile_rule)
        iv = boot_interval(jf, sf, mp, sp, fut, H, cfg, args.alpha)
    rows = [[h + 1, float(fc.point[h]), float(iv.lower[h]), float(iv.upper[h])]
            for h in range(H)]
    _write_csv(args.out, ["h", "point", "lower", "upper"], rows)
    print(f"{args.method} interval at alpha={args.alpha} -> {args.out}")
    return 0


def _cmd_select(args) -> int:
    mp = read_monthly_csv(args.monthly)
    if mp.p < 1:
        raise InvalidData("selection needs at least one x_ column")
    res = correlation_pursuit(
        mp.y, mp.x, args.q_max,
        min_decrease=args.min_decrease,
        rerank_each_step=args.rerank,
    )
    rows = [[0, "", float(res.aic_path[0]), 1]]
    for step, (col, aic) in enumerate(zip(res.chosen, res.aic_path[1:]), start=1):
        rows.append([step, col + 1, float(aic), 1])
    if res.rejected_aic is not None:
        rows.append([len(res.chosen) + 1, "", float(res.rejected_aic), 0])
    _write_csv(args.out, ["step", "column", "aic", "accepted"], rows)
    chosen = ", ".join(f"x_{j + 1}" for j in res.chosen) or "(none)"
    print(f"AR order {res.ar_order}; selected columns: {chosen}")
    return 0


def _cmd_simulate(args) -> int:
    grid = ExperimentGrid(
        rhos=tuple(args.rho_grid),
        horizons=tuple(args.H_grid),
        variant=args.variant,
        total_months=args.total_months,
        alpha=args.alpha,
        B=args.B,
        x_scale=args.x_scale,
        include_intervals=not args.skip_intervals,
        include_boot=not args.skip_boot,
        workers=args.workers,
    )
    report = run_experiment(grid, args.Q, args.seed)
    report.to_csv(args.out)
    print(f"{len(report.rows)} report rows (Q={args.Q}) -> {args.out}")
    return 0


def _cmd_efficiency(args) -> int:
    if args.sigma_ts is not None or args.sigma_ss is not None:
        if args.sigma_ts is None or args.sigma_ss is None:
            raise InvalidData("provide both --sigma-ts and --sigma-ss")
        sigma_ts, sigma_ss = args.sigma_ts, args.sigma_ss
    else:
        sigma_ts = np.full(args.K, args.rho)
        sigma_ss = np.eye(args.K)
    value = efficiency_gain(args.sigma_tt, sigma_ts, sigma_ss)
    print(repr(value))
    return 0


def _cmd_aggregate_daily(args) -> int:
    idx = read_daily_csv(args.daily)
    sp = aggregate_daily(idx, K=args.K)
    write_surrogate_csv(args.out, sp)
    print(f"aggregated {len(idx.dates)} daily rows into {sp.T} months x K={sp.K} "
          f"-> {args.out}")
    return 0


def _cmd_standardize(args) -> int:
    header, rows, lines = _read_rows(args.input)
    if len(header) != 2 or any(len(row) != 2 for row in rows):
        raise InvalidData(f"{args.input}: expected a two-column CSV (label,value)")
    values = np.array([_parse_float(row[1], f"{args.input}:{line}")
                       for row, line in zip(rows, lines)])
    if args.mode == "cpi":
        std = standardize_cpi(values, base=args.base, train_size=args.train_size)
    else:
        std = standardize_z(values, train_size=args.train_size)
    _write_csv(args.out, header,
               [[row[0], v] for row, v in zip(rows, std.values.tolist())])
    print(json.dumps({"offset": std.offset, "scale": std.scale}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrocast",
        description="Surrogate-assisted time-series prediction pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="two-step estimation of the joint model")
    p.add_argument("--monthly", required=True,
                   help="target panel CSV: month,y[,z_*][,x_*]")
    p.add_argument("--surrogate", required=True,
                   help="surrogate panel CSV: month,ys_1..ys_K")
    p.add_argument("--q1", type=int, default=2,
                   help="target autoregressive lag order (default 2)")
    p.add_argument("--q2", type=int, default=1,
                   help="surrogate autoregressive lag order (default 1)")
    p.add_argument("--out", required=True, help="output fit document (JSON)")
    p.add_argument("--residual-pairs", default=None,
                   help="optional CSV of aligned target/surrogate residuals")
    p.set_defaults(func=_cmd_fit)

    for name, helptext in (
        ("forecast", "multi-step point forecasts for all methods"),
        ("interval", "prediction interval around the joint forecast"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--fit", required=True, help="fit document from 'fit'")
        p.add_argument("--monthly", required=True, help="history target CSV")
        p.add_argument("--surrogate", required=True, help="history surrogate CSV")
        p.add_argument("--future", required=True,
                       help="future covariates CSV: month[,z_*][,x_*][,ys_*]")
        p.add_argument("--horizon", type=int, required=True,
                       help="number of months ahead to forecast")
        p.add_argument("--out", required=True, help="output CSV")
        if name == "forecast":
            p.set_defaults(func=_cmd_forecast)
        else:
            p.add_argument("--method", choices=("bj", "boot"), default="bj",
                           help="normal-quantile or residual-bootstrap interval")
            p.add_argument("--alpha", type=float, default=0.05,
                           help="interval miss rate (default 0.05)")
            p.add_argument("--B", type=int, default=500,
                           help="bootstrap replicates (default 500)")
            p.add_argument("--seed", type=int, default=0,
                           help="bootstrap resampling seed")
            p.add_argument("--quantile-rule", choices=("ceil", "linear"),
                           default="ceil", help="bootstrap quantile convention")
            p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("select",
                       help="stepwise embedding-feature selection by corrected AIC")
    p.add_argument("--monthly", required=True,
                   help="training panel CSV with candidate x_ columns")
    p.add_argument("--q-max", type=int, default=4,
                   help="largest autoregressive order to consider (default 4)")
    p.add_argument("--min-decrease", type=_finite_float, default=1e-8,
                   help="required AIC improvement per accepted feature")
    p.add_argument("--rerank", action="store_true",
                   help="re-rank remaining candidates after each acceptance")
    p.add_argument("--out", required=True, help="output CSV of the AIC path")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="Monte Carlo evaluation harness")
    p.add_argument("--rho-grid", type=_floats, default="0.1,0.2,0.3,0.4",
                   help="comma-separated error-correlation levels")
    p.add_argument("--H-grid", type=_ints, default="8,9,10,11,12,13,14,15",
                   help="comma-separated holdout horizons")
    p.add_argument("--Q", type=int, default=500, help="repetitions per cell")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--variant", choices=VARIANTS,
                   default="base", help="robustness scenario")
    p.add_argument("--B", type=int, default=500,
                   help="bootstrap replicates per repetition")
    p.add_argument("--alpha", type=float, default=0.05, help="interval miss rate")
    p.add_argument("--total-months", type=int, default=60,
                   help="panel length before the H-month holdout")
    p.add_argument("--x-scale", type=float, default=6.0,
                   help="stationary sd of the synthetic embedding columns")
    p.add_argument("--skip-boot", action="store_true",
                   help="skip the bootstrap interval (much faster)")
    p.add_argument("--skip-intervals", action="store_true",
                   help="point-forecast metrics only")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel worker processes (same output as 1)")
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("efficiency",
                       help="prediction-error variance ratio from the surrogate")
    p.add_argument("--sigma-tt", type=_finite_float, default=1.0,
                   help="target error variance")
    p.add_argument("--rho", type=_finite_float, default=0.1,
                   help="common target/surrogate error correlation")
    p.add_argument("--K", type=_positive_int, default=3, help="surrogate dimension")
    p.add_argument("--sigma-ts", type=_floats, default=None,
                   help="explicit cross-covariances, comma-separated")
    p.add_argument("--sigma-ss", type=_matrix, default=None,
                   help="explicit surrogate covariance, rows separated by ';'")
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("aggregate-daily",
                       help="average a daily index into per-month blocks")
    p.add_argument("--daily", required=True, help="daily CSV: date,score")
    p.add_argument("--K", type=int, default=3, help="blocks per month (default 3)")
    p.add_argument("--out", required=True, help="output surrogate CSV")
    p.set_defaults(func=_cmd_aggregate_daily)

    p = sub.add_parser("standardize", help="standardize a monthly value column")
    p.add_argument("--input", required=True, help="two-column CSV (label,value)")
    p.add_argument("--mode", choices=("cpi", "z"), default="cpi",
                   help="'cpi': center at --base; 'z': center at the mean")
    p.add_argument("--base", type=_finite_float, default=100.0,
                   help="structural base value for cpi mode")
    p.add_argument("--train-size", type=_positive_int, default=None,
                   help="rows used for the spread estimate (default: all)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_standardize)

    return parser


def _join_numbers(argv: list[str]) -> list[str]:
    """Write ``--flag value`` as ``--flag=value`` when every ','/';' piece of
    value is a number: argparse takes a value such as -1e3 or -inf, which
    is not plain negative decimal digits, for an option."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _is_numeric(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _is_numeric(text: str) -> bool:
    try:
        for piece in re.split("[,;]", text):
            float(piece)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (SurrocastError, OSError) as err:
        code = err.code if isinstance(err, SurrocastError) else type(err).__name__
        print(json.dumps({"code": code, "detail": str(err)}), file=sys.stderr)
        return 4 if isinstance(err, NumericalError) else 3


if __name__ == "__main__":
    sys.exit(main())
