"""Monthly target panels, surrogate panels, and data-preparation utilities.

The target series is observed once per month together with macro covariates
``z`` and embedding covariates ``x``; the surrogate series is a K-vector per
month obtained by averaging a daily index over K within-month day blocks
(K=3: days 1-10, 11-20, 21-end). All containers are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import calendar
import csv
import datetime as _dt
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeries,
    InvalidData,
    MissingPeriod,
    PanelMismatch,
)

__all__ = [
    "MonthlyPanel",
    "SurrogatePanel",
    "DailyIndex",
    "StandardizedSeries",
    "standardize_cpi",
    "standardize_z",
    "aggregate_daily",
    "month_range",
    "check_aligned",
    "read_monthly_csv",
    "read_surrogate_csv",
    "read_daily_csv",
    "write_surrogate_csv",
]


def _parse_month(label: str) -> int:
    """Month label 'YYYY-MM' -> month ordinal (year*12 + month-1)."""
    try:
        y, m = label.split("-")
        year, month = int(y), int(m)
    except ValueError as exc:
        raise InvalidData(f"bad month label {label!r}, expected YYYY-MM") from exc
    if not 1 <= month <= 12:
        raise InvalidData(f"bad month label {label!r}, month out of range")
    return year * 12 + (month - 1)


def _format_month(ordinal: int) -> str:
    return f"{ordinal // 12:04d}-{ordinal % 12 + 1:02d}"


@functools.lru_cache(maxsize=64)
def month_range(start: str, n: int) -> tuple[str, ...]:
    """n consecutive month labels beginning at ``start`` ('YYYY-MM')."""
    first = _parse_month(start)
    return tuple(_format_month(first + i) for i in range(n))


# Simulation pipelines construct panels with identical label tuples thousands
# of times; caching makes revalidation O(1). Failures are never cached.
@functools.lru_cache(maxsize=256)
def _check_consecutive(times: tuple[str, ...]) -> None:
    ordinals = [_parse_month(t) for t in times]
    for prev, cur in zip(ordinals, ordinals[1:]):
        if cur != prev + 1:
            raise InvalidData(
                f"month labels must be consecutive; gap between "
                f"{_format_month(prev)} and {_format_month(cur)}"
            )


def _require_int(name: str, value) -> None:
    """InvalidData unless value is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidData(f"{name} must be an integer, got {value!r}")


def _require_count(name: str, value) -> None:
    """InvalidData unless value is an integer >= 1, such as a lag order, a
    horizon or a count."""
    _require_int(name, value)
    if value < 1:
        raise InvalidData(f"{name} must be >= 1, got {value}")


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InvalidData(f"{name} contains NaN or Inf")


@dataclass(frozen=True)
class MonthlyPanel:
    """Monthly target series with exogenous covariates.

    times: T consecutive month labels ('YYYY-MM').
    y:     target value per month, shape (T,).
    z:     macro covariates, shape (T, d); d may be 0.
    x:     embedding covariates, shape (T, p); p may be 0.

    A batch of panels over the same months puts the batch axes in front:
    y (..., T), z (..., T, d) and x (..., T, p).
    """

    times: tuple[str, ...]
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        T = len(self.times)
        if T < 1:
            raise InvalidData("panel must contain at least one month")
        _check_consecutive(self.times)
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if z.ndim == 1:
            z = z.reshape(T, -1) if z.size else np.zeros((T, 0))
        if x.ndim == 1:
            x = x.reshape(T, -1) if x.size else np.zeros((T, 0))
        if y.ndim < 1 or y.shape[-1] != T:
            raise InvalidData(f"y must have shape ({T},), got {y.shape}")
        if z.shape[:-1] != y.shape or x.shape[:-1] != y.shape:
            raise InvalidData("z and x must have one row per month")
        for name, arr in (("y", y), ("z", z), ("x", x)):
            _require_finite(name, arr)
        for name, arr in (("y", y), ("z", z), ("x", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return self.z.shape[-1]

    @property
    def p(self) -> int:
        return self.x.shape[-1]

    def slice(self, start: int, stop: int) -> "MonthlyPanel":
        return MonthlyPanel(
            self.times[start:stop], self.y[..., start:stop],
            self.z[..., start:stop, :], self.x[..., start:stop, :],
        )


@dataclass(frozen=True)
class SurrogatePanel:
    """K surrogate observations per month, aligned with a MonthlyPanel.

    ys: shape (T, K); row t holds the per-block averages for month t. A batch
    of panels puts the batch axes in front: (..., T, K).
    """

    times: tuple[str, ...]
    ys: np.ndarray

    def __post_init__(self):
        T = len(self.times)
        if T < 1:
            raise InvalidData("surrogate panel must contain at least one month")
        _check_consecutive(self.times)
        ys = np.asarray(self.ys, dtype=float)
        if ys.ndim < 2 or ys.shape[-2] != T:
            raise InvalidData(f"ys must be a (T, K) matrix with T={T}, got {ys.shape}")
        if ys.shape[-1] < 1:
            raise InvalidData(f"ys needs at least one column, got shape {ys.shape}")
        _require_finite("ys", ys)
        ys.setflags(write=False)
        object.__setattr__(self, "ys", ys)

    @property
    def T(self) -> int:
        return len(self.times)

    @property
    def K(self) -> int:
        return self.ys.shape[-1]

    def slice(self, start: int, stop: int) -> "SurrogatePanel":
        return SurrogatePanel(self.times[start:stop], self.ys[..., start:stop, :])


def check_aligned(mp: MonthlyPanel, sp: SurrogatePanel) -> None:
    """Reject a target/surrogate pairing whose month labels differ."""
    if mp.times != sp.times:
        raise PanelMismatch(
            f"monthly panel covers {mp.times[0]}..{mp.times[-1]} (T={mp.T}) but "
            f"surrogate covers {sp.times[0]}..{sp.times[-1]} (T={sp.T})"
        )


@dataclass(frozen=True)
class DailyIndex:
    """Daily sentiment/index observations used to build a surrogate panel."""

    dates: tuple[_dt.date, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if len(self.dates) != scores.shape[0]:
            raise InvalidData("dates and scores must have equal length")
        if scores.ndim != 1 or scores.size < 1:
            raise InvalidData("scores must be a non-empty vector")
        _require_finite("scores", scores)
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise InvalidData(f"dates must be strictly increasing ({prev} !< {cur})")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class StandardizedSeries:
    """A standardized series together with the transform that produced it.

    values = (raw - offset) / scale, so raw = values * scale + offset. A
    batch of series (..., n) has one scale per series, an array of the batch
    shape.
    """

    values: np.ndarray
    offset: float
    scale: float

    def inverse(self, values: np.ndarray | None = None) -> np.ndarray:
        v = self.values if values is None else np.asarray(values, dtype=float)
        return v * np.asarray(self.scale)[..., None] + self.offset


def _train_window(values: np.ndarray, train_size: int | None) -> np.ndarray:
    """The first ``train_size`` values along the last axis (all when None),
    which the spread is estimated on. InvalidData unless
    1 <= train_size <= the series length."""
    window = values
    n = values.shape[-1]
    if train_size is not None:
        if not 1 <= train_size <= n:
            raise InvalidData(
                f"train_size must lie in 1..{n}, got {train_size}")
        window = values[..., :train_size]
    if window.shape[-1] < 2:
        raise DegenerateSeries("need at least 2 observations to estimate a spread")
    return window


def _window_sd(window: np.ndarray) -> np.ndarray:
    """Sample sd (ddof=1) along the last axis, one per series.

    Each series is scaled by a power of two that brings its largest
    magnitude into [0.5, 1) before its spread is taken, so that the squared
    deviations cannot overflow; a power-of-two scaling is exact, so the sd
    has the bits of the unscaled computation whenever that one does not
    overflow.
    """
    exponent = np.frexp(np.max(np.abs(window), axis=-1))[1]
    # a window whose centring overflowed holds an infinity, and its sd is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.ldexp(np.std(np.ldexp(window, -exponent[..., None]), ddof=1, axis=-1),
                      exponent)
    if not np.all(np.isfinite(sd)):
        raise DegenerateSeries("series spread overflows a double; cannot standardize")
    if np.any(sd == 0.0):
        raise DegenerateSeries("series has zero sample variance; cannot standardize")
    return sd


def standardize_cpi(
    raw: np.ndarray, base: float = 100.0, train_size: int | None = None
) -> StandardizedSeries:
    """Center a raw index at ``base`` and divide by the sample sd (ddof=1).

    ``train_size`` restricts the sd estimate to the first ``train_size``
    observations so out-of-sample pipelines avoid lookahead; by default the
    whole provided series is the estimation window. A batch of series
    (..., n) is standardized series by series along the last axis; its
    scale is then an array of the batch shape.
    """
    raw = np.asarray(raw, dtype=float)
    _require_finite("series", raw)
    if not math.isfinite(base):
        raise InvalidData(f"base must be finite, got {base}")
    with np.errstate(over="ignore"):
        centered = raw - base
    if not np.all(np.isfinite(centered)):
        raise DegenerateSeries("series minus base overflows a double; cannot standardize")
    sd = _window_sd(_train_window(centered, train_size))
    return StandardizedSeries(values=centered / sd[..., None], offset=float(base),
                              scale=float(sd) if sd.ndim == 0 else sd)


def standardize_z(raw: np.ndarray, train_size: int | None = None) -> StandardizedSeries:
    """Standardize a covariate, a 1-D series, by its (training-window) mean
    and sd."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise InvalidData(f"series must be 1-D, got shape {raw.shape}")
    _require_finite("series", raw)
    window = _train_window(raw, train_size)
    with np.errstate(over="ignore"):
        mean = float(np.mean(window))
        sd = float(_window_sd(window - mean))
    return StandardizedSeries(values=(raw - mean) / sd, offset=mean, scale=sd)


def _month_blocks(n_days: int, K: int) -> list[range]:
    """Day-of-month blocks. K=3 uses the fixed split 1-10 / 11-20 / 21-end;
    other K split the month into K near-equal contiguous runs."""
    if K == 3:
        bounds = [0, 10, 20, n_days]
    else:
        bounds = [round(k * n_days / K) for k in range(K + 1)]
    return [range(bounds[k] + 1, bounds[k + 1] + 1) for k in range(K)]


def aggregate_daily(idx: DailyIndex, K: int = 3) -> SurrogatePanel:
    """Average a daily index into K per-month blocks.

    Every month between the first and last observed date must have at least
    one observation in each of its K blocks; an empty block raises
    MissingPeriod naming the month and block.
    """
    _require_count("K", K)
    first = idx.dates[0]
    last = idx.dates[-1]
    start_ord = first.year * 12 + (first.month - 1)
    stop_ord = last.year * 12 + (last.month - 1)
    times = tuple(_format_month(o) for o in range(start_ord, stop_ord + 1))
    T = len(times)

    by_month: dict[int, list[tuple[int, float]]] = {}
    for date, score in zip(idx.dates, idx.scores):
        ordinal = date.year * 12 + (date.month - 1)
        by_month.setdefault(ordinal, []).append((date.day, float(score)))

    ys = np.empty((T, K))
    for t, ordinal in enumerate(range(start_ord, stop_ord + 1)):
        year, month = ordinal // 12, ordinal % 12 + 1
        n_days = calendar.monthrange(year, month)[1]
        blocks = _month_blocks(n_days, K)
        records = by_month.get(ordinal, [])
        for k, block in enumerate(blocks):
            vals = [s for day, s in records if day in block]
            if not vals:
                raise MissingPeriod(
                    f"no daily observations in {_format_month(ordinal)} "
                    f"block {k + 1} (days {block.start}-{block.stop - 1})"
                )
            ys[t, k] = float(np.mean(vals))
    return SurrogatePanel(times=times, ys=ys)


# ---------------------------------------------------------------------------
# CSV input and output. Every file goes through _read_rows and _write_csv.
# Numeric fields must be plain decimals; NaN/Inf are rejected.
# ---------------------------------------------------------------------------

def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InvalidData(f"{where}: {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise InvalidData(f"{where}: non-finite value {text!r}")
    return value


def _parse_date(text: str, where: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as exc:
        raise InvalidData(f"{where}: bad date {text!r}") from exc


def _read_rows(path: str) -> tuple[list[str], list[list[str]], list[int]]:
    """Stripped header, the non-empty rows after it and the file line of each
    row (its last line, if a quoted field spans several); InvalidData unless
    UTF-8 CSV text."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidData(f"{path}: unreadable CSV ({exc})") from None
    if not rows:
        raise InvalidData(f"{path}: empty file")
    return [h.strip() for h in rows[0]], rows[1:], lines[1:]


def _numbered_columns(header: list[str], prefix: str) -> list[int]:
    cols = [(int(name[len(prefix):]), i) for i, name in enumerate(header)
            if name.startswith(prefix) and name[len(prefix):].isdigit()]
    cols.sort()
    if [c for c, _ in cols] != list(range(1, len(cols) + 1)):
        raise InvalidData(f"columns {prefix}1..{prefix}N must be complete and ordered")
    return [i for _, i in cols]


def _read_table(path: str, lead: tuple[str, ...], prefixes: tuple[str, ...] = (),
                parse_label=lambda text, where: text
                ) -> tuple[list, list[np.ndarray]]:
    """Labels and float blocks of a CSV whose header starts with ``lead``.

    ``lead[0]`` is the label column and each later name a block of width 1;
    then one block ``prefix1..prefixN`` (N >= 0, anywhere after ``lead``) per
    prefix. A table without prefixes has exactly the ``lead`` columns. Each
    stripped label goes through ``parse_label(text, "path:line")``.
    """
    header, rows, lines = _read_rows(path)
    exact = not prefixes
    if (header if exact else header[:len(lead)]) != list(lead):
        raise InvalidData(f"{path}: header must {'be' if exact else 'start with'} "
                          f"'{','.join(lead)}'")
    groups = [[i] for i in range(1, len(lead))]
    groups += [_numbered_columns(header, prefix) for prefix in prefixes]
    cols = [c for group in groups for c in group]
    labels, values = [], np.empty((len(rows), len(cols)))
    for r, (row, line) in enumerate(zip(rows, lines)):
        where = f"{path}:{line}"
        if len(row) != len(header):
            raise InvalidData(f"{where}: expected {len(header)} fields")
        labels.append(parse_label(row[0].strip(), where))
        for j, c in enumerate(cols):
            values[r, j] = _parse_float(row[c], f"{where} {header[c]}")
    edges = np.cumsum([len(group) for group in groups])[:-1]
    return labels, [block.copy() for block in np.split(values, edges, axis=1)]


def _write_csv(path: str, header: list[str], rows) -> None:
    """One CSV writer for every output; floats are written with repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def read_monthly_csv(path: str) -> MonthlyPanel:
    """Read ``month,y,z_1..z_d,x_1..x_p`` (month as YYYY-MM)."""
    times, (y, z, x) = _read_table(path, ("month", "y"), ("z_", "x_"))
    return MonthlyPanel(times=tuple(times), y=y[:, 0], z=z, x=x)


def read_surrogate_csv(path: str) -> SurrogatePanel:
    """Read ``month,ys_1..ys_K`` (month as YYYY-MM)."""
    times, (ys,) = _read_table(path, ("month",), ("ys_",))
    if ys.shape[1] == 0:
        raise InvalidData(f"{path}: no ys_1..ys_K columns found")
    return SurrogatePanel(times=tuple(times), ys=ys)


def read_daily_csv(path: str) -> DailyIndex:
    """Read ``date,score`` (date as YYYY-MM-DD)."""
    dates, (scores,) = _read_table(path, ("date", "score"), parse_label=_parse_date)
    return DailyIndex(dates=tuple(dates), scores=scores[:, 0])


def write_surrogate_csv(path: str, sp: SurrogatePanel) -> None:
    _write_csv(path, ["month"] + [f"ys_{k + 1}" for k in range(sp.K)],
               ([label] + sp.ys[t].tolist() for t, label in enumerate(sp.times)))
