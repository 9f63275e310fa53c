import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from surrocast import (
    DailyIndex,
    DegenerateSeries,
    InvalidData,
    MissingPeriod,
    MonthlyPanel,
    PanelMismatch,
    SurrogatePanel,
    aggregate_daily,
    month_range,
    read_daily_csv,
    read_monthly_csv,
    read_surrogate_csv,
    standardize_cpi,
    standardize_z,
)
from surrocast.panels import (_read_table, _window_sd, _write_csv, check_aligned,
                              write_surrogate_csv)


# ---------------------------------------------------------------------------
# standardize_cpi / standardize_z
# ---------------------------------------------------------------------------

def test_standardize_cpi_zero_variance_rejected():
    with pytest.raises(DegenerateSeries):
        standardize_cpi(np.array([100.0, 100.0, 100.0]), base=100.0)


def test_standardize_cpi_hand_values():
    # centered = (-1, 1); sample sd (ddof=1) = sqrt(2)
    std = standardize_cpi(np.array([99.0, 101.0]), base=100.0)
    np.testing.assert_allclose(std.values, [-0.7071, 0.7071], atol=5e-5)
    assert std.scale == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("base", [np.nan, np.inf, -np.inf])
def test_standardize_cpi_non_finite_base_rejected(base):
    # a non-finite base would center every value at NaN or Inf and be
    # reported as a zero-variance series
    with pytest.raises(InvalidData, match="base"):
        standardize_cpi(np.array([99.0, 101.0, 100.5]), base=base)


def test_standardize_cpi_shift_invariance(rng):
    x = rng.standard_normal(40)
    x -= x.mean()
    std = standardize_cpi(x + 100.0, base=100.0)
    ratio = std.values[x != 0] / x[x != 0]
    np.testing.assert_allclose(ratio, ratio[0])


def test_standardize_z_hand_values():
    std = standardize_z(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(std.values, [-1.0, 0.0, 1.0], atol=1e-12)
    assert std.offset == pytest.approx(2.0)


def test_standardize_z_constant_rejected():
    with pytest.raises(DegenerateSeries):
        standardize_z(np.full(10, 3.25))


@pytest.mark.parametrize("raw", [np.ones((2, 5)), np.float64(3.0)])
def test_standardize_z_rejects_a_non_series(raw):
    with pytest.raises(InvalidData, match="series must be 1-D"):
        standardize_z(raw)


def test_standardize_z_idempotent(rng):
    raw = rng.standard_normal(100)
    once = standardize_z(raw).values
    twice = standardize_z(once).values
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_standardize_roundtrip(rng):
    raw = 100.0 + rng.standard_normal(60) * 0.7
    std = standardize_cpi(raw, base=100.0)
    np.testing.assert_allclose(std.inverse(), raw, rtol=1e-10)
    stdz = standardize_z(raw)
    np.testing.assert_allclose(stdz.inverse(), raw, rtol=1e-10)


def test_standardize_train_window_only():
    raw = np.array([99.0, 101.0, 150.0, 50.0])
    std = standardize_cpi(raw, base=100.0, train_size=2)
    assert std.scale == pytest.approx(np.sqrt(2.0))  # holdout rows ignored


def test_window_sd_scaling_keeps_the_bits(rng):
    # the power-of-two scaling is exact, so the sd of ordinary data is the
    # unscaled np.std bit for bit, series by series
    for exponent in (-30, -3, 0, 2, 9, 40):
        window = rng.standard_normal((7, 50)) * 10.0 ** exponent + rng.normal()
        want = np.std(window, ddof=1, axis=-1)
        assert _window_sd(window).tobytes() == want.tobytes()
        assert _window_sd(window[3]).tobytes() == want[3].tobytes()


@pytest.mark.parametrize("standardize", [standardize_cpi, standardize_z])
def test_standardize_huge_values(standardize):
    # squares of |v| >= 1.3e154 overflow; the spread of the scaled window
    # does not, and only a spread beyond the largest double is refused
    std = standardize(np.array([1e200, -1e200, 1e200, -1e200]), **(
        {"base": 0.0} if standardize is standardize_cpi else {}))
    assert std.scale == pytest.approx(2e200 / np.sqrt(3.0), rel=1e-15)
    np.testing.assert_allclose(std.values, [0.5 * np.sqrt(3.0), -0.5 * np.sqrt(3.0)] * 2,
                               rtol=1e-15)
    with pytest.raises(DegenerateSeries, match="overflows"):
        standardize(np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308]))


def test_standardize_cpi_centering_overflow_refused():
    with pytest.raises(DegenerateSeries, match="overflows"):
        standardize_cpi(np.array([1.7e308, 1.0e308, 1.5e308]), base=-1e308)


@pytest.mark.parametrize("standardize", [standardize_cpi, standardize_z])
def test_standardize_train_size_must_fit_the_series(standardize):
    # a slice [:train_size] would count a negative size from the end and
    # clip one past the end to the whole series
    raw = np.array([99.0, 101.0, 100.5, 98.0, 102.0, 100.0])
    for bad in (-4, -1, 0, 7):
        with pytest.raises(InvalidData):
            standardize(raw, train_size=bad)
    with pytest.raises(DegenerateSeries):
        standardize(raw, train_size=1)
    assert standardize(raw, train_size=6).scale == standardize(raw).scale


# ---------------------------------------------------------------------------
# aggregate_daily
# ---------------------------------------------------------------------------

def _daily(year, month, scores_by_day):
    dates = tuple(dt.date(year, month, d) for d in sorted(scores_by_day))
    scores = np.array([scores_by_day[d] for d in sorted(scores_by_day)])
    return DailyIndex(dates=dates, scores=scores)


def test_aggregate_constant_month():
    idx = _daily(2021, 4, {d: 0.5 for d in range(1, 31)})
    sp = aggregate_daily(idx, K=3)
    np.testing.assert_allclose(sp.ys, [[0.5, 0.5, 0.5]])
    assert sp.times == ("2021-04",)


def test_aggregate_linear_scores_block_means():
    # 31-day month, score = day/31: block means 5.5/31, 15.5/31, 26/31
    idx = _daily(2021, 1, {d: d / 31 for d in range(1, 32)})
    sp = aggregate_daily(idx, K=3)
    np.testing.assert_allclose(sp.ys[0], [0.17742, 0.5, 0.83871], atol=5e-6)


def test_aggregate_missing_block():
    idx = _daily(2021, 1, {d: 0.3 for d in range(1, 21)})  # nothing after day 20
    with pytest.raises(MissingPeriod, match="2021-01.*block 3"):
        aggregate_daily(idx, K=3)


def test_aggregate_permutation_within_block_irrelevant():
    base = {d: float(d % 7) for d in range(1, 31)}
    swapped = dict(base)
    swapped[2], swapped[9] = base[9], base[2]  # both in block 1
    a = aggregate_daily(_daily(2021, 6, base), K=3)
    b = aggregate_daily(_daily(2021, 6, swapped), K=3)
    np.testing.assert_array_equal(a.ys, b.ys)


def test_aggregate_k_other_than_three():
    idx = _daily(2021, 4, {d: float(d) for d in range(1, 31)})  # 30 days
    sp = aggregate_daily(idx, K=2)
    np.testing.assert_allclose(sp.ys[0], [8.0, 23.0])  # mean(1..15), mean(16..30)


def test_aggregate_multi_month_gap_detected():
    scores = {}
    dates = [dt.date(2021, 1, d) for d in range(1, 32)]
    dates += [dt.date(2021, 3, d) for d in range(1, 32)]  # February absent
    idx = DailyIndex(dates=tuple(dates), scores=np.full(len(dates), 0.2))
    with pytest.raises(MissingPeriod, match="2021-02"):
        aggregate_daily(idx, K=3)


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------

def test_month_labels_must_be_consecutive():
    with pytest.raises(InvalidData):
        MonthlyPanel(("2020-01", "2020-03"), np.zeros(2), np.zeros((2, 0)),
                     np.zeros((2, 0)))


def test_nan_rejected_everywhere():
    with pytest.raises(InvalidData):
        MonthlyPanel(month_range("2020-01", 2), np.array([1.0, np.nan]),
                     np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(InvalidData):
        SurrogatePanel(month_range("2020-01", 1), np.array([[np.inf, 0.0]]))


def test_mismatched_pairing_rejected():
    mp = MonthlyPanel(month_range("2020-01", 3), np.zeros(3), np.zeros((3, 0)),
                      np.zeros((3, 0)))
    sp = SurrogatePanel(month_range("2020-02", 3), np.zeros((3, 2)))
    with pytest.raises(PanelMismatch):
        check_aligned(mp, sp)


def test_daily_index_dates_strictly_increasing():
    with pytest.raises(InvalidData):
        DailyIndex((dt.date(2021, 1, 2), dt.date(2021, 1, 2)), np.array([0.1, 0.2]))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), T=st.integers(1, 12),
       widths=st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_csv_roundtrip_bit_equal(tmp_path_factory, data, T, widths):
    # finite panels with 1-3 numbered blocks, in any column order after y,
    # come back from the readers bit for bit, and writing them again gives
    # the same bytes
    prefixes = ("z_", "x_", "ys_")[:len(widths)]
    names = ["y"] + [f"{prefix}{k + 1}" for prefix, w in zip(prefixes, widths)
                     for k in range(w)]
    values = data.draw(hnp.arrays(np.float64, (T, len(names)), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    order = [0] + data.draw(st.permutations(range(1, len(names))))
    times = month_range("2019-11", T)
    path = tmp_path_factory.mktemp("roundtrip") / "panel.csv"

    def write(matrix):
        _write_csv(str(path), ["month"] + [names[i] for i in order],
                   ([label] + matrix[t, order].tolist()
                    for t, label in enumerate(times)))
        return path.read_bytes()

    written = write(values)
    labels, blocks = _read_table(str(path), ("month", "y"), prefixes)
    back = np.hstack(blocks)
    assert labels == list(times)
    assert back.tobytes() == values.tobytes()
    assert write(back) == written

    mp = read_monthly_csv(str(path))
    assert mp.times == times
    assert mp.y.tobytes() == values[:, 0].tobytes()
    assert np.hstack([mp.z, mp.x]).tobytes() == values[:, 1:1 + mp.d + mp.p].tobytes()
    if "ys_" in prefixes:
        sp = read_surrogate_csv(str(path))
        assert sp.ys.tobytes() == values[:, -widths[2]:].tobytes()
        write_surrogate_csv(str(path), sp)
        assert read_surrogate_csv(str(path)).ys.tobytes() == sp.ys.tobytes()


def test_csv_reader_errors_name_line_and_column(tmp_path):
    path = tmp_path / "monthly.csv"
    path.write_text("month,y,x_1\n2020-01,1.0,2.0\n2020-02,1.5,abc\n")
    with pytest.raises(InvalidData, match=r"monthly.csv:3 x_1: 'abc' is not a number"):
        read_monthly_csv(str(path))
    path.write_bytes(b"month,ys_1\n2020-01,0.\xff5\n")
    with pytest.raises(InvalidData, match="unreadable CSV"):
        read_surrogate_csv(str(path))


def test_csv_reader_errors_count_file_lines(tmp_path):
    # a blank line is skipped but still counted: the bad cell is on line 5
    path = tmp_path / "blank.csv"
    path.write_text("month,y\n2020-01,1.0\n\n2020-02,2.0\n2020-03,abc\n")
    with pytest.raises(InvalidData, match=r"blank.csv:5 y: 'abc' is not a number"):
        read_monthly_csv(str(path))
    daily = tmp_path / "daily.csv"
    daily.write_text("date,score\n\n2021-01-01,0.1\n\n2021-01-32,0.2\n")
    with pytest.raises(InvalidData, match=r"daily.csv:5: bad date '2021-01-32'"):
        read_daily_csv(str(daily))
