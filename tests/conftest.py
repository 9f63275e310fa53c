import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from surrocast import MonthlyPanel, SurrogatePanel, month_range


def build_panels(y, ys, z=None, x=None, start="2019-01"):
    """Panel pair from plain arrays, with consecutive month labels."""
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    times = month_range(start, T)
    z = np.zeros((T, 0)) if z is None else np.asarray(z, dtype=float)
    x = np.zeros((T, 0)) if x is None else np.asarray(x, dtype=float)
    mp = MonthlyPanel(times=times, y=y, z=z, x=x)
    sp = SurrogatePanel(times=times, ys=np.asarray(ys, dtype=float))
    return mp, sp


def member(obj, i):
    """Member i, or the members of slice i, of a batched panel, fit or
    future block."""
    return type(obj)(**{f.name: (v[i] if isinstance(v, np.ndarray) else v)
                        for f in dataclasses.fields(obj)
                        for v in [getattr(obj, f.name)]})


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, loaded without writing bytecode beside it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
