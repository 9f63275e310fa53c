"""Machine speed, measured next to every timed sample of a run.

This benchmark runs on shared hosts whose speed changes by tens of percent
within seconds and minutes, far more than the changes a benchmark must see.
So each timed sample is bracketed by a fixed calibration kernel of the same
kind: just before and just after it, the run times the kernel, and the
sample is divided by the median of those kernel times and multiplied by the
kernel's nominal time. The result reads what the sample would take on a
machine where the kernel takes its nominal time; the raw time is kept too.

There are two kernels, because in-process numerical work and starting a
fresh interpreter slow down differently under load:

- ``Compute``: small least-squares refits and recursive forecasts, the mix
  of the Monte Carlo harness; for operations run in this process.
- ``Spawn``: a fresh interpreter in isolated mode that imports a fixed set
  of standard-library modules; for anything timed as a child process (CLI
  commands, cold starts, set-ups).

Neither kernel uses the package, so a change to the package moves the
normalised timings and not the kernels.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


class Compute:
    """In-process kernel: 64 small least-squares refits, each followed by an
    8-step recursive forecast, the shape of a bootstrap replicate; about 4 ms."""

    # Mean kernel time on a quiet 2-vCPU Xeon (2.0 GHz) guest.
    NOMINAL_S = 0.0040
    SHARE = 0.10  # of the previous sample's time, spent between two samples

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20240601)
        self._np = np
        self._Y = rng.standard_normal((64, 60))
        self._fixed = rng.standard_normal((58, 5))
        self._drive = rng.standard_normal(8)
        self._last = 0.0
        for _ in range(3):  # warm-up: first calls pay for lazy imports
            self._once()

    def _once(self) -> None:
        np = self._np
        for y in self._Y:
            design = np.hstack([np.stack([y[1:59], y[0:58]], axis=1), self._fixed])
            coef = np.linalg.lstsq(design, y[2:60], rcond=None)[0]
            buf = np.concatenate([y[-2:], np.zeros(8)])
            for h in range(8):
                buf[2 + h] = coef[:2] @ buf[h:2 + h][::-1] + self._drive[h]

    def sample(self) -> float:
        """Mean time of the kernel, run at least once and for about SHARE of
        the previous timed sample."""
        runs, spent = 0, 0.0
        while runs == 0 or spent < self.SHARE * self._last:
            t0 = time.perf_counter()
            self._once()
            spent += time.perf_counter() - t0
            runs += 1
        return spent / runs

    def seen(self, seconds: float) -> None:
        self._last = seconds


class Spawn:
    """Child-process kernel: a fresh interpreter importing standard modules."""

    # Median kernel time on a quiet 2-vCPU Xeon (2.0 GHz) guest.
    NOMINAL_S = 0.120
    CODE = ("import argparse, csv, dataclasses, datetime, decimal, email.parser, "
            "fractions, http.client, json, logging, pathlib, random, statistics, "
            "subprocess, tempfile, typing, unittest, xml.dom.minidom")

    def sample(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", self.CODE], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def seen(self, seconds: float) -> None:
        pass


class Timings:
    """Raw and normalised times of one kind of sample in a run."""

    def __init__(self):
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.factors: list[float] = []  # kernel time / nominal, per sample

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.norm.append(raw / factor)
        self.factors.append(factor)


class Bracket:
    """Brackets samples with kernel runs. Consecutive samples share the
    kernel run between them; ``reset`` after anything else has run."""

    def __init__(self, kernel, runs: int = 1):
        self.kernel = kernel
        self.runs = runs
        self._before: list[float] | None = None

    def _sample(self) -> list[float]:
        return [self.kernel.sample() for _ in range(self.runs)]

    def reset(self) -> None:
        self._before = None

    def __call__(self, fn):
        """Run ``fn()`` between kernel samples. Returns the factor by which
        the machine ran slower than nominal around it (the median kernel
        time over the nominal time) and ``fn``'s result."""
        before = self._before if self._before is not None else self._sample()
        result = fn()
        after = self._sample()
        self._before = after
        return statistics.median(before + after) / self.kernel.NOMINAL_S, result
