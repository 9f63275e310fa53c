"""Spans around the calls into each surrocast layer, taken from outside.

The tracer replaces public functions by timing wrappers in the namespaces of
``surrocast.simulation``, ``surrocast.intervals`` and ``surrocast.cli``, so
the real harness and CLI code run unchanged and only their calls into the
other modules are seen. Each span records name, start, end and parent; a
layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import re
import statistics
import subprocess
import sys
import time

_FORECASTS = {f"forecast_{m}": f"forecasting.forecast_{m}"
              for m in ("joint", "arx", "rw", "ave")}

# Module -> {attribute: layer}. A layer groups the functions that do one
# kind of work, whichever module calls them.
TARGETS = {
    "surrocast.simulation": {
        "run_experiment": "simulation.harness",
        "generate": "simulation.generate",
        "standardize_cpi": "panels.standardize",
        "fit_surrogate": "estimation.fit",
        "fit_joint_step2": "estimation.fit",
        "fit_arx": "estimation.fit",
        "select_ar_order": "selection.select_ar_order",
        **_FORECASTS,
        "bj_interval": "intervals.bj",
        "boot_interval": "intervals.boot",
    },
    "surrocast.intervals": {
        "forecast_joint": "forecasting.forecast_joint",
    },
    "surrocast.cli": {
        "read_monthly_csv": "panels.read_csv",
        "read_surrogate_csv": "panels.read_csv",
        "read_daily_csv": "panels.read_csv",
        "_read_rows": "panels.read_csv",
        "aggregate_daily": "panels.aggregate_daily",
        "standardize_cpi": "panels.standardize",
        "standardize_z": "panels.standardize",
        "fit_joint": "estimation.fit",
        "fit_arx": "estimation.fit",
        **_FORECASTS,
        "bj_interval": "intervals.bj",
        "boot_interval": "intervals.boot",
        "correlation_pursuit": "selection.pursuit",
    },
}


def _rows_read(result) -> int:
    if isinstance(result, tuple):  # _read_rows: (header, rows)
        return len(result[1])
    return len(getattr(result, "dates", None) or result.times)


def _on_result(counts: collections.Counter, layer: str, args, kwargs, result):
    """Counters taken from the arguments and results at the layer boundary."""
    if layer == "selection.select_ar_order":
        counts[f"selection.ar_order.q{result}"] += 1
    elif layer == "selection.pursuit":
        counts[f"selection.ar_order.q{result.ar_order}"] += 1
        counts["estimation.rank_deficient"] += len(result.skipped)
    elif layer == "panels.read_csv":
        counts["panels.read_csv.rows"] += _rows_read(result)
    elif layer == "intervals.boot":
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[6]
        counts["intervals.boot.replicates"] += cfg.B


class Tracer:
    """In-memory spans and counters; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        idx = len(self.spans)
        rec = [layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        from surrocast.errors import RankDeficient

        def traced(*args, **kwargs):
            with self.span(layer):
                try:
                    result = fn(*args, **kwargs)
                except RankDeficient:
                    if layer == "estimation.fit":  # not again as it propagates
                        self.counts["estimation.rank_deficient"] += 1
                    raise
            _on_result(self.counts, layer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attrs in TARGETS.items():
            mod = importlib.import_module(mod_name)
            for attr, layer in attrs.items():
                fn = getattr(mod, attr)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, layer))

    def remove(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def calls(self) -> collections.Counter:
        return collections.Counter(s[0] for s in self.spans)

    def by_layer(self) -> dict[str, dict[str, list[float]]]:
        """Per layer: inclusive and self seconds of every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, list[float]]] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            entry = out.setdefault(name, {"total": [], "self": []})
            entry["total"].append(end - start)
            entry["self"].append(end - start - c)
        return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(env: dict, samples: int) -> dict[str, float]:
    """Medians over ``python -X importtime -c 'import surrocast'`` children of
    the cumulative import time (ms) of surrocast and its heaviest imports.
    A module imported by none of them reads 0."""
    names = {"surrocast": "startup.import_ms",
             "scipy.stats": "startup.import.scipy_stats_ms",
             "scipy.signal": "startup.import.scipy_signal_ms",
             "numpy": "startup.import.numpy_ms"}
    seen: dict[str, list[float]] = {metric: [] for metric in names.values()}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import surrocast"],
                              env=env, capture_output=True, text=True, check=True)
        found = {m.group(4): int(m.group(2)) / 1000.0
                 for m in _IMPORTTIME.finditer(proc.stderr)}
        for module, metric in names.items():
            seen[metric].append(found.get(module, 0.0))
    return {metric: median(v) for metric, v in seen.items()}
