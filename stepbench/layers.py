"""Per-layer accounting for the traced run, kept in the benchmark's files.

:class:`LayerTracer` wraps the public entry points of each layer
(``DDSimulator.neighbor_search``, ``RankExecutor.bind/run/
run_forces_overlapped``, ``HaloBackend.bind/exchange_coordinates/
exchange_forces``, ``DlbController.update``) for the duration of a
``with`` block and keeps one row per name in memory: call count, total
wall and self wall (total minus the time of wrapped calls nested inside).
The benchmark opens the root span around each ``step()`` itself, so the
step's self time is the parent-side orchestration residual.

:func:`read_counters` snapshots the program's own metrics registry so the
benchmark can take before/after deltas; it never resets the registry
(backends cache instrument handles until the next neighbour search, so
counts made after a reset would be lost).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Row:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    def __init__(self) -> None:
        self.rows: dict[str, Row] = {}
        self._stack: list[list[float]] = []

    # -- spans ----------------------------------------------------------------

    def _close(self, name: str, t0: float, frame: list[float]) -> None:
        dur = time.perf_counter() - t0
        self._stack.pop()
        row = self.rows.setdefault(name, Row())
        row.count += 1
        row.total_s += dur
        row.self_s += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0, frame)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close(label, t0, frame)

        return traced

    @contextmanager
    def patched(self, sim):
        """Wrap each layer's entry points on the classes ``sim`` uses."""
        from repro.dd.dlb import DlbController
        from repro.dd.engine import DDSimulator

        exe, backend = type(sim.executor), type(sim.backend)
        targets = [
            (DDSimulator, "neighbor_search", "dd.ns"),
            (DlbController, "update", "dd.dlb"),
            (exe, "bind", "par.bind"),
            (exe, "run", lambda args: f"par.run.{args[0]}"),
            (exe, "run_forces_overlapped", "par.forces"),
            (backend, "bind", "comm.bind"),
            (backend, "exchange_coordinates", "comm.halo_x"),
            (backend, "exchange_forces", "comm.halo_f"),
        ]
        saved = []
        try:
            for cls, attr, name in targets:
                saved.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                if original is None:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, original)

    def row(self, name: str) -> Row:
        return self.rows.get(name, Row())


# -- program counters -----------------------------------------------------------


def read_counters() -> dict[tuple, tuple[float, float]]:
    """``(name, labels) -> (count, sum)`` for every instrument in METRICS.

    Counters and gauges read as ``(value, value)``; histograms as their
    observation count and sum.
    """
    from repro.obs.metrics import METRICS, Histogram

    out = {}
    for name, labels, m in METRICS.collect():
        if isinstance(m, Histogram):
            out[(name, labels)] = (float(m.count), float(m.sum))
        else:
            out[(name, labels)] = (float(m.value), float(m.value))
    return out


def delta(before: dict, after: dict) -> dict[tuple, tuple[float, float]]:
    zero = (0.0, 0.0)
    return {
        key: (a[0] - before.get(key, zero)[0], a[1] - before.get(key, zero)[1])
        for key, a in after.items()
    }


def counter_delta(d: dict, name: str) -> float:
    """Sum of a counter's increments over all label sets."""
    return sum(v[0] for (n, _), v in d.items() if n == name)


def rank_us(d: dict) -> dict[tuple[str, int], tuple[float, float]]:
    """``(phase, rank) -> (observations, summed µs)`` from ``par.rank_us``."""
    out = {}
    for (name, labels), v in d.items():
        if name != "par.rank_us" or v[0] <= 0:
            continue
        lab = dict(labels)
        out[(lab["phase"], int(lab["rank"]))] = v
    return out


def imbalance_overall(per_rank: dict[tuple[str, int], tuple[float, float]]) -> float:
    """``record_imbalance``'s overall statistic over a window's deltas.

    Per phase: mean over all observations and the slowest rank's mean;
    overall: ``100 * (sum(max) / sum(mean) - 1)``.
    """
    from repro.par.imbalance import imbalance_pct

    phases: dict[str, list[tuple[float, float]]] = {}
    for (phase, _rank), v in per_rank.items():
        phases.setdefault(phase, []).append(v)
    tot_mean = tot_max = 0.0
    for obs in phases.values():
        tot_mean += sum(s for _, s in obs) / sum(c for c, _ in obs)
        tot_max += max(s / c for c, s in obs)
    return imbalance_pct(tot_mean, tot_max)
