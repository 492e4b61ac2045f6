#!/usr/bin/env python3
"""Layered MD-step benchmark of the functional DD engine.

Run from the repository root (the program is imported from ``src/``)::

    python3 stepbench/run.py --workload bulk-rf --seed 7 --seconds 16 --trace 0
    python3 stepbench/run.py --workload bulk-rf --seed 7 --trace 1
    python3 stepbench/run.py --self-test pme-divergence

Each run generates its input from ``--seed`` (a fresh soup integrated past
its start-up collapse by the serial reference), builds the simulator the
way a user does (``SimulationSpec`` -> ``DDSimulator.from_spec`` ->
``step()``) and checks the outputs: finite energies, bounded energy
drift, DD forces against a reference evaluation at the end of the
window, identical first-step digests across set-up reps, the same NS
count and positions digest after the first ``ref_steps`` steps as every
earlier run of the seed, and no leaked shared memory or worker process
after every executor close.

Metric names and units are read from ``BENCHMARK.json``.  The tail of
each step kind (highest percentile with ten samples beyond it) is
printed as a note beside its median, not as a metric.

``--trace 0`` times an untraced window of whole nstlist blocks lasting
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` times the
first ``ref_steps`` steps untraced and then traced (same seed, same
steps), runs the serve-path comparison, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a raise, a
non-finite energy or a failed check fails every attempted step.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Generated inputs, keyed by seed and generator source (git-ignored).
INPUT_CACHE = ROOT / ".bench_build" / "stepbench-inputs"
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Least share of the traced step wall that the wrapped layer entry points
#: must account for; the rest is ``dd.orchestration_ms``.
COVERAGE_MIN = 0.9


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Run:
    """What one benchmark run reports."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.error: str | None = None
        self.context: dict = {}

    def set(self, name: str, value: float, note: str = "") -> None:
        if name not in self.units:
            raise KeyError(f"{name} is not a metric of this run")
        self.values[name] = float(value)
        if note:
            self.notes[name] = note

    def emit(self) -> int:
        attempted = max(1, self.attempted)
        failed = attempted if self.error else 0
        print(f"host: {json.dumps(self.context, sort_keys=True)}")
        for name, unit in self.units.items():
            value = self.values.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            note = f"  ({self.notes[name]})" if name in self.notes else ""
            print(f"  {name:32s} {shown:>14s} {unit}{note}")
        print(f"  {'error_rate':32s} {failed / attempted:>14.6g} fraction "
              f"({failed} failed / {attempted} attempted steps)")
        if self.error:
            print(f"FAILED: {self.error}")
        result = {
            "correct": self.error is None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": self.values.get(name), "unit": unit}
                for name, unit in self.units.items()
            },
        }
        print(json.dumps(result), flush=True)
        return 0 if self.error is None else 1


# -- the two kinds of run ---------------------------------------------------------


def run_end_to_end(workload, seed: int, seconds: float, out: Run) -> None:
    from stepbench import checks, measure

    spec = workload.spec(seed)
    system = measure.input_for(workload, seed, INPUT_CACHE)
    shm_before = checks.shm_segments()
    setup = measure.Setup()
    checks.reset_peak_rss()
    sim = measure.start(spec, system, SETUP_REPS, shm_before, setup)
    try:
        measure.settle(sim, workload.settle_steps)
        win = measure.run_window(sim, workload.ref_steps, seconds)
        out.attempted = win.steps
        # Read before the force check builds its serial reference in this process.
        parent = checks.parent_peak_rss_mib()
        checks.check_energies(win.energies, spec.dt, system.n_atoms)
        out.context["force_dev_rel"] = checks.check_forces(sim, spec)
    finally:
        measure.finish(sim, shm_before, setup)
    measure.check_reference(workload, seed, win, INPUT_CACHE)
    md, ns = win.split()
    out.set("ns_per_day", win.ns_per_day(spec.dt),
            f"{win.steps} steps from step {win.start_step} in {win.wall_s:.2f} s")
    for label, samples in (("md_step_ms", md), ("ns_step_ms", ns)):
        value, pct, n = measure.tail(samples)
        out.set(f"{label}.p50", statistics.median(samples) * 1e3,
                f"n={n}; tail p{pct} {value * 1e3:.4g} ms")
    out.set("setup_s", statistics.median(setup.setup_s),
            f"median of {SETUP_REPS}: " + ", ".join(f"{s:.3f}" for s in setup.setup_s))
    out.set("peak_rss_mib", parent + setup.worker_rss_mib,
            f"parent {parent:.0f} + largest worker {setup.worker_rss_mib:.0f}")
    out.context.update(
        ref_window={"steps": workload.ref_steps, "ns_count": win.ref_ns,
                    "digest": win.ref_digest},
    )


class _InputCache:
    """Duck-typed ``ArtifactCache`` that hands the serve runner our input."""

    def __init__(self, system) -> None:
        self.system = system

    def system_template(self, spec, ff):
        return self.system.copy()

    def grid_for(self, spec, system, ff):
        return None

    def cluster_factory(self, spec):
        return None

    def perf_model(self, spec):
        return None


def _direct_ms_per_step(spec, system) -> tuple[float, str]:
    """``execute_spec``'s simulate body without the serve layer around it."""
    from repro.dd.engine import DDSimulator
    from repro.serve.runner import positions_digest

    with DDSimulator.from_spec(spec, system=system.copy()) as sim:
        t0 = time.perf_counter()
        for _ in range(spec.steps):
            sim.step()
        ms = (time.perf_counter() - t0) * 1e3 / spec.steps
        return ms, positions_digest(sim.system.positions)


def serve_overhead_pct(spec, system, steps: int, shm_before: set[str]) -> float:
    """ms/step through ``execute_spec`` vs the direct loop, same input.

    The serve run sits between two direct runs and is compared with
    their mean, so drift over the three runs cancels to first order.
    """
    from repro.serve.runner import execute_spec
    from stepbench import checks

    spec = spec.with_(steps=steps)
    before_ms, direct_digest = _direct_ms_per_step(spec, system)
    checks.check_leaks(shm_before)
    served = execute_spec(spec, cache=_InputCache(system))
    checks.check_leaks(shm_before)
    after_ms, _ = _direct_ms_per_step(spec, system)
    checks.check_leaks(shm_before)
    if served["digest"] != direct_digest:
        raise checks.CheckFailed("serve path and direct loop end in different states")
    return 100.0 * (served["ms_per_step"] / ((before_ms + after_ms) / 2) - 1.0)


def run_layers(workload, seed: int, out: Run) -> None:
    from stepbench import checks, layers, measure

    spec = workload.spec(seed)
    system = measure.input_for(workload, seed, INPUT_CACHE)
    shm_before = checks.shm_segments()
    setup = measure.Setup()

    # Untraced reference window.
    sim = measure.start(spec, system, SETUP_REPS, shm_before, setup)
    try:
        measure.settle(sim, workload.settle_steps)
        plain = measure.run_window(sim, workload.ref_steps)
        out.attempted += plain.steps
    finally:
        measure.finish(sim, shm_before, setup)

    # The same steps, traced.
    sim = measure.start(spec, system, 1, shm_before, measure.Setup())
    try:
        measure.settle(sim, workload.settle_steps)
        tracer = layers.LayerTracer()
        adjustments = sim.dlb_adjustments
        before = layers.read_counters()
        with tracer.patched(sim):
            win = measure.run_window(sim, workload.ref_steps, tracer=tracer)
        out.attempted += win.steps
        after = layers.read_counters()
        d = layers.delta(before, after)
        adjustments = sim.dlb_adjustments - adjustments
        rank_loads = sim.workloads
        drift = checks.check_energies(win.energies, spec.dt, system.n_atoms)
        out.context["force_dev_rel"] = checks.check_forces(sim, spec)
    finally:
        measure.finish(sim, shm_before, setup)
    if (win.ref_digest, win.ref_ns) != (plain.ref_digest, plain.ref_ns):
        raise checks.CheckFailed(
            f"traced and untraced windows differ: NS {win.ref_ns} vs {plain.ref_ns}, "
            f"digest {win.ref_digest} vs {plain.ref_digest}"
        )
    measure.check_reference(workload, seed, plain, INPUT_CACHE)

    steps, n_ns = win.steps, win.ref_ns
    if layers.counter_delta(d, "dd.ns_builds") != n_ns:
        raise checks.CheckFailed(
            f"dd.ns_builds counted {layers.counter_delta(d, 'dd.ns_builds'):g} "
            f"searches, the step loop saw {n_ns}"
        )
    row = tracer.row
    busy = layers.rank_us(d)

    def per_step(seconds: float) -> float:
        return seconds * 1e3 / steps

    def per_ns(seconds: float) -> float:
        return seconds * 1e3 / max(n_ns, 1)

    def busy_s(phase: str) -> float:
        """Summed ``par.rank_us`` of one phase over all ranks, seconds."""
        return sum(us for (p, _), (_, us) in busy.items() if p == phase) / 1e6

    out.set("serve.from_spec_ms", statistics.median(setup.from_spec_s) * 1e3,
            f"median of {SETUP_REPS}")
    out.set("serve.overhead_pct",
            serve_overhead_pct(spec, system, workload.serve_steps, shm_before),
            f"{workload.serve_steps} steps each way")
    out.set("dd.ns_count", n_ns, f"in {steps} steps from step {win.start_step}")
    out.set("dd.ns_ms", per_ns(row("dd.ns").total_s))
    out.set("dd.redistribute_ms", per_ns(row("dd.ns").self_s))
    out.set("dd.dlb_ms", per_ns(row("dd.dlb").total_s))
    out.set("dd.dlb_adjustments", adjustments)
    out.set("dd.orchestration_ms", per_step(row("dd.step").self_s))
    out.set("dd.pairs", sum(w.n_pairs_local + w.n_pairs_nonlocal for w in rank_loads),
            "after the last NS")
    out.set("dd.halo_atoms", sum(w.n_halo for w in rank_loads), "after the last NS")

    out.set("par.bind_ms", per_ns(row("par.bind").total_s))
    out.set("par.pairs_ms", per_ns(row("par.run.pairs").total_s))
    out.set("par.pairs_busy_ms", per_ns(busy_s("pairs")))
    out.set("par.forces_ms", per_step(row("par.forces").self_s), "halo_x inside excluded")
    out.set("par.forces_local_busy_ms", per_step(busy_s("forces_local")), "paper's Local")
    out.set("par.forces_nonlocal_busy_ms", per_step(busy_s("forces_nonlocal")),
            "paper's Non-local")
    out.set("par.integrate_ms", per_step(row("par.run.integrate").total_s))
    n_workers = out.context["workers"]
    worker_busy_s = [0.0] * n_workers
    for (_, rank), (_, us) in busy.items():
        worker_busy_s[rank % n_workers] += us / 1e6
    exec_s = sum(r.total_s for n, r in tracer.rows.items() if n.startswith("par.run."))
    exec_s += row("par.forces").self_s
    out.set("par.wait_ms", per_step(exec_s - max(worker_busy_s)),
            f"executor wall {per_step(exec_s):.3g} ms/step minus busiest of "
            f"{n_workers} workers")
    out.set("par.imbalance_pct", layers.imbalance_overall(busy))
    halo_us = sum(v[1] for (n, _), v in d.items() if n == "par.overlap.halo_us")
    hidden_us = sum(v[1] for (n, _), v in d.items() if n == "par.overlap.hidden_us")
    out.set("par.overlap_efficiency", hidden_us / halo_us if halo_us else 0.0)

    out.set("comm.bind_ms", per_ns(row("comm.bind").total_s))
    out.set("comm.halo_x_ms", per_step(row("comm.halo_x").total_s))
    out.set("comm.halo_f_ms", per_step(row("comm.halo_f").total_s))
    send_atoms = sum(sum(w.pulse_send_sizes) for w in rank_loads)
    out.set("comm.bytes_per_step", send_atoms * 3 * 8 * 2,
            "computed: x + f pulse payloads in float64, last NS")
    out.set("comm.messages_per_step", 2 * sum(len(w.pulse_send_sizes) for w in rank_loads))
    out.set("nvshmem.direct_stores_per_step",
            layers.counter_delta(d, "nvshmem.direct_stores") / steps)
    out.set("nvshmem.put_signals_per_step",
            layers.counter_delta(d, "nvshmem.put_signals") / steps)
    out.set("md.build_peak_bytes_per_atom",
            after.get(("md.build.peak_bytes_per_atom", ()), (0.0, 0.0))[0])
    out.set("md.pairlist_bytes", after.get(("md.pairlist.bytes", ()), (0.0, 0.0))[0])
    out.set("md.energy_drift", abs(drift), f"signed {drift:.4g}")

    step_s = row("dd.step").total_s
    coverage = 1.0 - row("dd.step").self_s / step_s
    out.set("trace.coverage", coverage,
            "wrapped layer calls / step wall; the rest is dd.orchestration_ms")
    out.set("trace.overhead_pct", 100.0 * (win.wall_s / plain.wall_s - 1.0),
            f"traced {win.ns_per_day(spec.dt):.4g} vs untraced "
            f"{plain.ns_per_day(spec.dt):.4g} ns/day")
    missing = [name for name in workload.traced_rows() if row(name).count == 0]
    if missing:
        raise checks.CheckFailed(f"no traced call of {missing} in the window")
    if coverage < COVERAGE_MIN:
        raise checks.CheckFailed(f"trace.coverage {coverage:.4f} below {COVERAGE_MIN}")
    if not out.context["oversubscribed"]:
        out.context["parallel_efficiency"] = sum(worker_busy_s) / (n_workers * exec_s)
    out.context.update(
        ref_window={"steps": steps, "ns_count": n_ns, "digest": win.ref_digest},
    )


def run_self_test(name: str) -> int:
    """Run a known-bad configuration; pass only if it is reported failed."""
    from stepbench import checks, measure
    from stepbench.workloads import SELF_TESTS

    workload, steps = SELF_TESTS[name]
    spec = workload.spec(7)
    system = measure.generate_input(workload, 7)
    shm_before = checks.shm_segments()
    try:
        sim = measure.start(spec, system, 1, shm_before, measure.Setup())
        try:
            win = measure.run_window(sim, steps - 1, block=1)
            checks.check_energies(win.energies, spec.dt, system.n_atoms)
            checks.check_forces(sim, spec)
        finally:
            measure.finish(sim, shm_before, measure.Setup())
    except Exception as err:  # the run under test is expected to fail
        print(f"self-test {name}: reported failed as expected: "
              f"{type(err).__name__}: {err}")
        return 0
    print(f"self-test {name}: NOT detected, {steps} steps passed every check")
    return 1


# -- entry point --------------------------------------------------------------------


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="bulk-rf")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", default=None, metavar="NAME",
                        help="run a known-bad configuration (pme-divergence)")
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before NumPy loads: the process
    # executor already runs one worker per core next to the parent, and
    # multi-threaded BLAS in each of them oversubscribes the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_program()
    from multiprocessing import resource_tracker

    from stepbench import checks
    from stepbench.workloads import SELF_TESTS, WORKLOADS

    try:
        if args.self_test is not None:
            if args.self_test not in SELF_TESTS:
                parser.error(f"unknown self-test {args.self_test!r}: {sorted(SELF_TESTS)}")
            return run_self_test(args.self_test)
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}: {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        out = Run(metric_units("per_layer" if args.trace else "end_to_end"))
        out.context = checks.host_context(workload.n_ranks)
        out.context.update(workload=workload.name, seed=args.seed)
        try:
            if args.trace:
                run_layers(workload, args.seed, out)
            else:
                run_end_to_end(workload, args.seed, args.seconds, out)
        except Exception as err:
            traceback.print_exc(file=sys.stderr)
            out.error = f"{type(err).__name__}: {err}"
        return out.emit()
    finally:
        # The process executor starts multiprocessing's resource tracker;
        # stop it so the benchmark leaves no process behind.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    sys.exit(main())
