"""End-to-end MD-step throughput across rank executors.

Times real :class:`repro.dd.engine.DDSimulator` steps (halo exchange +
non-bonded forces + integration) under each registered executor and
reports per-executor ms/step plus speedup over the ``serial`` reference.
On a multi-core host the ``process`` executor should show the benefit of
true-parallel rank execution; on a single core it degenerates to serial
throughput plus IPC overhead, which the report makes visible rather than
hiding.

Every run appends one :class:`repro.obs.bench.BenchRecord` per executor
to the *committed* history (default ``BENCH_step.json``): git sha and
timestamp (pass ``--timestamp`` from CI), machine constants, per-phase
breakdown, the ``par.rank_us`` load-imbalance summary, and the modeled
energy estimate.  ``--check`` then gates the new records against each
key's rolling baseline and exits non-zero on a >10% (``--threshold``)
step-throughput regression — the CI perf gate.

``--phase-breakdown`` additionally reports, per executor, the time split
between the ``forces_local`` and ``forces_nonlocal`` phases, the
coordinate-halo wall time, how much of it the local force phase hid
(overlap efficiency — the paper's comm–compute overlap), and whether the
segment-reduction kernel ever fell back to the ``np.add.at`` scatter
path (it must not).

Usage::

    PYTHONPATH=src python benchmarks/bench_step.py                 # grappa-45k, 8 ranks
    PYTHONPATH=src python benchmarks/bench_step.py --system 3000 \
        --ranks 4 --steps 5 --phase-breakdown --no-history         # CI smoke run
    PYTHONPATH=src python benchmarks/bench_step.py --check \
        --timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)"               # gated run

Also writes a one-shot JSON report (default ``BENCH_report.json``) with
the machine context, per-executor timings, and speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.dd import DDSimulator, resolve_backend_executor
from repro.md import default_forcefield, make_system
from repro.md.grappa import resolve_atoms as _resolve_atoms
from repro.md.kernels import kernel_registry
from repro.obs.bench import (
    DEFAULT_HISTORY,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    BenchHistory,
    BenchRecord,
    check_regression,
    regressions,
)
from repro.obs.metrics import METRICS
from repro.par.imbalance import record_imbalance
from repro.perf.energy import grappa_energy_report, model_scaling_efficiency
from repro.perf.machines import machine_by_name


def resolve_atoms(system: str) -> int:
    """CLI-flavoured :func:`repro.md.grappa.resolve_atoms` (exits, not raises)."""
    try:
        return _resolve_atoms(system)
    except ValueError as err:
        raise SystemExit(str(err)) from None


def parse_build_bytes(text: str) -> int:
    """``--max-build-bytes`` values: plain bytes or '512k'/'64M'/'1G'."""
    s = text.strip()
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    try:
        if s and s[-1].lower() in units:
            return int(float(s[:-1]) * units[s[-1].lower()])
        return int(s)
    except ValueError:
        raise SystemExit(
            f"invalid --max-build-bytes '{text}': use bytes or a "
            f"'k'/'M'/'G'-suffixed size (e.g. 64M)"
        ) from None


def detect_git_sha() -> str:
    """Short sha of HEAD, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _phase_breakdown(executor: str, steps: int) -> dict:
    """Collect the per-phase and overlap metrics accumulated since reset."""

    def phase_ms(phase: str) -> float:
        # Sum across the per-rank histograms (labels executor/phase/rank).
        total_us = sum(
            m.sum
            for name, labels, m in METRICS.collect("par.rank_us")
            if name == "par.rank_us"
            and dict(labels).get("executor") == executor
            and dict(labels).get("phase") == phase
        )
        return total_us / 1e3

    halo_us = METRICS.histogram("par.overlap.halo_us", executor=executor).sum
    hidden_us = METRICS.histogram("par.overlap.hidden_us", executor=executor).sum
    return {
        "forces_local_ms": phase_ms("forces_local"),
        "forces_nonlocal_ms": phase_ms("forces_nonlocal"),
        "halo_x_ms": halo_us / 1e3,
        "hidden_ms": hidden_us / 1e3,
        "overlap_efficiency": (hidden_us / halo_us) if halo_us > 0 else 0.0,
        "scatter_fallbacks": METRICS.counter("nonbonded.scatter_fallback").value,
    }


def build_memory_snapshot() -> dict:
    """The ``md.*`` build-memory gauges as a BenchRecord ``memory`` dict.

    Read *after* the warm-up step (the first neighbour search populates
    the gauges) and *before* ``METRICS.reset()`` wipes them.
    """
    return {
        "pairlist_bytes": int(METRICS.gauge("md.pairlist.bytes").value),
        "cells_bytes": int(METRICS.gauge("md.cells.bytes").value),
        "build_peak_bytes": int(METRICS.gauge("md.build.peak_bytes").value),
        "build_peak_bytes_per_atom": float(
            METRICS.gauge("md.build.peak_bytes_per_atom").value
        ),
    }


def bench_executor(
    executor: str, system_label: str, ranks: int, steps: int, *,
    backend: str, seed: int, nstlist: int,
    phase_breakdown: bool = False, overlap: bool = True,
    kernel: str = "cluster", kernel_dtype: str = "float64",
    max_build_bytes: int | None = None,
    dlb: str = "off", warmup_steps: int = 1,
) -> dict:
    """Steady-state ms/step for one executor (warm-up steps excluded).

    With DLB enabled, the warm-up window is where the boundaries converge
    (several neighbour searches); the timed window then measures the
    *balanced* steady state, exactly as the uniform-grid bench measures
    the post-spin-up steady state.
    """
    try:
        backend_obj, executor_obj = resolve_backend_executor(backend, executor)
    except ValueError as err:
        raise SystemExit(str(err)) from None
    ff = default_forcefield(cutoff=0.65)
    system = make_system(system_label, seed=seed, ff=ff, dtype=np.float64)
    with DDSimulator(
        system, ff, n_ranks=ranks, backend=backend_obj, executor=executor_obj,
        nstlist=nstlist, buffer=0.12, overlap_comm=overlap,
        kernel=kernel, kernel_dtype=kernel_dtype,
        max_build_bytes=max_build_bytes, dlb=dlb,
    ) as sim:
        sim.run(warmup_steps)  # first neighbour search, pool spin-up, DLB settle
        memory = build_memory_snapshot()
        METRICS.reset()  # count only the timed steps (rank_us, overlap, ...)
        t0 = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - t0
        checksum = float(np.sum(sim.system.positions))
        dlb_adjustments = sim.dlb_adjustments
    ms = elapsed * 1e3 / steps
    r = {
        "executor": executor,
        "ms_per_step": ms,
        "steps_per_s": 1e3 / ms,
        "measured_steps": steps,
        "warmup_steps": warmup_steps,
        "checksum": checksum,
        "dlb": dlb,
        "dlb_adjustments": dlb_adjustments,
        "imbalance": record_imbalance(executor=executor),
        "memory": memory,
    }
    if phase_breakdown:
        r["phase_breakdown"] = _phase_breakdown(executor, steps)
    return r


def overall_imbalance(result: dict) -> float | None:
    """The executor's run-wide ``par.imbalance`` overall %% (None if absent)."""
    summary = result.get("imbalance") or {}
    phases = summary.get(result["executor"]) or {}
    overall = phases.get("overall")
    return None if overall is None else float(overall["imbalance_pct"])


def _energy_dict(args, n_atoms: int, result: dict) -> dict | None:
    """Modeled energy/efficiency for one executor's record (None if no grid)."""
    machine = machine_by_name(args.machine)
    rep = grappa_energy_report(
        n_atoms, args.ranks, machine, backend="nvshmem", publish=False
    )
    if rep is None:
        return None
    d = rep.as_dict()
    d["model_parallel_efficiency"] = model_scaling_efficiency(
        n_atoms, args.ranks, machine, backend="nvshmem"
    )
    speedup = result.get("speedup_vs_serial")
    workers = min(args.ranks, os.cpu_count() or 1)
    d["measured_parallel_efficiency"] = (
        speedup / workers if speedup is not None and workers > 0 else None
    )
    return d


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", default="45k",
                        help="atom count or grappa label (default: 45k)")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--steps", type=int, default=10,
                        help="timed steps per executor (after 1 warm-up step)")
    parser.add_argument("--nstlist", type=int, default=10)
    parser.add_argument("--kernel", default="cluster",
                        choices=sorted(kernel_registry),
                        help="non-bonded kernel (repro.md.kernels registry)")
    parser.add_argument("--kernel-dtype", default="float64",
                        choices=["float64", "float32"],
                        help="kernel compute precision (float32 = fast path)")
    parser.add_argument("--max-build-bytes", type=parse_build_bytes,
                        default=None, metavar="BYTES",
                        help="pair-list build working-set cap per rank "
                             "(e.g. 64M; bit-identical, bounds build memory; "
                             "recorded as part of the baseline key)")
    parser.add_argument("--dlb", default="off",
                        choices=["off", "pairs", "measured"],
                        help="dynamic load balancing mode (recorded as part "
                             "of the baseline key; 'pairs' is deterministic)")
    parser.add_argument("--warmup-steps", type=int, default=None,
                        help="untimed steps before measurement (default: 1, "
                             "or 6*nstlist with DLB on so boundaries converge "
                             "before the timed window)")
    parser.add_argument("--assert-imbalance-reduction", type=float,
                        default=None, metavar="FACTOR",
                        help="with --dlb on: also run a dlb=off twin per "
                             "executor and fail unless DLB cuts the overall "
                             "par.imbalance by at least FACTOR (e.g. 2.0)")
    parser.add_argument("--backend", default="reference",
                        choices=("reference", "mpi", "threadmpi", "nvshmem"))
    parser.add_argument("--executors", nargs="+",
                        default=["serial", "thread", "process"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--phase-breakdown", action="store_true",
                        help="report local/non-local force split, halo wall "
                             "time, and overlap efficiency per executor")
    parser.add_argument("--no-overlap", action="store_true",
                        help="force the strict schedule (local, exchange, "
                             "non-local) on every executor")
    parser.add_argument("--machine", default="dgx-h100",
                        help="modeled machine for the energy estimate")
    parser.add_argument("--out", default="BENCH_report.json",
                        help="one-shot JSON report path")
    # -- history + regression gate -------------------------------------------
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="committed bench-history file to append to "
                             f"(default: {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not read or append the committed history")
    parser.add_argument("--git-sha", default=None,
                        help="record provenance (default: git rev-parse)")
    parser.add_argument("--timestamp", default=None,
                        help="record timestamp — CI passes its own; defaults "
                             "to $BENCH_TIMESTAMP or the current UTC time")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit non-zero) when a new record regresses "
                             "more than --threshold vs its rolling baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional steps/s loss that fails --check "
                             f"(default: {DEFAULT_THRESHOLD:.2f})")
    parser.add_argument("--baseline-window", type=int, default=DEFAULT_WINDOW,
                        help="records per key folded into the rolling baseline "
                             f"(default: {DEFAULT_WINDOW})")
    args = parser.parse_args(argv)

    if args.assert_imbalance_reduction is not None:
        if args.dlb == "off":
            raise SystemExit(
                "--assert-imbalance-reduction needs --dlb pairs|measured "
                "(there is nothing to compare against with DLB off)"
            )
        if args.assert_imbalance_reduction <= 1.0:
            raise SystemExit(
                f"--assert-imbalance-reduction must be > 1.0, got "
                f"{args.assert_imbalance_reduction}"
            )
    warmup_steps = args.warmup_steps
    if warmup_steps is None:
        warmup_steps = 1 if args.dlb == "off" else 6 * args.nstlist
    n_atoms = resolve_atoms(args.system)
    print(
        f"bench_step: {args.system} ({n_atoms} atoms), {args.ranks} ranks, "
        f"backend {args.backend}, {args.steps} steps/executor "
        f"(+{warmup_steps} warm-up), dlb {args.dlb}, {os.cpu_count()} cpus"
    )
    results = []
    twins: dict[str, dict] = {}  # executor -> dlb=off twin result
    for executor in args.executors:
        r = bench_executor(
            executor, args.system, args.ranks, args.steps,
            backend=args.backend, seed=args.seed, nstlist=args.nstlist,
            phase_breakdown=args.phase_breakdown, overlap=not args.no_overlap,
            kernel=args.kernel, kernel_dtype=args.kernel_dtype,
            max_build_bytes=args.max_build_bytes,
            dlb=args.dlb, warmup_steps=warmup_steps,
        )
        results.append(r)
        mem = r["memory"]
        imb = overall_imbalance(r)
        imb_txt = "" if imb is None else f" | imbalance {imb:.0f}%"
        print(f"  {executor:<8} {r['ms_per_step']:9.2f} ms/step | build peak "
              f"{mem['build_peak_bytes'] / (1 << 20):.1f} MiB "
              f"({mem['build_peak_bytes_per_atom']:.0f} B/atom){imb_txt}")
        if args.assert_imbalance_reduction is not None:
            twins[executor] = bench_executor(
                executor, args.system, args.ranks, args.steps,
                backend=args.backend, seed=args.seed, nstlist=args.nstlist,
                overlap=not args.no_overlap,
                kernel=args.kernel, kernel_dtype=args.kernel_dtype,
                max_build_bytes=args.max_build_bytes,
                dlb="off", warmup_steps=warmup_steps,
            )
            off_imb = overall_imbalance(twins[executor])
            print(f"           dlb=off twin: "
                  f"{twins[executor]['ms_per_step']:.2f} ms/step | imbalance "
                  f"{off_imb:.0f}% -> {imb:.0f}% with dlb={args.dlb}")
        if args.phase_breakdown:
            pb = r["phase_breakdown"]
            print(
                f"           local {pb['forces_local_ms']:.2f} ms | "
                f"nonlocal {pb['forces_nonlocal_ms']:.2f} ms | "
                f"halo {pb['halo_x_ms']:.2f} ms, hidden "
                f"{pb['hidden_ms']:.2f} ms "
                f"({100.0 * pb['overlap_efficiency']:.0f}% overlapped)"
            )

    by_name = {r["executor"]: r for r in results}
    serial = by_name.get("serial")
    if serial is not None:
        # "measured" DLB resizes from wall-clock timings, so different
        # executors legitimately converge to different decompositions;
        # every deterministic mode must still agree bit for bit.
        if args.dlb != "measured":
            checksums = {r["checksum"] for r in results}
            if len(checksums) != 1:
                raise SystemExit("FAILED: executors disagree on final positions")
        for r in results:
            r["speedup_vs_serial"] = serial["ms_per_step"] / r["ms_per_step"]
        for r in results:
            if r is not serial:
                print(f"  {r['executor']} speedup vs serial: "
                      f"{r['speedup_vs_serial']:.2f}x")

    machine_ctx = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    report = {
        "bench": "step_throughput",
        "system": args.system,
        "n_atoms": n_atoms,
        "ranks": args.ranks,
        "backend": args.backend,
        "steps": args.steps,
        "nstlist": args.nstlist,
        "overlap_comm": not args.no_overlap,
        "kernel": args.kernel,
        "kernel_dtype": args.kernel_dtype,
        "max_build_bytes": args.max_build_bytes,
        "dlb": args.dlb,
        "warmup_steps": warmup_steps,
        **machine_ctx,
        "results": results,
        "dlb_off_twins": list(twins.values()) or None,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if args.phase_breakdown:
        fallbacks = sum(
            r["phase_breakdown"]["scatter_fallbacks"] for r in results
        )
        if fallbacks:
            raise SystemExit(
                f"FAILED: segment-reduction kernel fell back to the "
                f"np.add.at scatter path {fallbacks} time(s)"
            )

    # -- imbalance-reduction gate (the DLB acceptance check) -------------------
    if args.assert_imbalance_reduction is not None:
        factor = args.assert_imbalance_reduction
        failures = []
        for r in results:
            off = twins[r["executor"]]
            on_imb, off_imb = overall_imbalance(r), overall_imbalance(off)
            if on_imb is None or off_imb is None:
                failures.append(f"{r['executor']}: no par.rank_us observations")
            elif off_imb <= 0.0:
                failures.append(
                    f"{r['executor']}: dlb=off imbalance is {off_imb:.1f}% — "
                    f"nothing to balance; use an inhomogeneous --system"
                )
            elif off_imb < factor * on_imb:
                failures.append(
                    f"{r['executor']}: {off_imb:.1f}% -> {on_imb:.1f}% is only "
                    f"{off_imb / max(on_imb, 1e-9):.2f}x (need >= {factor:.2f}x)"
                )
        if failures:
            raise SystemExit(
                "FAILED: DLB imbalance reduction below required factor:\n  "
                + "\n  ".join(failures)
            )
        print(f"OK: dlb={args.dlb} cuts overall imbalance >= "
              f"{args.assert_imbalance_reduction:.2f}x on every executor")

    if args.no_history:
        return

    # -- committed history + regression gate ----------------------------------
    git_sha = args.git_sha or detect_git_sha()
    timestamp = (
        args.timestamp
        or os.environ.get("BENCH_TIMESTAMP")
        or datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    history = BenchHistory.load(args.history)
    new_records = []
    # The dlb=off twins (when --assert-imbalance-reduction ran) are real
    # measurements under their own baseline key; committing both sides
    # keeps the before/after imbalance evidence in the history itself.
    for r in results + list(twins.values()):
        energy = _energy_dict(args, n_atoms, r)
        new_records.append(
            BenchRecord(
                git_sha=git_sha,
                timestamp=timestamp,
                system=args.system,
                n_atoms=n_atoms,
                ranks=args.ranks,
                backend=args.backend,
                executor=r["executor"],
                overlap_comm=not args.no_overlap,
                steps=args.steps,
                ms_per_step=r["ms_per_step"],
                steps_per_s=r["steps_per_s"],
                kernel=args.kernel,
                kernel_dtype=args.kernel_dtype,
                max_build_bytes=args.max_build_bytes,
                dlb=r["dlb"],
                machine=machine_ctx,
                phase_breakdown=r.get("phase_breakdown"),
                imbalance=r.get("imbalance"),
                energy=energy,
                memory=r.get("memory"),
            )
        )
    # Gate against the pre-append store so no record compares to itself,
    # but save first: a failing run must still leave its evidence behind.
    gate = check_regression(
        history, new_records,
        threshold=args.threshold, window=args.baseline_window,
    )
    for rec in new_records:
        history.append(rec)
    history.save()
    print(f"appended {len(new_records)} record(s) to {history.path} "
          f"({len(history.records)} total)")
    for g in gate:
        print(f"  gate: {g.describe()}")
    if args.check:
        failed = regressions(gate)
        if failed:
            raise SystemExit(
                f"FAILED: {len(failed)} record(s) regress more than "
                f"{args.threshold:.0%} vs the rolling baseline "
                f"(window {args.baseline_window})"
            )
        print(f"OK: no step-throughput regression beyond {args.threshold:.0%}")


if __name__ == "__main__":
    main()
