"""Strong-scaling sweep: fixed systems, growing rank counts, real steps.

The paper's headline result is strong scaling of the grappa set across
8–64 GPUs; this benchmark is our analogue.  For each system it times
real :class:`repro.dd.engine.DDSimulator` steps (process executor,
cluster kernel, chunked pair-list builds) at every rank count in the
sweep and reports **parallel efficiency** — ``t(base)·base / t(R)·R`` —
next to the :mod:`repro.perf` timing model's prediction for the same
decomposition on the modeled machine
(:func:`repro.perf.energy.model_scaling_efficiency`).

Honesty note: on a single-core host every rank runs serialized through
one worker, so measured "efficiency" reflects decomposition overhead
(smaller per-rank domains, more halo volume, more IPC) rather than
parallel speedup — it *decreases* with rank count by construction.  The
report records ``cpu_count`` with every number so readers can tell a
laptop sweep from a real one, and the model column shows what the paper's
hardware would allow.

Every configuration appends a :class:`repro.obs.bench.BenchRecord` to
the committed history (default ``BENCH_step.json``) under its own
baseline key — ``(system, ranks, backend, executor, overlap, kernel,
dtype, max_build_bytes, dlb)`` — so ``--check`` gates each sweep point
against its own rolling baseline, exactly like ``bench_step``.  Systems
may carry a density-scenario prefix ("slab-45k", "droplet-45k"): the
sweep then runs the inhomogeneous generator and the imbalance column
shows what DLB (``--dlb pairs``) buys at each rank count.

Memory discipline is enforced, not just observed: ``--assert-bytes-per-atom``
fails the run when any configuration's per-rank build peak (the
``md.build.peak_bytes_per_atom`` gauge) exceeds the documented budget,
and ``--assert-peak-rss-mb`` bounds the whole sweep's resident set
(``getrusage``, self + children) — the CI ``scale`` job uses both.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --systems 192k --rank-counts 16 --steps 2 \
        --assert-bytes-per-atom 4000 --assert-peak-rss-mb 2048 \
        --no-history                                             # CI smoke
    PYTHONPATH=src python benchmarks/bench_scaling.py --check \
        --timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)"             # gated run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.dd import DDSimulator, resolve_backend_executor
from repro.md import default_forcefield, make_system
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
from repro.perf.energy import model_scaling_efficiency
from repro.perf.machines import machine_by_name

from bench_step import (  # noqa: E402  (sibling benchmark module)
    build_memory_snapshot,
    detect_git_sha,
    parse_build_bytes,
    resolve_atoms,
)

#: Default sweep: the paper's smallest grappa point plus a ≥768k system,
#: both at 8/16/32/64 ranks (the strong-scaling range the paper reports).
DEFAULT_SYSTEMS = ("45k", "768k")
DEFAULT_RANK_COUNTS = (8, 16, 32, 64)

#: Default per-rank build working-set cap for the sweep.  64 MiB keeps
#: the norm-expansion GEMM chunks bounded independent of system size —
#: the whole point of the chunked build path — while staying far above
#: the crossover where chunking would add measurable overhead.
DEFAULT_MAX_BUILD_BYTES = 64 << 20


def peak_rss_mb() -> float:
    """Peak resident set of this process tree so far, in MiB.

    ``ru_maxrss`` is a high-water mark since process start (kilobytes on
    Linux), covering self plus reaped children — the executor workers.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def bench_config(
    system: str, ranks: int, steps: int, *,
    backend: str, executor: str, kernel: str, kernel_dtype: str,
    seed: int, nstlist: int, max_build_bytes: int | None,
    dlb: str = "off", warmup_steps: int = 1,
) -> dict:
    """Steady-state ms/step for one (system, ranks) sweep point."""
    n_atoms = resolve_atoms(system)
    try:
        backend_obj, executor_obj = resolve_backend_executor(backend, executor)
    except ValueError as err:
        raise SystemExit(str(err)) from None
    ff = default_forcefield(cutoff=0.65)
    md_system = make_system(system, seed=seed, ff=ff, dtype=np.float64)
    with DDSimulator(
        md_system, ff, n_ranks=ranks, backend=backend_obj,
        executor=executor_obj, nstlist=nstlist, buffer=0.12,
        overlap_comm=True, kernel=kernel, kernel_dtype=kernel_dtype,
        max_build_bytes=max_build_bytes, dlb=dlb,
    ) as sim:
        sim.run(warmup_steps)  # first neighbour search, pool spin-up, DLB settle
        memory = build_memory_snapshot()
        METRICS.reset()
        t0 = time.perf_counter()
        sim.run(steps)
        elapsed = time.perf_counter() - t0
        checksum = float(np.sum(sim.system.positions))
        dlb_adjustments = sim.dlb_adjustments
    ms = elapsed * 1e3 / steps
    summary = record_imbalance(executor=executor)
    overall = (summary.get(executor) or {}).get("overall")
    return {
        "system": system,
        "n_atoms": n_atoms,
        "ranks": ranks,
        "ms_per_step": ms,
        "steps_per_s": 1e3 / ms,
        "measured_steps": steps,
        "warmup_steps": warmup_steps,
        "checksum": checksum,
        "dlb": dlb,
        "dlb_adjustments": dlb_adjustments,
        "imbalance": summary,
        "imbalance_pct": None if overall is None else overall["imbalance_pct"],
        "memory": memory,
        "peak_rss_mb": peak_rss_mb(),
    }


def attach_efficiency(points: list[dict], machine) -> None:
    """Fill each sweep point's ``scaling`` dict, per system, in place.

    Measured efficiency is strong scaling vs the smallest rank count in
    the sweep: ``t(base)·base / t(R)·R``.  Model efficiency is the
    :mod:`repro.perf` prediction over the same base, on ``machine``.
    """
    by_system: dict[str, list[dict]] = {}
    for p in points:
        by_system.setdefault(p["system"], []).append(p)
    for system_points in by_system.values():
        system_points.sort(key=lambda p: p["ranks"])
        base = system_points[0]
        base_ranks = base["ranks"]
        base_cost = base["ms_per_step"] * base_ranks
        for p in system_points:
            measured = base_cost / (p["ms_per_step"] * p["ranks"])
            model = model_scaling_efficiency(
                p["n_atoms"], p["ranks"], machine,
                backend="nvshmem", base_ranks=base_ranks,
            )
            p["scaling"] = {
                "base_ranks": base_ranks,
                "measured_efficiency": measured,
                "model_efficiency": model,
                "model_machine": machine.name,
                "model_backend": "nvshmem",
            }


def markdown_table(points: list[dict], cpu_count: int | None) -> str:
    """The sweep as a README-ready GitHub markdown table."""
    lines = [
        "| system | atoms | ranks | ms/step | efficiency (measured) "
        "| efficiency (model, nvshmem) | build peak B/atom | imbalance % | dlb |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for p in points:
        s = p["scaling"]
        model = s["model_efficiency"]
        model_txt = f"{model:.2f}" if model is not None else "n/a"
        imb = p.get("imbalance_pct")
        imb_txt = f"{imb:.0f}" if imb is not None else "n/a"
        lines.append(
            f"| {p['system']} | {p['n_atoms']:,} | {p['ranks']} "
            f"| {p['ms_per_step']:.1f} "
            f"| {s['measured_efficiency']:.2f} "
            f"| {model_txt} "
            f"| {p['memory']['build_peak_bytes_per_atom']:.0f} "
            f"| {imb_txt} | {p.get('dlb', 'off')} |"
        )
    lines.append("")
    lines.append(
        f"*Measured on a {cpu_count}-core host: ranks serialize through "
        f"min(ranks, cores) workers, so the measured column shows "
        f"decomposition + IPC overhead, not parallel speedup; the model "
        f"column is the perf model's prediction for the paper's hardware.*"
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS),
                        help="systems to sweep (default: 45k 768k)")
    parser.add_argument("--rank-counts", nargs="+", type=int,
                        default=list(DEFAULT_RANK_COUNTS),
                        help="rank counts per system (default: 8 16 32 64)")
    parser.add_argument("--steps", type=int, default=3,
                        help="timed steps per point (after 1 warm-up step)")
    parser.add_argument("--nstlist", type=int, default=10)
    parser.add_argument("--executor", default="process",
                        help="rank executor (default: process)")
    parser.add_argument("--backend", default="reference",
                        choices=("reference", "mpi", "threadmpi", "nvshmem"))
    parser.add_argument("--kernel", default="cluster",
                        choices=sorted(kernel_registry))
    parser.add_argument("--kernel-dtype", default="float64",
                        choices=["float64", "float32"])
    parser.add_argument("--max-build-bytes", type=parse_build_bytes,
                        default=DEFAULT_MAX_BUILD_BYTES, metavar="BYTES",
                        help="per-rank build working-set cap "
                             "(default: 64M; '0' = uncapped)")
    parser.add_argument("--dlb", default="off",
                        choices=["off", "pairs", "measured"],
                        help="dynamic load balancing mode (recorded as part "
                             "of each point's baseline key)")
    parser.add_argument("--warmup-steps", type=int, default=None,
                        help="untimed steps per point (default: 1, or "
                             "6*nstlist with DLB on so boundaries converge)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--machine", default="dgx-h100",
                        help="modeled machine for the efficiency prediction")
    parser.add_argument("--out", default="BENCH_scaling.json",
                        help="one-shot JSON report path")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="also write the sweep as a markdown table")
    # -- hard memory gates (CI) ----------------------------------------------
    parser.add_argument("--assert-bytes-per-atom", type=float, default=None,
                        metavar="N",
                        help="fail when any point's per-rank build peak "
                             "exceeds N bytes/atom (md.build.peak_bytes_per_atom)")
    parser.add_argument("--assert-peak-rss-mb", type=float, default=None,
                        metavar="MB",
                        help="fail when the sweep's peak RSS (self+children) "
                             "exceeds MB mebibytes")
    # -- history + regression gate -------------------------------------------
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help=f"committed bench-history file (default: "
                             f"{DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true")
    parser.add_argument("--git-sha", default=None)
    parser.add_argument("--timestamp", default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail when a sweep point regresses more than "
                             "--threshold vs its rolling baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument("--baseline-window", type=int, default=DEFAULT_WINDOW)
    args = parser.parse_args(argv)

    max_build_bytes = args.max_build_bytes or None  # 0 -> uncapped
    machine = machine_by_name(args.machine)
    cap_label = (
        f"{max_build_bytes // (1 << 20)}M cap" if max_build_bytes else "uncapped"
    )
    warmup_steps = args.warmup_steps
    if warmup_steps is None:
        warmup_steps = 1 if args.dlb == "off" else 6 * args.nstlist
    print(
        f"bench_scaling: systems {args.systems}, ranks {args.rank_counts}, "
        f"{args.executor}/{args.kernel}/{args.kernel_dtype}, {cap_label}, "
        f"dlb {args.dlb}, {args.steps} steps/point "
        f"(+{warmup_steps} warm-up), {os.cpu_count()} cpus"
    )

    points = []
    for system in args.systems:
        for ranks in args.rank_counts:
            p = bench_config(
                system, ranks, args.steps,
                backend=args.backend, executor=args.executor,
                kernel=args.kernel, kernel_dtype=args.kernel_dtype,
                seed=args.seed, nstlist=args.nstlist,
                max_build_bytes=max_build_bytes,
                dlb=args.dlb, warmup_steps=warmup_steps,
            )
            points.append(p)
            mem = p["memory"]
            imb = p.get("imbalance_pct")
            imb_txt = f" | imb {imb:5.0f}%" if imb is not None else ""
            print(
                f"  {system:>6} @ {ranks:>2}r  {p['ms_per_step']:9.1f} ms/step"
                f" | build peak {mem['build_peak_bytes'] / (1 << 20):8.1f} MiB"
                f" ({mem['build_peak_bytes_per_atom']:6.0f} B/atom)"
                f" | rss {p['peak_rss_mb']:7.0f} MiB{imb_txt}"
            )

    attach_efficiency(points, machine)
    for p in points:
        s = p["scaling"]
        model = s["model_efficiency"]
        model_txt = f"{model:.2f}" if model is not None else "n/a"
        print(
            f"  {p['system']:>6} @ {p['ranks']:>2}r  efficiency "
            f"{s['measured_efficiency']:.2f} measured vs {model_txt} model "
            f"(base {s['base_ranks']}r)"
        )

    machine_ctx = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    report = {
        "bench": "strong_scaling",
        "systems": args.systems,
        "rank_counts": args.rank_counts,
        "backend": args.backend,
        "executor": args.executor,
        "kernel": args.kernel,
        "kernel_dtype": args.kernel_dtype,
        "max_build_bytes": max_build_bytes,
        "dlb": args.dlb,
        "warmup_steps": warmup_steps,
        "steps": args.steps,
        "nstlist": args.nstlist,
        "model_machine": args.machine,
        "peak_rss_mb": peak_rss_mb(),
        **machine_ctx,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.markdown:
        Path(args.markdown).write_text(
            markdown_table(points, machine_ctx["cpu_count"])
        )
        print(f"wrote {args.markdown}")

    # -- hard memory gates -----------------------------------------------------
    failures = []
    if args.assert_bytes_per_atom is not None:
        for p in points:
            got = p["memory"]["build_peak_bytes_per_atom"]
            if got > args.assert_bytes_per_atom:
                failures.append(
                    f"{p['system']}@{p['ranks']}r build peak {got:.0f} B/atom "
                    f"> budget {args.assert_bytes_per_atom:.0f}"
                )
    if args.assert_peak_rss_mb is not None:
        rss = peak_rss_mb()
        if rss > args.assert_peak_rss_mb:
            failures.append(
                f"peak RSS {rss:.0f} MiB > budget {args.assert_peak_rss_mb:.0f}"
            )
    if failures:
        raise SystemExit(
            "FAILED memory budget:\n  " + "\n  ".join(failures)
        )
    if args.assert_bytes_per_atom is not None or args.assert_peak_rss_mb is not None:
        print("OK: memory within budget")

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
    new_records = [
        BenchRecord(
            git_sha=git_sha,
            timestamp=timestamp,
            system=p["system"],
            n_atoms=p["n_atoms"],
            ranks=p["ranks"],
            backend=args.backend,
            executor=args.executor,
            overlap_comm=True,
            steps=args.steps,
            ms_per_step=p["ms_per_step"],
            steps_per_s=p["steps_per_s"],
            kernel=args.kernel,
            kernel_dtype=args.kernel_dtype,
            max_build_bytes=max_build_bytes,
            dlb=args.dlb,
            machine=machine_ctx,
            imbalance=p.get("imbalance"),
            memory=p.get("memory"),
            scaling=p.get("scaling"),
        )
        for p in points
    ]
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
                f"FAILED: {len(failed)} sweep point(s) regress more than "
                f"{args.threshold:.0%} vs the rolling baseline "
                f"(window {args.baseline_window})"
            )
        print(f"OK: no strong-scaling regression beyond {args.threshold:.0%}")


if __name__ == "__main__":
    main()
