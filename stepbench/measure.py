"""Input generation, set-up and timed step windows."""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stepbench.checks import CheckFailed, check_leaks, digest, worker_peak_rss_mib


#: Target temperature of the generator's velocity rescaling, K.
GEN_TEMPERATURE = 300.0
#: Generation takes ~35 s for 12000 atoms; past this it is treated as hung.
GEN_TIMEOUT_S = 150.0


def input_for(workload, seed: int, cache_dir: Path):
    """The workload's start state for ``seed``, generated on first use.

    Generation runs in a spawned process that writes the state to
    ``cache_dir`` (keyed by the generator's inputs and the source of
    ``repro.md``), and this process only loads it, so the generator's
    memory never shows in the measured peak RSS, and repeated seeds skip
    it.
    """
    import repro.md
    from repro.md.system import MDSystem

    key = _source_key((workload.gen_steps, GEN_TEMPERATURE, workload.spec(seed).to_dict()),
                      repro.md)
    path = cache_dir / f"{workload.name}-{seed}-{key}.npz"
    if not path.is_file():
        proc = mp.get_context("spawn").Process(
            target=_generate_to, args=(workload, seed, path), name="stepbench-input"
        )
        proc.start()
        proc.join(GEN_TIMEOUT_S)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        if proc.exitcode != 0 or not path.is_file():
            raise CheckFailed(
                f"input generation for {workload.name} seed {seed} failed "
                f"(exit code {proc.exitcode})"
            )
    with np.load(path) as data:
        return MDSystem(**{k: data[k] for k in data.files})


def _generate_to(workload, seed: int, path: Path) -> None:
    system = generate_input(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, **{k: getattr(system, k) for k in _STATE})
    os.replace(tmp, path)


def generate_input(workload, seed: int):
    """A fresh soup equilibrated past its start-up collapse.

    The serial :class:`ReferenceSimulator` (the independent oracle, not
    the engine under test) integrates ``gen_steps`` steps, rescaling
    velocities to :data:`GEN_TEMPERATURE` after each one.  Without the
    rescaling the collapse heats the soup to ~1600 K, and some seeds blow
    up within 50 steps (3000 atoms, seed 4: step ~45).
    """
    from repro.md import ReferenceSimulator, default_forcefield
    from repro.md.inhomogeneous import make_system
    from repro.md.integrator import instantaneous_temperature

    spec = workload.spec(seed)
    ff = default_forcefield(cutoff=spec.cutoff)
    system = make_system(spec.system, seed=seed, ff=ff, dtype=np.float64)
    if workload.gen_steps:
        ref = ReferenceSimulator(
            system, ff, nstlist=spec.nstlist, buffer=spec.buffer, dt=spec.dt,
            coulomb=spec.coulomb, kernel=spec.kernel, kernel_dtype=spec.kernel_dtype,
        )
        for _ in range(workload.gen_steps):
            last = ref.step()
            temp = instantaneous_temperature(system.velocities, system.masses)
            if not (np.isfinite(last.total) and temp > 0.0):
                raise CheckFailed(f"input generator diverged: {last}")
            system.velocities *= np.sqrt(GEN_TEMPERATURE / temp)
    system.wrap()
    system.forces[...] = 0.0
    return system


_STATE = ("box", "positions", "velocities", "type_ids", "charges", "masses", "forces")


def _source_key(inputs, package) -> str:
    """Hash of ``inputs`` and every source file of ``package``."""
    h = hashlib.sha256(repr(inputs).encode())
    root = Path(package.__file__).parent
    for src in sorted(root.rglob("*.py")):
        h.update(str(src.relative_to(root)).encode())
        h.update(src.read_bytes())
    return h.hexdigest()[:12]


def check_reference(workload, seed: int, win, cache_dir: Path) -> None:
    """Every run of a seed must reproduce its first run's reference window.

    The NS count and positions digest after the first ``ref_steps`` timed
    steps are a pure function of the seed and the program, so the first
    run records them next to the cached input (keyed by the workload and
    the program's source) and every later run, traced or not, compares.
    """
    import repro

    key = _source_key((workload, workload.spec(seed).to_dict()), repro)
    path = cache_dir / f"{workload.name}-{seed}-{key}.ref.json"
    seen = {"steps": workload.ref_steps, "ns_count": win.ref_ns, "digest": win.ref_digest}
    if path.is_file():
        first = json.loads(path.read_text())
        if first != seen:
            raise CheckFailed(f"reference window differs from an earlier run of "
                              f"seed {seed}: {seen} vs {first}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, path)


@dataclass
class Setup:
    """Repeated spec + input -> ``from_spec`` -> first ``step()``."""

    setup_s: list[float] = field(default_factory=list)
    from_spec_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    worker_rss_mib: float = 0.0


def start(spec, system, reps: int, shm_before: set[str], setup: Setup):
    """Build the simulator ``reps`` times; return the last one, still open.

    Every rep starts from a copy of the same input, so all first-step
    position digests must agree.
    """
    from repro.dd.engine import DDSimulator

    sim = None
    for rep in range(reps):
        state = system.copy()
        t0 = time.perf_counter()
        sim = DDSimulator.from_spec(spec, system=state)
        t1 = time.perf_counter()
        try:
            sim.step()
        except BaseException:
            sim.close()
            raise
        t2 = time.perf_counter()
        setup.setup_s.append(t2 - t0)
        setup.from_spec_s.append(t1 - t0)
        setup.digests.append(digest(sim.system.positions))
        if rep < reps - 1:
            finish(sim, shm_before, setup)
    if len(set(setup.digests)) != 1:
        raise CheckFailed(f"set-up reps disagree after step 0: {setup.digests}")
    return sim


def finish(sim, shm_before: set[str], setup: Setup) -> None:
    """Record the workers' peak RSS, close the simulator, check for leaks."""
    setup.worker_rss_mib = max(setup.worker_rss_mib, worker_peak_rss_mib())
    sim.close()
    check_leaks(shm_before)


@dataclass
class Window:
    """Per-step walls of one timed window of ``DDSimulator.step()``."""

    start_step: int = 0
    step_s: list[float] = field(default_factory=list)
    is_ns: list[bool] = field(default_factory=list)
    wall_s: float = 0.0
    #: NS count and positions digest after the first ``ref_steps`` steps.
    ref_ns: int | None = None
    ref_digest: str | None = None
    energies: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.step_s)

    def ns_per_day(self, dt_ps: float) -> float:
        return self.steps * dt_ps * 1e-3 / self.wall_s * 86400.0

    def split(self) -> tuple[list[float], list[float]]:
        md = [t for t, ns in zip(self.step_s, self.is_ns) if not ns]
        ns = [t for t, ns in zip(self.step_s, self.is_ns) if ns]
        return md, ns


def run_window(
    sim, ref_steps: int, seconds: float | None = None, block: int = 10, tracer=None
) -> Window:
    """Time whole blocks of steps: ``ref_steps``, then more until ``seconds``.

    A step ran a neighbour search when it replaced the simulator's
    ``ClusterState`` (DLB updates happen inside those steps).  With a
    ``tracer`` each step is wrapped in its root span.
    """
    win = Window(start_step=sim.step_count)
    t_start = time.perf_counter()
    while True:
        for _ in range(block):
            before = sim.cluster
            t0 = time.perf_counter()
            if tracer is None:
                rec = sim.step()
            else:
                with tracer.span("dd.step"):
                    rec = sim.step()
            win.step_s.append(time.perf_counter() - t0)
            win.is_ns.append(sim.cluster is not before)
            win.energies.append(rec)
            if win.steps == ref_steps:
                win.ref_ns = sum(win.is_ns)
                win.ref_digest = digest(sim.system.positions)
        elapsed = time.perf_counter() - t_start
        if win.steps >= ref_steps and (seconds is None or elapsed >= seconds):
            break
    win.wall_s = elapsed
    return win


def settle(sim, n_steps: int) -> None:
    """Untimed steps up to step index ``n_steps`` (window alignment, DLB)."""
    while sim.step_count < n_steps:
        sim.step()


# -- statistics -------------------------------------------------------------------


def tail(samples: list[float], min_beyond: int = 10) -> tuple[float, int, int]:
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Nearest-rank percentiles from 50 up; returns ``(value, percentile,
    n)``.  Below ``2 * min_beyond`` samples no percentile qualifies and
    the median is returned as percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    best = 50
    for p in range(50, 100):
        rank = max(1, -(-p * n // 100))
        if n - rank >= min_beyond:
            best = p
    rank = max(1, -(-best * n // 100))
    return xs[rank - 1], best, n
