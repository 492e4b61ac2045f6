"""Correctness, resource and host checks run on every benchmark run."""

from __future__ import annotations

import hashlib
import multiprocessing
import os

import numpy as np

#: Force parity vs the serial reference, as the tier-1 DD parity tests
#: use it: ``atol = 1e-10 * max|F_ref|`` in float64.
FORCE_ATOL_REL = 1e-10
#: Largest |conserved-energy slope| accepted over a window,
#: kJ/mol/ps/atom.  Windows on the generated (300 K) inputs read 0.003-0.06;
#: an unthermostatted post-collapse soup drifts by 0.5-2, and a blow-up by
#: orders of magnitude more.
MAX_DRIFT = 1.0


class CheckFailed(Exception):
    """A run's outputs or resources failed a benchmark check."""


def digest(positions: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).hexdigest()[:16]


def energy_drift(energies, dt: float, n_atoms: int) -> float:
    """Least-squares slope of total energy over time, kJ/mol/ps/atom."""
    if len(energies) < 2:
        return 0.0
    t = np.array([e.step for e in energies], dtype=np.float64) * dt
    tot = np.array([e.total for e in energies], dtype=np.float64)
    return float(np.polyfit(t, tot, 1)[0]) / n_atoms


def check_energies(energies, dt: float, n_atoms: int) -> float:
    """Require finite energies and a bounded drift; return the drift."""
    for e in energies:
        if not np.isfinite([e.lj, e.coulomb, e.kinetic, e.bonded]).all():
            raise CheckFailed(f"non-finite energy at step {e.step}: {e}")
    drift = energy_drift(energies, dt, n_atoms)
    if not abs(drift) <= MAX_DRIFT:
        raise CheckFailed(
            f"energy drift {drift:.3g} kJ/mol/ps/atom over steps "
            f"{energies[0].step}-{energies[-1].step} exceeds {MAX_DRIFT}"
        )
    return drift


def check_forces(sim, spec) -> float:
    """One more step, then DD forces vs a ReferenceSimulator evaluation.

    Returns the largest deviation relative to ``max|F_ref|``.
    """
    from repro.md import ReferenceSimulator

    positions = sim.system.positions.copy()
    sim.step()
    dd = sim.gathered_forces()
    system = sim.system.copy()
    system.positions = positions
    ref = ReferenceSimulator(
        system, sim.ff, nstlist=spec.nstlist, buffer=spec.buffer, dt=spec.dt,
        coulomb=spec.coulomb, kernel=spec.kernel, kernel_dtype=spec.kernel_dtype,
    )
    ref.compute_forces()
    scale = float(np.abs(system.forces).max())
    dev = float(np.abs(dd - system.forces).max())
    if not (np.isfinite(scale) and dev <= FORCE_ATOL_REL * scale):
        raise CheckFailed(
            f"DD forces deviate from the reference by {dev:.3g} "
            f"(max |F| {scale:.3g}, tolerance {FORCE_ATOL_REL:g} relative)"
        )
    return dev / scale


# -- resources --------------------------------------------------------------------


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def pool_workers() -> list:
    return [
        p for p in multiprocessing.active_children() if p.name.startswith("repro-par-")
    ]


def check_leaks(shm_before: set[str]) -> None:
    """No shared-memory segment and no executor worker may outlive close().

    Leftovers are cleaned up after they are recorded, so one leaking run
    cannot poison the next.
    """
    leaked_shm = sorted(shm_segments() - shm_before)
    leaked_procs = pool_workers()
    for proc in leaked_procs:
        proc.terminate()
        proc.join(5.0)
    for name in leaked_shm:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except FileNotFoundError:
            pass
    if leaked_shm or leaked_procs:
        raise CheckFailed(
            f"leak after executor close: shm {leaked_shm}, "
            f"processes {[p.name for p in leaked_procs]}"
        )


def _status_kib(pid: int | str, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def parent_peak_rss_mib() -> float:
    return _status_kib("self", "VmHWM") / 1024.0


def worker_peak_rss_mib() -> float:
    """Largest peak RSS among the live executor workers."""
    return max((_status_kib(p.pid, "VmHWM") for p in pool_workers()), default=0.0) / 1024.0


def host_context(n_ranks: int) -> dict:
    cores = os.cpu_count() or 1
    return {
        "cpu_count": cores,
        "ranks": n_ranks,
        "workers": max(1, min(n_ranks, cores)),
        "oversubscribed": n_ranks > cores,
    }
