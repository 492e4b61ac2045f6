"""The benchmark's named workloads.

Every workload runs the user path ``SimulationSpec`` ->
``DDSimulator.from_spec`` -> ``step()`` with the cluster kernel in
float64, reaction-field electrostatics, nstlist 10, a 0.12 nm buffer,
dt 0.002 ps and the ``process`` rank executor.  They differ in the layer
they stress.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One named benchmark input; why each is in the set is recorded in
    ``BENCHMARK.json``."""

    name: str
    #: System label as ``make_system`` understands it.
    system: str
    shape: tuple[int, int, int]
    backend: str
    pes_per_node: int = 0
    max_pulses: int = 1
    dlb: str = "off"
    coulomb: str = "rf"
    #: Thermostatted ReferenceSimulator steps run by the input generator to
    #: get past the start-up collapse of the fresh soup (not timed, not
    #: part of set-up).
    gen_steps: int = 60
    #: Untimed DD steps between set-up and the timed window (a multiple
    #: of nstlist, so every window starts on the same NS phase).  For
    #: ``slab-dlb`` these are the DLB settle steps.
    settle_steps: int = 10
    #: Length of the reference window: the first steps of every timed
    #: window, whose NS count and final positions are a pure function of
    #: the seed.  The traced run times exactly this window.
    ref_steps: int = 30
    #: Steps of the serve-path comparison (``serve.overhead_pct``).
    serve_steps: int = 10

    def spec(self, seed: int):
        from repro.serve.spec import SimulationSpec

        return SimulationSpec(
            kind="simulate",
            system=self.system,
            shape=self.shape,
            ranks=self.n_ranks,
            max_pulses=self.max_pulses,
            backend=self.backend,
            executor="process",
            pes_per_node=self.pes_per_node,
            nstlist=10,
            buffer=0.12,
            dt=0.002,
            coulomb=self.coulomb,
            kernel="cluster",
            kernel_dtype="float64",
            dlb=self.dlb,
            seed=seed,
        )

    def traced_rows(self) -> list[str]:
        """Layer rows every traced window of this workload must contain."""
        rows = ["dd.ns", "par.bind", "par.run.pairs", "par.forces", "par.run.integrate",
                "comm.bind", "comm.halo_x", "comm.halo_f"]
        if self.dlb != "off":
            rows.append("dd.dlb")
        return rows

    @property
    def n_ranks(self) -> int:
        x, y, z = self.shape
        return x * y * z


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-rf",
            system="12000",
            shape=(1, 1, 4),
            backend="mpi",
        ),
        Workload(
            name="strong-nvshmem",
            system="3000",
            shape=(1, 4, 4),
            backend="nvshmem",
            pes_per_node=4,
            max_pulses=2,
            ref_steps=60,
            serve_steps=20,
        ),
        # 6000 rather than 12000 atoms: input generation and steps at 12000
        # would take a slab run to ~50 s, past the time the full set of
        # runs may take.
        Workload(
            name="slab-dlb",
            system="slab-6000",
            shape=(1, 2, 4),
            backend="mpi",
            dlb="pairs",
            settle_steps=20,
        ),
    )
}

#: Runs that must be reported failed.  ``pme-divergence``: grappa-6000 with
#: PME on 4 ranks integrates into a blow-up between steps 60 and 70 from the
#: fresh soup, without raising.
SELF_TESTS: dict[str, tuple[Workload, int]] = {
    "pme-divergence": (
        Workload(
            name="pme-divergence",
            system="6000",
            shape=(1, 1, 4),
            backend="mpi",
            coulomb="pme",
            gen_steps=0,
            settle_steps=0,
        ),
        80,
    ),
}
