"""Campaign driver: seeded fault-injection runs, artifacts, and replay.

A *case* is one short DD simulation under one :class:`FaultPlan` (and
optionally a protocol mutation), with every invariant checked each step
against a fault-free serial-reference trajectory.  A *campaign* runs M
seeded cases for one backend, records ``chaos.*`` metrics through
:mod:`repro.obs`, and shrinks the first failure to a minimal failing
plan, dumped as a JSON artifact that :func:`replay_artifact` re-runs
deterministically (``repro chaos --replay``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.chaos.inject import ChaosInjector
from repro.chaos.invariants import (
    ChaosViolation,
    check_bit_identity,
    check_halo_partition,
)
from repro.chaos.mutations import apply_mutation
from repro.chaos.plan import FaultPlan
from repro.comm.scheduler import DeadlockError
from repro.nvshmem.signals import SignalError
from repro.obs.metrics import METRICS

#: Artifact schema version, bumped on incompatible layout changes.
ARTIFACT_VERSION = 1

#: Exceptions a chaos case converts into recorded violations.  Anything
#: else is a harness bug and propagates.
_FAILURES = (ChaosViolation, SignalError, DeadlockError, FloatingPointError, AssertionError)


@dataclass
class ChaosConfig:
    """The simulated system and backend one campaign runs against.

    The default is the cheapest honest multi-pulse configuration: 1400
    atoms on a 1x1x4 slab grid gives two z-pulses per rank (second
    neighbour forwarding plus the depOffset dependency chain) in well
    under a second per case.
    """

    backend: str = "nvshmem"
    atoms: int = 1400
    shape: tuple[int, int, int] = (1, 1, 4)
    max_pulses: int = 2
    steps: int = 3
    nstlist: int = 2
    buffer: float = 0.12
    system_seed: int = 3
    pes_per_node: int = 2  # nvshmem only: 1 = all-IB, n_ranks = all-NVLink
    executor: str = "serial"
    n_faults: int = 4
    kernel: str = "cluster"  # non-bonded kernel registry name
    max_build_bytes: int | None = None  # pair-list build working-set cap
    #: Density scenario of the synthetic system ("uniform", "slab",
    #: "droplet", "gap") — inhomogeneous cases exercise DLB under faults.
    scenario: str = "uniform"
    #: Dynamic load balancing mode.  Chaos campaigns must use "off" or
    #: the deterministic "pairs" mode: the bit-identity oracle is the
    #: same config on the reference backend, and "measured" would let
    #: wall-clock noise steer the two runs into different decompositions.
    dlb: str = "off"

    @property
    def n_ranks(self) -> int:
        return int(np.prod(self.shape))

    @property
    def system_label(self) -> str:
        """The spec-side system label ("1400" or "slab-1400")."""
        if self.scenario == "uniform":
            return str(self.atoms)
        return f"{self.scenario}-{self.atoms}"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["shape"] = list(self.shape)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosConfig":
        d = dict(d)
        d["shape"] = tuple(d["shape"])
        return cls(**d)

    def to_spec(self, fault_plan: FaultPlan | None = None):
        """The equivalent :class:`repro.serve.spec.SimulationSpec`.

        ``spec.seed`` carries the *system* seed (plan seeds travel inside
        the embedded ``fault_plan``), so the spec builds the same system
        and NVSHMEM topology this config does.
        """
        # Imported here, not at module level: serve.spec imports
        # chaos.plan, whose package __init__ pulls this module back in.
        from repro.serve.spec import SimulationSpec

        if self.dlb == "measured":
            raise ValueError(
                "chaos campaigns cannot use dlb='measured': the bit-identity "
                "oracle re-runs the same config on the reference backend, and "
                "wall-clock-driven resizing would diverge the two "
                "decompositions; use the deterministic 'pairs' mode"
            )
        return SimulationSpec(
            kind="chaos",
            system=self.system_label,
            steps=self.steps,
            shape=tuple(self.shape),
            max_pulses=self.max_pulses,
            backend=self.backend,
            executor=self.executor,
            pes_per_node=self.pes_per_node,
            nstlist=self.nstlist,
            buffer=self.buffer,
            kernel=self.kernel,
            max_build_bytes=self.max_build_bytes,
            seed=self.system_seed,
            n_faults=self.n_faults,
            fault_plan=fault_plan,
            dlb=self.dlb,
        )


@dataclass
class CaseResult:
    """Outcome of one fault-injected run."""

    plan: FaultPlan
    violations: list[str] = field(default_factory=list)
    steps_completed: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.violations)


@dataclass
class CampaignResult:
    """Outcome of a seeded campaign for one backend."""

    config: ChaosConfig
    runs: int = 0
    failures: list[CaseResult] = field(default_factory=list)
    artifact: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# -- building blocks -----------------------------------------------------------


def _make_sim(cfg: ChaosConfig, backend: str | None = None, executor: str | None = None):
    """Build the case's simulator from the config's spec.

    ``backend``/``executor`` are registry-name overrides (the reference
    oracle swaps both); construction itself goes through
    ``DDSimulator.from_spec`` so chaos cases and serve jobs share one
    construction path.
    """
    from repro.dd import DDSimulator

    spec = cfg.to_spec()
    if backend is not None:
        spec = spec.with_(backend=backend)
    if executor is not None:
        spec = spec.with_(executor=executor)
    sim = DDSimulator.from_spec(spec)
    return sim.system, sim, sim.backend


def reference_trajectory(cfg: ChaosConfig) -> list[np.ndarray]:
    """Fault-free serial-reference positions after each step.

    The bit-identity oracle: reference backend, serial executor, no
    chaos.  Every backend/executor combination must reproduce it bit for
    bit (the engine's own tests establish that without faults; the chaos
    campaign asserts it *with* faults).
    """
    system, sim, _ = _make_sim(cfg, backend="reference", executor="serial")
    out = []
    with sim:
        for _ in range(cfg.steps):
            sim.step()
            out.append(system.positions.copy())
    return out


def run_case(
    cfg: ChaosConfig,
    plan: FaultPlan,
    mutation: str | None = None,
    reference: list[np.ndarray] | None = None,
) -> CaseResult:
    """One fault-injected simulation with all invariants checked per step."""
    if reference is None:
        reference = reference_trajectory(cfg)
    system, sim, backend = _make_sim(cfg)
    result = CaseResult(plan=plan)
    mut = apply_mutation(mutation) if mutation else nullcontext()
    with mut, sim, ChaosInjector(plan, backend=backend) as inj:
        for k in range(cfg.steps):
            try:
                sim.step()
                result.violations.extend(inj.state.drain_violations())
                if not result.violations:
                    check_bit_identity(system.positions, reference[k], step=k)
            except _FAILURES as err:
                result.violations.append(f"step {k}: {type(err).__name__}: {err}")
                result.violations.extend(inj.state.drain_violations())
            if result.violations:
                break
            result.steps_completed += 1
        if sim.cluster is not None and not result.violations:
            try:
                check_halo_partition(sim.cluster.plan)
            except ChaosViolation as err:
                result.violations.append(f"partition: {err}")
    return result


# -- campaigns and artifacts ---------------------------------------------------


def make_artifact(
    cfg: ChaosConfig, plan: FaultPlan, mutation: str | None, violations: list[str]
) -> dict:
    """The replayable record of a (shrunk) failing schedule."""
    return {
        "version": ARTIFACT_VERSION,
        "config": cfg.to_dict(),
        "plan": plan.to_dict(),
        "mutation": mutation,
        "violations": violations,
    }


def write_artifact(path: str, artifact: dict) -> str:
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    return path


def replay_artifact(path_or_dict) -> CaseResult:
    """Deterministically re-run a dumped failing schedule."""
    if isinstance(path_or_dict, dict):
        artifact = path_or_dict
    else:
        with open(path_or_dict) as fh:
            artifact = json.load(fh)
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact version {artifact.get('version')} != {ARTIFACT_VERSION}"
        )
    cfg = ChaosConfig.from_dict(artifact["config"])
    plan = FaultPlan.from_dict(artifact["plan"])
    METRICS.counter("chaos.replays").inc()
    return run_case(cfg, plan, mutation=artifact.get("mutation"))


def run_campaign(
    cfg: ChaosConfig,
    runs: int = 50,
    seed0: int = 0,
    mutation: str | None = None,
    shrink: bool = True,
    log=None,
) -> CampaignResult:
    """Run ``runs`` seeded fault plans; shrink and record the first failure."""
    from repro.chaos.shrink import shrink_plan

    reference = reference_trajectory(cfg)
    result = CampaignResult(config=cfg)
    for i in range(runs):
        plan = FaultPlan.generate(
            seed0 + i,
            n_faults=cfg.n_faults,
            n_ranks=cfg.n_ranks,
            n_pulses=cfg.max_pulses,
            backend=cfg.backend,
        )
        case = run_case(cfg, plan, mutation=mutation, reference=reference)
        result.runs += 1
        METRICS.counter("chaos.runs", backend=cfg.backend).inc()
        if case.failed:
            METRICS.counter("chaos.failures", backend=cfg.backend).inc()
            if log is not None:
                log.warning(
                    "chaos[%s] seed %d FAILED: %s",
                    cfg.backend, plan.seed, "; ".join(case.violations),
                )
            result.failures.append(case)
            if result.artifact is None and shrink:
                shrunk = shrink_plan(cfg, plan, mutation=mutation, reference=reference)
                confirm = run_case(cfg, shrunk, mutation=mutation, reference=reference)
                result.artifact = make_artifact(cfg, shrunk, mutation, confirm.violations)
    return result
