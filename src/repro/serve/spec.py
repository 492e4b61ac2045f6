"""``SimulationSpec``: the one canonical description of a run.

Before this module, every entry point (compare/scaling ``--measure``,
``profile --functional``, ``verify``, ``chaos``, ``bench_step``) plumbed
its own ad-hoc argument bundle into :class:`repro.dd.engine.DDSimulator`.
A :class:`SimulationSpec` replaces all of them: a frozen, schema-versioned,
JSON-round-trippable value object naming the system, the decomposition,
the backend/executor registry entries, every tuning knob, the seed, and —
for chaos jobs — an embedded :class:`repro.chaos.plan.FaultPlan`.

The same spec drives both execution paths:

* **blocking** — ``DDSimulator.from_spec(spec)`` (or
  :func:`repro.serve.client.submit_and_wait` with no server), used by the
  CLIs;
* **service** — submitted to a :class:`repro.serve.engine.JobEngine` over
  JSON-RPC, where the spec's :meth:`system_key` also keys the artifact
  cache shared across jobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any

from repro.chaos.plan import FaultPlan
from repro.md.grappa import resolve_atoms

#: Spec schema version; bump on incompatible field changes.
SPEC_VERSION = 1

#: What a job does with the simulator the spec describes.
KINDS = ("simulate", "verify", "profile", "chaos")


@dataclass(frozen=True)
class SimulationSpec:
    """Frozen description of one simulation / profile / chaos job.

    Everything is JSON-serializable by construction: backends and
    executors are registry *names* (instances never enter a spec), the
    DD grid is an optional explicit ``shape``, and the optional chaos
    plan nests as its own dict.  ``from_dict`` rejects unknown fields and
    foreign schema versions, so specs are safe to ship across the RPC
    boundary.
    """

    # -- what to run ----------------------------------------------------------
    kind: str = "simulate"
    system: str = "1400"  # atom count or grappa label ("45k", "grappa-45k")
    steps: int = 10
    # -- decomposition --------------------------------------------------------
    ranks: int = 4
    shape: tuple[int, int, int] | None = None  # explicit DD grid (overrides ranks)
    max_pulses: int = 1
    # -- backend / executor (registry names only) ----------------------------
    backend: str = "reference"
    executor: str = "serial"
    pes_per_node: int = 0  # nvshmem topology; 0 = backend default
    # -- tuning knobs ---------------------------------------------------------
    nstlist: int = 10
    buffer: float = 0.12
    dt: float = 0.002
    cutoff: float = 0.65
    coulomb: str = "rf"
    trim_corners: bool = False
    overlap_comm: bool = True
    #: Non-bonded kernel registry name ("cluster", "cluster-numba") and
    #: compute precision ("float64"/"float32").
    kernel: str = "cluster"
    kernel_dtype: str = "float64"
    #: Per-rank pair-list build working-set cap in bytes (None = tuned
    #: default chunking).  Purely a memory/perf knob: capped builds are
    #: bit-identical to uncapped ones.
    max_build_bytes: int | None = None
    #: Dynamic load balancing mode: "off" (uniform cells), "pairs"
    #: (deterministic pair-count-driven resizing), or "measured"
    #: (wall-clock-driven resizing; nondeterministic run to run).
    dlb: str = "off"
    # -- determinism ----------------------------------------------------------
    seed: int = 7
    # -- chaos ----------------------------------------------------------------
    fault_plan: FaultPlan | None = None
    n_faults: int = 4  # plan size when a chaos job generates from the seed
    # -- schema ---------------------------------------------------------------
    schema_version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown spec kind '{self.kind}', use one of {KINDS}")
        if self.schema_version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec schema_version {self.schema_version} "
                f"(this build speaks {SPEC_VERSION})"
            )
        if not isinstance(self.backend, str) or not isinstance(self.executor, str):
            raise TypeError(
                "specs carry backend/executor registry *names*; pass instances "
                "to DDSimulator directly if you need one-off objects"
            )
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.shape is not None:
            object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        resolve_atoms(self.system)  # fail fast with the actionable system error
        from repro.md.kernels import KERNEL_DTYPES, kernel_registry

        if self.kernel not in kernel_registry:
            raise ValueError(
                f"unknown kernel '{self.kernel}'; registered kernels: "
                f"{sorted(kernel_registry)}"
            )
        if self.kernel_dtype not in KERNEL_DTYPES:
            raise ValueError(
                f"unknown kernel_dtype '{self.kernel_dtype}'; "
                f"use one of {KERNEL_DTYPES}"
            )
        if self.max_build_bytes is not None and int(self.max_build_bytes) < 4096:
            raise ValueError(
                f"max_build_bytes must be >= 4096 bytes or None, "
                f"got {self.max_build_bytes}"
            )
        if self.dlb not in ("off", "measured", "pairs"):
            raise ValueError(
                f"unknown dlb mode '{self.dlb}': use 'off', 'measured', or 'pairs'"
            )

    # -- derived --------------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return resolve_atoms(self.system)

    @property
    def n_ranks(self) -> int:
        if self.shape is not None:
            n = 1
            for x in self.shape:
                n *= int(x)
            return n
        return self.ranks

    def system_key(self) -> str:
        """Cache key of the *initial physical state* this spec implies.

        Two specs with equal keys build bit-identical systems (same
        density scenario, same atoms, same RNG seed, same force-field
        cutoff), so derived artifacts — the system template, the chosen
        DD grid, the step-0 cluster with its halo ``PulseData`` — are
        shareable across their jobs.  Homogeneous systems keep the
        historical ``grappa:`` prefix; scenario systems key under their
        scenario kind so a slab job never replays a uniform snapshot.
        """
        from repro.md.grappa import resolve_scenario

        scenario = resolve_scenario(self.system)
        prefix = "grappa" if scenario == "uniform" else scenario
        return f"{prefix}:{self.n_atoms}:seed={self.seed}:cutoff={self.cutoff:g}"

    def job_key(self) -> str:
        """Content hash of the full spec (job dedupe / artifact naming)."""
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def with_(self, **changes: Any) -> "SimulationSpec":
        """A copy with the named fields replaced (specs are frozen)."""
        return replace(self, **changes)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.shape is not None:
            d["shape"] = list(self.shape)
        d["fault_plan"] = self.fault_plan.to_dict() if self.fault_plan else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationSpec":
        d = dict(d)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown SimulationSpec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if d.get("shape") is not None:
            d["shape"] = tuple(int(x) for x in d["shape"])
        if d.get("fault_plan") is not None:
            d["fault_plan"] = FaultPlan.from_dict(d["fault_plan"])
        return cls(**d)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationSpec":
        return cls.from_dict(json.loads(text))
