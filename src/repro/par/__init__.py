"""True-parallel rank execution for the DD engine.

The paper's whole point is overlapping per-rank work so communication
stops serializing the step; this package gives the functional engine the
same property.  :class:`~repro.par.base.RankExecutor` abstracts *how* the
per-rank phases (pair search, forces, integration — see
:mod:`repro.par.phases`) are scheduled:

* :class:`~repro.par.serial.SerialExecutor` (``"serial"``) — in-order,
  in-thread; the bit-exactness reference.
* :class:`~repro.par.thread.ThreadExecutor` (``"thread"``) — thread pool
  over the GIL-releasing NumPy kernels.
* :class:`~repro.par.process.ProcessExecutor` (``"process"``) — persistent
  worker processes over a shared-memory arena; only indices cross process
  boundaries.

All three produce bit-identical trajectories: per-rank work has no
cross-rank reduction, and the engine sums rank results in rank order.
"""

from repro.par.base import (
    RankExecutor,
    executor_registry,
    make_executor,
    register_executor,
)
from repro.par.imbalance import (
    imbalance_pct,
    record_imbalance,
    summarize_imbalance,
)
from repro.par.phases import (
    FIELDS,
    PHASE_WRITES,
    PHASES,
    RankConfig,
    RankNsData,
    RankWorkspace,
    SplitPairs,
)
from repro.par.process import ProcessExecutor, WorkerTaskError
from repro.par.serial import SerialExecutor
from repro.par.thread import ThreadExecutor

__all__ = [
    "FIELDS",
    "PHASES",
    "PHASE_WRITES",
    "ProcessExecutor",
    "RankConfig",
    "RankExecutor",
    "RankNsData",
    "RankWorkspace",
    "SerialExecutor",
    "SplitPairs",
    "ThreadExecutor",
    "WorkerTaskError",
    "executor_registry",
    "imbalance_pct",
    "make_executor",
    "record_imbalance",
    "register_executor",
    "summarize_imbalance",
]
