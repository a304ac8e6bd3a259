"""Parallel sweep execution: multiprocess fan-out over independent runs.

Every sweep-shaped workload in this repo — stress seeds, fault seeds,
benchmark matrices, figure parameter grids — is a list of independent,
deterministic, single-threaded simulations.  This package fans such a
list out across worker processes and merges the results so the output
is byte-identical to the serial run:

* :mod:`repro.parallel.tasks` — the picklable :class:`SweepTask` /
  :class:`TaskResult` model, shared execution semantics, grid
  expansion and ``--shard i/N`` slicing.
* :mod:`repro.parallel.executor` — :func:`run_sweep`: warm worker
  pool, ordered aggregation, crash isolation, live progress line, and
  the pure in-process ``jobs=1`` fallback; :class:`WorkerPool`: the
  long-lived variant the ``repro serve`` daemon dispatches through;
  :func:`effective_jobs`: ``--jobs`` resolution against the visible
  CPU count.

The grid-point targets the sweeps run live in :mod:`repro.workloads`.
"""

from repro.parallel.executor import (
    PoolFuture,
    ProgressLine,
    WorkerPool,
    default_context,
    effective_jobs,
    run_sweep,
)
from repro.parallel.tasks import (
    SweepTask,
    TaskResult,
    execute,
    expand_grid,
    parse_shard,
    shard_tasks,
)

__all__ = [
    "PoolFuture",
    "ProgressLine",
    "SweepTask",
    "TaskResult",
    "WorkerPool",
    "default_context",
    "effective_jobs",
    "execute",
    "expand_grid",
    "parse_shard",
    "run_sweep",
    "shard_tasks",
]
