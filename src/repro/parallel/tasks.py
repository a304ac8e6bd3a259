"""The sweep task model: picklable work units and their outcomes.

A sweep is a list of :class:`SweepTask` — independent, deterministic,
single-process simulation runs (stress seeds, fault seeds, benchmark
configurations, figure grid points).  A task names its target function
by import path (``"package.module:callable"``) rather than holding a
callable, so the spec pickles cheaply under both ``fork`` and ``spawn``
start methods and a worker can resolve it after its own import.

:class:`TaskResult` is the uniform outcome wrapper.  It distinguishes

* a **value** — whatever the target returned (must itself pickle),
* an **error** — the target raised; the exception is captured as text
  (type, message, traceback) because tracebacks don't pickle, and
* a **crash** — the worker process died mid-task (segfault, OOM kill);
  the parent synthesizes the result from the task it knew the worker
  was holding.

Either way the sweep keeps going: one bad seed reports itself without
taking the other 199 down with it.
"""

from __future__ import annotations

import importlib
import time
import traceback
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work (picklable).

    ``index`` is the task's position in the sweep's deterministic
    order; the executor aggregates results by it, so sweep output is
    identical for any job count.  ``label`` is what progress lines and
    crash reports call the task (e.g. ``"seed 17"``).
    """

    index: int
    fn: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    @classmethod
    def make(
        cls, index: int, fn: str, kwargs: Optional[Dict[str, Any]] = None,
        label: str = "",
    ) -> "SweepTask":
        """Build a task from a kwargs dict (stored as sorted items so
        the spec is hashable and its pickle is canonical)."""
        items = tuple(sorted((kwargs or {}).items()))
        return cls(index=index, fn=fn, kwargs=items, label=label)

    def resolve(self) -> Callable[..., Any]:
        """Import and return the target callable."""
        modname, _, attr = self.fn.partition(":")
        if not attr:
            raise ValueError(
                f"task fn {self.fn!r} must look like 'module:callable'"
            )
        module = importlib.import_module(modname)
        fn = getattr(module, attr)
        if not callable(fn):
            raise TypeError(f"task fn {self.fn!r} resolved to non-callable")
        return fn

    def describe(self) -> str:
        return self.label or f"task {self.index}"


@dataclass
class TaskResult:
    """Outcome of one :class:`SweepTask` (picklable)."""

    index: int
    label: str = ""
    value: Any = None
    #: ``"ExcType: message"`` when the target raised, else None.
    error: Optional[str] = None
    #: Full traceback text for errors (tracebacks don't pickle).
    error_tb: str = ""
    #: True when the worker process died instead of returning.
    crashed: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.crashed

    def describe(self) -> str:
        name = self.label or f"task {self.index}"
        if self.crashed:
            return f"{name}: WORKER CRASHED — {self.error}"
        if self.error is not None:
            return f"{name}: ERROR — {self.error}"
        return f"{name}: ok"


def execute(task: SweepTask) -> TaskResult:
    """Run one task to a :class:`TaskResult`, capturing any exception.

    This is the whole worker-side contract; the in-process ``--jobs 1``
    path calls it too, so serial and parallel sweeps share one
    execution semantics.
    """
    t0 = time.perf_counter()
    try:
        value = task.resolve()(**dict(task.kwargs))
        return TaskResult(
            index=task.index,
            label=task.label,
            value=value,
            wall_s=time.perf_counter() - t0,
        )
    except BaseException as exc:  # noqa: BLE001 — isolation is the point
        if isinstance(exc, KeyboardInterrupt):
            raise
        return TaskResult(
            index=task.index,
            label=task.label,
            error=f"{type(exc).__name__}: {exc}",
            error_tb=traceback.format_exc(),
            wall_s=time.perf_counter() - t0,
        )


def expand_grid(axes: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of ``axes`` in deterministic order.

    Axis order is the dict's insertion order; the last axis varies
    fastest, like nested for-loops written in the same order.  This is
    the task order — and so the output row order — of every grid sweep,
    for every job count.
    """
    names = list(axes)
    combos = product(*(axes[name] for name in names))
    return [dict(zip(names, values)) for values in combos]


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``"i/N"`` (1-based) into ``(i, N)``, validating ranges."""
    try:
        part, _, total = spec.partition("/")
        i, n = int(part), int(total)
    except ValueError:
        raise ValueError(f"shard spec {spec!r} is not of the form i/N")
    if n < 1 or not 1 <= i <= n:
        raise ValueError(f"shard spec {spec!r} needs 1 <= i <= N")
    return i, n


def shard_tasks(
    tasks: List[SweepTask], spec: Optional[str]
) -> List[SweepTask]:
    """The deterministic slice of ``tasks`` owned by shard ``"i/N"``.

    Round-robin by position (shard 2/3 takes positions 1, 4, 7, ...),
    so every shard gets a representative mix even when cost correlates
    with position, and the union over shards is exactly the full sweep.
    """
    if spec is None:
        return tasks
    i, n = parse_shard(spec)
    return tasks[i - 1 :: n]
