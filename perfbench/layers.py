"""Per-layer host-time attribution, measured from outside the simulator.

:class:`LayerTracer` charges every host second of a traced phase to
exactly one *key* (``"sim"``, ``"network.send"``, ``"core.receive"``,
...).  It keeps a current key and a stack: entering a span charges the
time since the last transition to the current key and makes the span's
key current; leaving charges the span's own stretch and pops.  The
charged stretches tile the phase end to end, so the per-key self-times
always sum to the traced wall time (the budget closes by construction;
the residual is the root key, reported as ``other.self_s``).

:func:`instrument` installs the spans by wrapping the public functions
of each layer *at class level* for the duration of a ``with`` block, and
restores every attribute on exit.  It changes no simulator state and no
firing order:

* Engine callbacks are wrapped as they are queued — in the near-lane
  buckets (a ``list`` subclass whose ``append`` wraps) and in
  ``Engine.at`` for the overflow heap — and charged to the layer whose
  module defined them.  Cancellable :class:`~repro.sim.engine.Timer`
  entries stay ``Timer`` objects (lazy cancellation and compaction test
  ``type(fn) is Timer``); only the callback inside is wrapped.
* No :class:`~repro.stats.trace.ProtocolTrace` is installed (a trace
  turns message pooling off), and spans keep no ``Message`` references:
  a wrapper lives exactly as long as the queue entry it replaces.

Install it before the machine is built: components bind some of these
methods at construction (the fabric's receivers, ``node.translate``).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from types import FunctionType, MethodType
from typing import Callable, Dict, Iterator, List

ROOT = "other"

#: Engine-callback attribution: the first matching module prefix wins.
_MODULE_KEYS = (
    ("repro.core.reliable", "core.reliable"),
    ("repro.core.", "core.service"),
    ("repro.network.", "network.deliver"),
    ("repro.node.", "node.cpu"),
    ("repro.runtime.", "runtime.app"),
    ("repro.apps.", "runtime.app"),
    ("repro.memory.", "memory.rw"),
    ("repro.check.", "check.monitor"),
)


def module_key(module: str) -> str:
    """Layer key of a callback defined in ``module`` (ROOT if none)."""
    for prefix, key in _MODULE_KEYS:
        if module.startswith(prefix):
            return key
    return ROOT


class LayerTracer:
    """Exclusive host time and call counts per layer key."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Plain event counters (timers created, timers cancelled, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[str] = []
        self._key = ROOT
        self._t = 0.0
        self._classes: Dict[object, str] = {}

    def start(self, t0: float) -> None:
        """Open the traced phase at ``t0`` (a ``perf_counter`` reading)."""
        self._stack.clear()
        self._key = ROOT
        self._t = t0

    def stop(self, t1: float) -> None:
        """Close the traced phase at ``t1``; the open key gets the tail."""
        self.self_s[self._key] += t1 - self._t
        self._t = t1

    def enter(self, key: str) -> None:
        now = perf_counter()
        self.self_s[self._key] += now - self._t
        self._stack.append(self._key)
        self._key = key
        self.calls[key] += 1
        self._t = now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self._key] += now - self._t
        self._key = self._stack.pop()
        self._t = now

    def span(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is charged to ``key``."""
        enter = self.enter
        leave = self.leave

        def spanned(*args, **kwargs):
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return spanned

    def key_of(self, fn: Callable) -> str:
        """Layer key of an engine callback, by its defining module."""
        if type(fn) is FunctionType:
            ident = fn.__code__
        elif type(fn) is MethodType:
            ident = fn.__func__
        else:
            ident = type(fn)
        key = self._classes.get(ident)
        if key is None:
            key = self._classes[ident] = module_key(
                getattr(ident, "__module__", None)
                or getattr(fn, "__module__", "")
                or ""
            )
        return key


class _Event:
    """A queued engine callback, charged to its layer when it fires."""

    __slots__ = ("fn", "key", "tracer")

    def __init__(self, fn: Callable, key: str, tracer: LayerTracer) -> None:
        self.fn = fn
        self.key = key
        self.tracer = tracer

    def __call__(self) -> None:
        tracer = self.tracer
        tracer.enter(self.key)
        try:
            self.fn()
        finally:
            tracer.leave()


class _GenProxy:
    """A simulated thread's generator, with each resume charged to the
    application (``runtime.app``).  The CPU only calls ``send``/``close``."""

    __slots__ = ("gen", "tracer")

    def __init__(self, gen, tracer: LayerTracer) -> None:
        self.gen = gen
        self.tracer = tracer

    def send(self, value):
        tracer = self.tracer
        tracer.enter("runtime.app")
        try:
            return self.gen.send(value)
        finally:
            tracer.leave()

    def close(self) -> None:
        self.gen.close()


def _event_wrapper(tracer: LayerTracer, timer_cls: type) -> Callable:
    """Wrap one engine callback for queueing (idempotent; Timers stay
    Timers, their inner callback is wrapped instead)."""
    key_of = tracer.key_of

    def wrap(fn):
        cls = type(fn)
        if cls is _Event:
            return fn
        if cls is timer_cls:
            inner = fn._fn
            if type(inner) is not _Event:
                fn._fn = _Event(inner, key_of(inner), tracer)
            return fn
        return _Event(fn, key_of(fn), tracer)

    return wrap


@contextmanager
def _patched(cls: type, name: str, make: Callable[[Callable], Callable]):
    """Replace ``cls.name`` with ``make(original)``; restore on exit."""
    had = name in cls.__dict__
    original = getattr(cls, name)
    setattr(cls, name, make(original))
    try:
        yield
    finally:
        if had:
            setattr(cls, name, original)
        else:
            delattr(cls, name)


@contextmanager
def instrument(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Wrap every layer boundary the benchmark measures (see module doc)."""
    from repro.check import stress
    from repro.check.invariants import InvariantMonitor
    from repro.check.oracle import CoherenceOracle
    from repro.core.coherence import CoherenceManager
    from repro.core.reliable import ReliableChannels
    from repro.memory.mapping import PageTable
    from repro.memory.physical import LocalMemory
    from repro.memory.replication import ReplicationManager
    from repro.network.fabric import Fabric
    from repro.node.cpu import CPU
    from repro.runtime.shm import SharedMemory
    from repro.sim.engine import Engine, Timer
    from repro.stats.trace import ProtocolTrace

    span = tracer.span
    counts = tracer.counts
    wrap = _event_wrapper(tracer, Timer)

    class _Bucket(list):
        """Near-lane bucket whose ``append`` wraps the queued callback."""

        __slots__ = ()

        def append(self, fn) -> None:
            list.append(self, wrap(fn))

    def engine_init(orig):
        def __init__(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            self._buckets = [_Bucket() for _ in self._buckets]

        return __init__

    def engine_at(orig):
        def at(self, time, fn):
            orig(self, time, wrap(fn))

        return at

    def engine_timer(orig):
        def timer(self, delay, fn):
            counts["timers"] += 1
            return orig(self, delay, fn)

        return timer

    def timer_cancel(orig):
        def cancel(self):
            if not self.cancelled:
                counts["timers_cancelled"] += 1
            orig(self)

        return cancel

    def cpu_call(key: str, cb_index: int):
        """A CPU-facing CM call: charged to ``key``; the continuation the
        CPU hands in (positional argument ``cb_index``) to ``node.cpu``."""

        def make(orig):
            def call(self, *args):
                args = list(args)
                args[cb_index] = span("node.cpu", args[cb_index])
                return spanned(self, *args)

            spanned = span(key, orig)
            return call

        return make

    def cpu_spawn(orig):
        def spawn(self, gen, name=""):
            return orig(self, _GenProxy(gen, tracer), name)

        return spawn

    def spanning(key: str):
        return lambda orig: span(key, orig)

    plan = [
        (Engine, "__init__", engine_init),
        (Engine, "at", engine_at),
        (Engine, "timer", engine_timer),
        (Engine, "run", spanning("sim")),
        (Timer, "cancel", timer_cancel),
        (Fabric, "send", spanning("network.send")),
        (CoherenceManager, "dispatch", spanning("core.receive")),
        (CoherenceManager, "receive", spanning("core.reliable")),
        (ReliableChannels, "send", spanning("core.reliable.send")),
        (CoherenceManager, "cpu_poll", spanning("core.cpu_poll")),
        (CPU, "spawn", cpu_spawn),
        (PageTable, "translate", spanning("node.translate")),
        (LocalMemory, "__init__", spanning("memory.setup")),
        (ReplicationManager, "__init__", spanning("memory.setup")),
        (PageTable, "__init__", spanning("memory.setup")),
        (SharedMemory, "alloc", spanning("memory.setup")),
        (SharedMemory, "alloc_queue", spanning("memory.setup")),
        (InvariantMonitor, "record", spanning("check.monitor")),
        (InvariantMonitor, "on_read_proceed", spanning("check.monitor")),
        (ProtocolTrace, "note_applied", spanning("check.monitor")),
        (ProtocolTrace, "uninstall", spanning("check.monitor")),
        (CoherenceOracle, "__init__", spanning("check.oracle")),
        (CoherenceOracle, "check", spanning("check.oracle")),
    ]
    # CPU-facing CM calls: (method, key, index of the CPU's continuation).
    for name, key, cb_index in (
        ("cpu_read_remote", "core.cpu_read_remote", 1),
        ("cpu_write", "core.cpu_write", 2),
        ("cpu_issue", "core.cpu_issue", 3),
        ("cpu_result", "core.cpu_result", 1),
        ("cpu_fence", "core.cpu_fence", 0),
        ("cpu_refetch", "core.cpu_refetch", 1),
        ("when_safe_to_read", "core.cpu_safe_read", 1),
    ):
        plan.append((CoherenceManager, name, cpu_call(key, cb_index)))
    for name in ("read", "write", "write_batch", "words_of", "snapshot_page"):
        plan.append((LocalMemory, name, spanning("memory.rw")))
    with ExitStack() as stack:
        for cls, name, make in plan:
            stack.enter_context(_patched(cls, name, make))
        original_build = stress.build_machine
        stress.build_machine = span("check.build", original_build)
        stack.callback(setattr, stress, "build_machine", original_build)
        yield tracer


def machine_counts(machine) -> Dict[str, float]:
    """Summable simulated-side counters of one finished machine."""
    fabric = machine.fabric
    stats = fabric.stats
    report = machine.report()
    counters = report.counters
    nodes = machine.nodes
    reliable = [n.cm.reliable for n in nodes if n.cm.reliable is not None]
    return {
        "cycles": report.cycles,
        "node_cycles": report.cycles * report.n_nodes,
        "useful_cycles": counters.useful_cycles,
        "busy_cycles": counters.busy_cycles,
        "spin_cycles": counters.spin_cycles,
        "events": machine.engine.events_fired,
        "messages": stats.total_messages,
        "hops": stats.total_hops,
        "retransmits": stats.retransmits,
        "update_messages": report.update_messages(),
        "link_busy_cycles": fabric.links.total_busy_cycles(),
        "updates_applied": sum(n.counters.updates_applied for n in nodes),
        "stale_refetches": sum(n.counters.stale_refetches for n in nodes),
        "cache_hits": sum(n.cache.hits for n in nodes),
        "cache_misses": sum(n.cache.misses for n in nodes),
        "duplicates_absorbed": sum(r.duplicates_absorbed for r in reliable),
        "frames_allocated": sum(n.memory.allocated_frames for n in nodes),
        "frames_materialized": sum(
            n.memory.materialized_frames for n in nodes
        ),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: Reported self-time groups: metric name -> the tracer keys it sums.
SELF_TIME_GROUPS = {
    "sim.self_s": ("sim",),
    "network.send.self_s": ("network.send",),
    "network.deliver.self_s": ("network.deliver",),
    "core.receive.self_s": ("core.receive",),
    "core.service.self_s": ("core.service",),
    "core.cpu_read_remote.self_s": ("core.cpu_read_remote",),
    "core.cpu_write.self_s": ("core.cpu_write",),
    "core.cpu_issue.self_s": ("core.cpu_issue",),
    "core.cpu_result.self_s": ("core.cpu_result",),
    "core.cpu_fence.self_s": ("core.cpu_fence",),
    "core.cpu_other.self_s": (
        "core.cpu_refetch",
        "core.cpu_safe_read",
        "core.cpu_poll",
    ),
    "core.reliable.self_s": ("core.reliable", "core.reliable.send"),
    "node.cpu.self_s": ("node.cpu",),
    "node.translate.self_s": ("node.translate",),
    "runtime.app.self_s": ("runtime.app",),
    "memory.setup.self_s": ("memory.setup",),
    "memory.rw.self_s": ("memory.rw",),
    "check.build.self_s": ("check.build",),
    "check.monitor.self_s": ("check.monitor",),
    "check.oracle.self_s": ("check.oracle",),
    "other.self_s": (ROOT,),
}


def layer_metrics(
    tracer: LayerTracer, counts: Dict[str, float], traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition.

    ``counts`` is the :func:`machine_counts` sum over the repetition's
    machines; ``traced_wall``/``untraced_wall`` are the set-up plus run
    host seconds of the traced repetition and of its untraced twin.
    """
    unknown = set(tracer.self_s) - {
        key for keys in SELF_TIME_GROUPS.values() for key in keys
    }
    if unknown:
        raise AssertionError(f"tracer keys outside every group: {unknown}")
    out: Dict[str, float] = {
        name: sum(tracer.self_s.get(key, 0.0) for key in keys)
        for name, keys in SELF_TIME_GROUPS.items()
    }
    calls = tracer.calls
    events = counts["events"]
    sends = calls["network.send"]
    out.update(
        {
            "sim.events": events,
            "sim.ns_per_event": _ratio(out["sim.self_s"] * 1e9, events),
            "sim.timer_cancel_frac": _ratio(
                tracer.counts["timers_cancelled"], tracer.counts["timers"]
            ),
            "network.sends": sends,
            "network.us_per_send": _ratio(
                out["network.send.self_s"] * 1e6, sends
            ),
            "network.mean_hops": _ratio(counts["hops"], counts["messages"]),
            "network.link_busy_cycles": counts["link_busy_cycles"],
            "network.retransmit_frac": _ratio(
                counts["retransmits"], counts["messages"]
            ),
            "core.receive.calls": calls["core.receive"],
            "core.service.calls": calls["core.service"],
            "core.updates_applied": counts["updates_applied"],
            "core.total_over_update": _ratio(
                counts["messages"], counts["update_messages"]
            ),
            "core.stale_refetch_frac": _ratio(
                counts["stale_refetches"], calls["core.cpu_refetch"]
            ),
            "core.reliable.sends": calls["core.reliable.send"],
            "core.reliable.duplicates_absorbed": counts[
                "duplicates_absorbed"
            ],
            "node.cpu.callbacks": calls["node.cpu"],
            "node.translate.calls": calls["node.translate"],
            "node.cache_hit_frac": _ratio(
                counts["cache_hits"],
                counts["cache_hits"] + counts["cache_misses"],
            ),
            "node.spin_frac": _ratio(
                counts["spin_cycles"], counts["busy_cycles"]
            ),
            "runtime.app.resumes": calls["runtime.app"],
            "memory.rw.calls": calls["memory.rw"],
            "memory.frames_allocated": counts["frames_allocated"],
            "memory.materialized_frac": _ratio(
                counts["frames_materialized"], counts["frames_allocated"]
            ),
            "check.oracle_failed_seeds": counts.get("oracle_failed_seeds", 0),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": _ratio(traced_wall, untraced_wall),
        }
    )
    for name in (
        "cpu_read_remote",
        "cpu_write",
        "cpu_issue",
        "cpu_result",
        "cpu_fence",
    ):
        out[f"core.{name}.calls"] = calls[f"core.{name}"]
    return out
