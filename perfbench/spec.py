"""Names, units, directions and bounds of every benchmark metric.

``BENCHMARK.json`` at the repository root mirrors these tables; the
tests fail if the two disagree.  ``bound`` is the share of the parent
commit's median by which an end-to-end metric may worsen before a
change counts as a regression.
"""

from __future__ import annotations

from typing import Dict, List

#: (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("seed_p50_s", "s", "lower", 0.25),
    ("seed_p90_s", "s", "lower", 0.25),
    ("sim_cycles", "cycles", "lower", 0.25),
    ("sim_messages", "count", "lower", 0.25),
    ("sim_utilization", "ratio", "higher", 0.25),
]

_S, _N, _R = "s", "count", "ratio"

#: (name, unit, better)
PER_LAYER = [
    ("sim.self_s", _S, "lower"),
    ("sim.events", _N, "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.timer_cancel_frac", _R, "lower"),
    ("network.sends", _N, "lower"),
    ("network.send.self_s", _S, "lower"),
    ("network.deliver.self_s", _S, "lower"),
    ("network.us_per_send", "us", "lower"),
    ("network.mean_hops", "hops", "lower"),
    ("network.link_busy_cycles", "cycles", "lower"),
    ("network.retransmit_frac", _R, "lower"),
    ("core.receive.calls", _N, "lower"),
    ("core.receive.self_s", _S, "lower"),
    ("core.service.calls", _N, "lower"),
    ("core.service.self_s", _S, "lower"),
    ("core.cpu_read_remote.calls", _N, "lower"),
    ("core.cpu_read_remote.self_s", _S, "lower"),
    ("core.cpu_write.calls", _N, "lower"),
    ("core.cpu_write.self_s", _S, "lower"),
    ("core.cpu_issue.calls", _N, "lower"),
    ("core.cpu_issue.self_s", _S, "lower"),
    ("core.cpu_result.calls", _N, "lower"),
    ("core.cpu_result.self_s", _S, "lower"),
    ("core.cpu_fence.calls", _N, "lower"),
    ("core.cpu_fence.self_s", _S, "lower"),
    ("core.cpu_other.self_s", _S, "lower"),
    ("core.updates_applied", _N, "lower"),
    ("core.total_over_update", _R, "lower"),
    ("core.stale_refetch_frac", _R, "lower"),
    ("core.reliable.sends", _N, "lower"),
    ("core.reliable.self_s", _S, "lower"),
    ("core.reliable.duplicates_absorbed", _N, "lower"),
    ("node.cpu.self_s", _S, "lower"),
    ("node.cpu.callbacks", _N, "lower"),
    ("node.translate.calls", _N, "lower"),
    ("node.translate.self_s", _S, "lower"),
    ("node.cache_hit_frac", _R, "higher"),
    ("node.spin_frac", _R, "lower"),
    ("runtime.app.self_s", _S, "lower"),
    ("runtime.app.resumes", _N, "lower"),
    ("memory.setup.self_s", _S, "lower"),
    ("memory.rw.calls", _N, "lower"),
    ("memory.rw.self_s", _S, "lower"),
    ("memory.frames_allocated", _N, "lower"),
    ("memory.materialized_frac", _R, "lower"),
    ("check.build.self_s", _S, "lower"),
    ("check.monitor.self_s", _S, "lower"),
    ("check.oracle.self_s", _S, "lower"),
    ("check.oracle_failed_seeds", _N, "lower"),
    ("other.self_s", _S, "lower"),
    ("trace.wall_s", _S, "lower"),
    ("trace.overhead_frac", _R, "lower"),
]

UNITS: Dict[str, str] = {
    name: unit for name, unit, *_ in END_TO_END + PER_LAYER
}


def metric_names(trace: bool) -> List[str]:
    """The metrics a run reports: per-layer when traced, else end-to-end."""
    return [entry[0] for entry in (PER_LAYER if trace else END_TO_END)]
