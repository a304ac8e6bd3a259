"""The paper's workloads, each defined once.

Shortest path (Table 2-1, Figure 2-1), beam search (Figure 3-1) and the
delayed-op and remote-read costs (Table 3-1, Section 3.1) are built
here and nowhere else: the inputs and their sequential references, the
Figure 3-1 sync styles, the verified grid points that ``repro sweep``,
the figure commands and the ``repro serve`` ops run, the sweep
experiment table, the perf workloads that ``bench_perf.py`` times and
``repro profile`` profiles, and the Table 3-1 measurement.

Every ``*_point`` function is a :class:`~repro.parallel.tasks.SweepTask`
target: picklable kwargs in, a plain dict of numbers out.  A point
rebuilds its input from the fixed seeds, which is cheap next to the
simulation.  Simulation modules are imported inside the functions, so
the daemon can read :data:`SWEEPS` without loading the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.core.params import PAPER_PARAMS, OpCode
from repro.parallel.tasks import expand_grid


# ----------------------------------------------------------------------
# Inputs and sync styles.
# ----------------------------------------------------------------------
def sssp_input(n_vertices: int = 800):
    """``(graph, dijkstra distances from vertex 0)``: the spatially
    local shortest-path input of Table 2-1 and Figure 2-1."""
    from repro.apps.graphs import dijkstra, geometric_graph

    graph = geometric_graph(
        n_vertices, degree=5, long_edge_fraction=0.08, max_weight=20, seed=7
    )
    return graph, dijkstra(graph, 0)


def beam_lattice(n_layers: int = 12, width: int = 128):
    """The Figure 3-1 lattice: wide enough that per-layer work dwarfs
    the phase barriers."""
    from repro.apps.graphs import layered_lattice

    return layered_lattice(
        n_layers=n_layers, width=width, branching=3, seed=5, hot_fraction=0.6
    )


def beam_reference(lattice, beam: int) -> Dict[int, int]:
    """The sequential beam-search oracle (state -> best cost) from the
    layer-0 costs the parallel run starts with."""
    from repro.apps.graphs import beam_search_reference, initial_costs

    initial = initial_costs(lattice, seed=1)
    return beam_search_reference(lattice, beam=beam, initial=initial)


#: Figure 3-1's synchronization styles, in table order; ``ctxN``
#: switches context on every synchronization at N cycles a switch.
BEAM_MODES = ("blocking", "delayed", "ctx16", "ctx40", "ctx140")


def beam_config(mode: str, beam: int = 60):
    """The :class:`~repro.apps.beam.BeamConfig` of one sync style."""
    from repro.apps.beam import BeamConfig

    if mode in ("blocking", "delayed"):
        return BeamConfig(sync_mode=mode, beam=beam)
    if mode.startswith("ctx"):
        return BeamConfig(
            sync_mode="context",
            threads_per_node=2,
            context_switch_cycles=int(mode[3:]),
            beam=beam,
        )
    raise ValueError(f"unknown beam sync mode {mode!r}")


def fig21_config(replicated: bool, nodes: int):
    """Figure 2-1's two SSSP runs: unreplicated, each processor draining
    only its own queue; or up to four copies with work stealing."""
    from repro.apps.sssp import SSSPConfig

    if replicated:
        return SSSPConfig(copies=min(4, nodes), steal=True)
    return SSSPConfig(copies=1, steal=False)


# ----------------------------------------------------------------------
# Verified grid points and the daemon's op targets.
# ----------------------------------------------------------------------
def sssp_point(
    nodes: int,
    copies: int = 1,
    vertices: int = 800,
    steal: bool = False,
    replicate_queues: bool = True,
) -> Dict[str, Any]:
    """One SSSP configuration, verified against Dijkstra."""
    from repro.apps.sssp import SSSPConfig, run_sssp

    graph, reference = sssp_input(vertices)
    config = SSSPConfig(
        copies=copies, replicate_queues=replicate_queues, steal=steal
    )
    result = run_sssp(nodes, graph, config)
    if result.distances != reference:
        raise AssertionError(
            f"SSSP diverged from Dijkstra (nodes={nodes}, copies={copies})"
        )
    return {
        "nodes": nodes,
        "copies": copies,
        "cycles": result.cycles,
        "messages": result.report.fabric.total_messages,
        "utilization": result.report.utilization(),
        **result.report.table_2_1_row(),
    }


def fig21_point(nodes: int, vertices: int = 800) -> Dict[str, Any]:
    """One Figure 2-1 x-axis point: the unreplicated and replicated
    runs on ``nodes`` processors, both verified against Dijkstra."""
    from repro.apps.sssp import run_sssp

    graph, reference = sssp_input(vertices)
    none = run_sssp(nodes, graph, fig21_config(False, nodes))
    repl = run_sssp(nodes, graph, fig21_config(True, nodes))
    if none.distances != reference or repl.distances != reference:
        raise AssertionError(f"SSSP diverged from Dijkstra (nodes={nodes})")
    return {
        "nodes": nodes,
        "none_cycles": none.cycles,
        "none_util": none.report.utilization(),
        "repl_cycles": repl.cycles,
        "repl_util": repl.report.utilization(),
    }


def beam_point(mode: str, nodes: int = 8, beam: int = 60) -> Dict[str, Any]:
    """One Figure 3-1 row, verified against the sequential reference."""
    from repro.apps.beam import run_beam

    lattice = beam_lattice()
    reference = beam_reference(lattice, beam)
    result = run_beam(nodes, lattice, beam_config(mode, beam))
    for state, cost in reference.items():
        if result.scores.get(state) != cost:
            raise AssertionError(
                f"beam search diverged from reference ({mode}, "
                f"nodes={nodes}, state={state})"
            )
    return {
        "mode": mode,
        "nodes": nodes,
        "cycles": result.cycles,
        "utilization": result.report.utilization(),
    }


def placement_point(
    policy: str,
    topology: str,
    nodes: int,
    pages: int = 128,
    requests: int = 120,
    seed: int = 0,
) -> Dict[str, Any]:
    """One Section 2.4 placement-policy run under zipfian skew."""
    from repro.apps.placement import PlacementConfig, run_placement

    config = PlacementConfig(
        policy=policy, pages=pages, requests=requests, seed=seed
    )
    result = run_placement(nodes, config, topology=topology)
    fabric = result.report.fabric
    return {
        "policy": policy,
        "topology": topology,
        "nodes": nodes,
        "cycles": result.cycles,
        "messages": fabric.total_messages,
        "mean_hops": round(fabric.mean_hops, 3),
        "replications": result.replications,
        "migrations": result.migrations,
        "checksum": result.checksum,
    }


def simulate_point(
    workload: str, nodes: int, copies: int, vertices: int, mode: str, beam: int
) -> Dict[str, Any]:
    """The ``simulate`` op: one verified sssp or beam run."""
    if workload == "sssp":
        return sssp_point(nodes=nodes, copies=copies, vertices=vertices)
    return beam_point(mode=mode, nodes=nodes, beam=beam)


def check_point(seed: int, faults: bool, inject_bug: bool) -> Dict[str, Any]:
    """The ``check`` op: one coherence-oracle stress run."""
    from repro.check.stress import run_stress

    result = run_stress(seed, inject_bug=inject_bug, faults=faults)
    return {
        "seed": result.seed,
        "ok": result.ok,
        "caught": result.caught,
        "cycles": result.cycles,
        "messages": result.messages,
        "drops": result.drops,
        "dups": result.dups,
        "retransmits": result.retransmits,
        "live_error": result.live_error,
    }


def bench_point(workload: str, repeats: int, vertices: int) -> Dict[str, Any]:
    """The ``bench`` op: wall-clock timing of one small workload."""
    walls = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        simulate_point(workload, 2, 1, vertices, mode="blocking", beam=48)
        walls.append(time.perf_counter() - t0)
    return {
        "workload": workload,
        "repeats": len(walls),
        "wall_s_min": round(min(walls), 4),
        "wall_s_mean": round(sum(walls) / len(walls), 4),
    }


# ----------------------------------------------------------------------
# Sweep experiments.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sweep:
    """One sweepable experiment: its target, its axes in grid order as
    ``(axis, request parameter, element type)``, and the request
    parameters every point gets unchanged."""

    target: str
    axes: Tuple[Tuple[str, str, type], ...]
    fixed: Tuple[str, ...]

    def points(
        self,
        params: Mapping[str, Any],
        parse_list: Callable[[str, type], List[Any]],
    ) -> List[Dict[str, Any]]:
        """Every grid point's target kwargs, last axis fastest.
        ``parse_list(text, type)`` splits one comma-separated axis value;
        each front end brings its own, raising its own kind of error."""
        axes = {a: parse_list(params[name], kind) for a, name, kind in self.axes}
        fixed = {name: params[name] for name in self.fixed}
        return [{**point, **fixed} for point in expand_grid(axes)]

    def label(self, point: Mapping[str, Any]) -> str:
        return ", ".join(f"{axis}={point[axis]}" for axis, _, _ in self.axes)


#: The experiments of ``repro sweep`` and the daemon's ``sweep`` op.
SWEEPS = {
    "sssp": Sweep(
        "repro.workloads:sssp_point",
        axes=(("nodes", "nodes", int), ("copies", "copies", int)),
        fixed=("vertices",),
    ),
    "beam": Sweep(
        "repro.workloads:beam_point",
        axes=(("nodes", "nodes", int), ("mode", "modes", str)),
        fixed=("beam",),
    ),
    "placement": Sweep(
        "repro.workloads:placement_point",
        axes=(
            ("policy", "policies", str),
            ("topology", "topologies", str),
            ("nodes", "nodes", int),
        ),
        fixed=("pages", "requests", "seed"),
    ),
}


# ----------------------------------------------------------------------
# Perf workloads: simulator speed, not paper data.  Each returns the
# finished machine; only what the timed region covered runs inside.
# ----------------------------------------------------------------------
def _perf_sssp(n_vertices: int):
    """16 nodes, 3 copies with replicated queues (the Table 2-1
    midpoint), checked against Dijkstra."""
    from repro.apps.sssp import SSSPApp, SSSPConfig
    from repro.machine import PlusMachine

    graph, reference = sssp_input(n_vertices)
    machine = PlusMachine(n_nodes=16)
    app = SSSPApp(machine, graph, SSSPConfig(copies=3, replicate_queues=True))
    app.spawn_workers()
    machine.run()
    if app.distances() != reference:
        raise AssertionError("perf workload diverged from Dijkstra")
    return machine


def _perf_beam(n_layers: int, width: int):
    """16 nodes, beam 60, delayed operations (the Figure 3-1 hot
    configuration), unchecked."""
    from repro.apps.beam import BeamSearchApp, params_for
    from repro.machine import PlusMachine

    lattice = beam_lattice(n_layers, width)
    config = beam_config("delayed", 60)
    machine = PlusMachine(n_nodes=16, params=params_for(config))
    BeamSearchApp(machine, lattice, config).spawn_workers()
    machine.run()
    return machine


def _perf_placement(nodes: int, requests: int):
    """The migrate policy over 128 celebrity pages on a torus."""
    from repro.apps.placement import PlacementConfig, build_placement

    config = PlacementConfig(policy="migrate", pages=128, requests=requests)
    machine, _app = build_placement(nodes, config, topology="torus")
    machine.run()
    return machine


#: name -> (runner, full-size args, smoke-size args).
PERF_WORKLOADS = {
    "sssp": (_perf_sssp, (800,), (200,)),
    "beam": (_perf_beam, (12, 128), (6, 48)),
    "placement": (_perf_placement, (64, 400), (16, 120)),
}


def run_perf(name: str, smoke: bool = False):
    """Build and run one perf workload; returns the finished machine."""
    runner, full, small = PERF_WORKLOADS[name]
    return runner(*(small if smoke else full))


# ----------------------------------------------------------------------
# Table 3-1 and Section 3.1 micro-measurements.
# ----------------------------------------------------------------------
#: Table 3-1's delayed operations, each with the operand it is
#: measured with.
TABLE_3_1_OPS = (
    (OpCode.XCHNG, 5),
    (OpCode.COND_XCHNG, 5),
    (OpCode.FETCH_ADD, 1),
    (OpCode.FETCH_SET, 0),
    (OpCode.QUEUE, 1),
    (OpCode.DEQUEUE, 0),
    (OpCode.MIN_XCHNG, 3),
    (OpCode.DELAYED_READ, 0),
)


def delayed_op_latency(op: OpCode, operand: int, home: int = 1) -> int:
    """End-to-end cycles of one uncontended delayed op from node 0 of a
    two-node machine on a word homed at ``home``: issue, execution at
    the master, result read."""
    from repro.machine import PlusMachine

    machine = PlusMachine(n_nodes=2)
    if op in (OpCode.QUEUE, OpCode.DEQUEUE):
        queue = machine.shm.alloc_queue(home=home)
        va = queue.tail_va if op is OpCode.QUEUE else queue.head_va
    else:
        va = machine.shm.alloc(1, home=home).base

    def worker(ctx):
        yield from ctx.delayed_read(va)  # warm the translation
        start = machine.engine.now
        token = yield from ctx.issue(op, va, operand)
        yield from ctx.result(token)
        return machine.engine.now - start

    thread = machine.spawn(0, worker)
    machine.run()
    return thread.result


def table_3_1_fixed_cycles() -> int:
    """An adjacent delayed op's cost besides CM execution: issue,
    request formation, round trip and result read."""
    p = PAPER_PARAMS
    return (
        p.issue_delayed_cycles
        + p.read_result_cycles
        + 2 * p.one_way_latency(1)
        + p.cm_forward_cycles
    )


def remote_read_latency(hops: int) -> int:
    """Cycles of a blocking read (translation warm) of a word homed
    ``hops`` nodes along a 4x1 mesh."""
    from repro.machine import PlusMachine

    machine = PlusMachine(n_nodes=4, width=4, height=1)
    va = machine.shm.alloc(1, home=hops).base

    def reader(ctx):
        yield from ctx.read(va)  # warm the translation
        start = machine.engine.now
        yield from ctx.read(va)
        return machine.engine.now - start

    thread = machine.spawn(0, reader)
    machine.run()
    return thread.result
