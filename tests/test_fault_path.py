"""The fault-injected send path: byte-identity pins and walk equivalence.

The checked, fault-injected send path is tuned for host time, so these
tests pin what it must never change: the full chaos transcript of a
handful of seeds (every wire entry, every recovery-layer application,
the final clock and message total) is hashed against a digest recorded
before any of that tuning.  The chosen seeds cover link-outage plans,
randomized tie-breaking, fault-plan reorder jitter, link-model jitter
and crash recovery.

The fabric walks a faulty route by dense link id instead of building
the explicit link list that ``FaultPlan.judge`` takes; the equivalence
tests replay the same sends through ``judge`` and ``LinkModel.traverse``
on explicit paths and require the same fates, the same delivery times
and the very same outage-schedule objects.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.check.stress import StressConfig, build_machine
from repro.core.params import PAPER_PARAMS
from repro.network.fabric import Fabric
from repro.network.faults import FaultPlan
from repro.network.message import Message, MsgKind
from repro.network.router import LinkModel
from repro.network.topology import Mesh, Torus
from repro.sim.engine import Engine
from repro.stats.trace import ProtocolTrace

#: Chaos seeds whose combined transcript is pinned (see module doc).
PIN_SEEDS = (1, 2, 5, 9, 13, 14, 18, 27)

#: sha256 of the combined transcript of ``PIN_SEEDS``.
PIN_DIGEST = (
    "2c0fd087b2af8943c86ed978cc61dd2a153fbda9449354b067dbcc2ecdd4af4e"
)


def _chaos_transcript(seed):
    config = StressConfig.from_seed(seed, chaos=True)
    machine, monitor, spawn_plans = build_machine(config)
    for node_id, program in spawn_plans:
        machine.spawn(node_id, program, name=f"stress-{seed}")
    machine.run(max_events=5_000_000)
    monitor.uninstall()
    return config, machine, monitor


def test_chaos_transcripts_are_byte_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    fates = set()
    restarts = 0
    configs = []
    for seed in PIN_SEEDS:
        config, machine, monitor = _chaos_transcript(seed)
        configs.append(config)
        digest.update(f"seed {seed}\n".encode())
        for entry in monitor.entries:
            fates.add(entry.fate)
            digest.update(entry.describe().encode())
            digest.update(b"\n")
        digest.update(repr(sorted(monitor.applied.items())).encode())
        stats = machine.fabric.stats
        digest.update(
            f"\n{machine.engine.now} {stats.total_messages}\n".encode()
        )
        restarts += sum(
            1 for _, _, kind, _ in machine.crash_log if kind == "restart"
        )
    # The seed set must keep covering every feature it was chosen for.
    assert {"outage", "drop", "sent+dup"} <= fates
    assert any(c.random_ties for c in configs)
    assert any(not c.random_ties for c in configs)
    assert any(c.fault_jitter for c in configs)
    assert any(c.jitter for c in configs)
    assert restarts > 0
    assert digest.hexdigest() == PIN_DIGEST


# ----------------------------------------------------------------------
# The dense-id outage walk against explicit-path judge + traverse.
# ----------------------------------------------------------------------
#: Harsh enough that every fate, and link outages on routes that avoid
#: the blackholed node, occur within a few hundred sends.
_KNOBS = dict(
    drop_prob=0.1,
    dup_prob=0.1,
    jitter=5,
    outage_rate=0.01,
    outage_cycles=40,
)


@pytest.mark.parametrize(
    "topology",
    [Mesh(12, 4, 3), Torus(8, 2, 4)],
    ids=["mesh-4x3", "torus-2x4"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_outage_walk_matches_explicit_path_judge(topology, seed):
    n = topology.n_nodes
    blackhole = n - 1
    engine = Engine()
    fabric = Fabric(engine, topology, PAPER_PARAMS)
    delivered = []
    for node in range(n):
        fabric.attach(
            node, lambda m: delivered.append((engine.now, m.msg_id))
        )
    plan = fabric.install_faults(
        FaultPlan(seed, blackholes=(blackhole,), **_KNOBS)
    )
    trace = ProtocolTrace().install(SimpleNamespace(fabric=fabric))
    # The reference: the explicit-path forms, on an identical twin plan
    # and a private link model.
    ref = FaultPlan(seed, blackholes=(blackhole,), **_KNOBS)
    mirror = LinkModel(PAPER_PARAMS)
    floors = {}
    fates = []
    expected = []
    rng = random.Random(seed)
    now = 0
    for i in range(600):
        now += rng.randrange(4)
        engine.run(until=now)
        src, dst = rng.sample(range(n), 2)
        writes = [(w, i) for w in range(rng.randint(1, 3))]
        msg = Message(MsgKind.UPDATE, src, dst, xid=i, writes=writes)
        primary = fabric.send(msg)
        path = topology.route(src, dst)
        fate, delays = ref.judge(msg, now, path)
        fates.append(fate)
        if not delays:
            assert primary == -1
            continue
        arrive = mirror.traverse(
            path, now, msg.size_bytes, not_before=floors.get((src, dst), 0)
        )
        floors[(src, dst)] = arrive + 1
        assert primary == arrive + delays[0]
        expected.extend((arrive + delay, msg.msg_id) for delay in delays)
    engine.run()
    assert [e.fate for e in trace.entries] == fates
    assert sorted(delivered) == sorted(expected)
    # Every fate occurred, including link outages on live routes.
    assert {"sent", "sent+dup", "drop", "outage"} <= set(fates)
    assert any(
        e.fate == "outage" and e.dst != blackhole for e in trace.entries
    )
    # The walk resolved each link id to the plan's own schedule object,
    # the one judge() consults for the link tuple.
    resolved = [
        (lid, sched)
        for lid, sched in enumerate(fabric._outages)
        if sched is not None
    ]
    assert resolved
    for lid, sched in resolved:
        assert plan.link_outages(topology.link_of(lid)) is sched
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            for link in topology.route(src, dst):
                sched = fabric._outages[topology.link_id(*link)]
                assert sched is None or sched is plan.link_outages(link)


def test_two_wide_torus_ring_links_resolve_to_one_schedule():
    # On a 2-wide ring both x directions reach the same neighbour over
    # one physical link; its id is canonical, so the walk and the link
    # tuple name a single outage schedule.
    topology = Torus(8, 2, 4)
    fabric = Fabric(Engine(), topology, PAPER_PARAMS)
    for node in range(topology.n_nodes):
        fabric.attach(node, lambda m: None)
    plan = fabric.install_faults(FaultPlan(5, outage_rate=0.5, outage_cycles=3))
    fabric.send(Message(MsgKind.WRITE_ACK, 0, 1))
    (link,) = topology.route(0, 1)
    lid = topology.link_id(*link)
    assert lid == 0  # the canonical (positive) x channel of position 0
    assert fabric._outages[lid] is plan.link_outages(link)
