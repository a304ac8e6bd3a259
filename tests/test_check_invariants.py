"""Live invariant monitoring through the fabric trace hook."""

import random

import pytest

from repro.check import InvariantMonitor
from repro.core.delayed import _Slot
from repro.core.params import OpCode, TimingParams
from repro.errors import CoherenceViolation, ProtocolError
from repro.machine import PlusMachine
from repro.memory.address import PhysAddr
from repro.network.faults import FaultPlan
from repro.network.message import Message, MsgKind


def _msg(kind, src=0, dst=1, xid=0, origin=0, op=None):
    return Message(
        kind=kind,
        src=src,
        dst=dst,
        addr=PhysAddr(dst, 0, 0),
        origin=origin,
        xid=xid,
        op=op,
    )


# ----------------------------------------------------------------------
# The monitor is a trace: install/uninstall and capture still work.
# ----------------------------------------------------------------------
def test_monitor_records_like_a_trace(machine4):
    seg = machine4.shm.alloc(2, home=1, replicas=[0])
    monitor = InvariantMonitor().install(machine4)
    assert machine4.invariant_monitor is monitor

    def writer(ctx):
        yield from ctx.write(seg.base, 42)
        yield from ctx.fence()

    machine4.spawn(2, writer)
    machine4.run()
    monitor.uninstall()
    assert machine4.invariant_monitor is None
    assert len(monitor) > 0
    assert not monitor.violations
    kinds = {e.kind for e in monitor}
    assert MsgKind.WRITE_REQ in kinds


# ----------------------------------------------------------------------
# Rule units, fed synthetic message streams.
# ----------------------------------------------------------------------
def test_duplicate_ack_is_flagged():
    monitor = InvariantMonitor(strict=False)
    monitor.record(10, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=7))
    assert not monitor.violations
    monitor.record(20, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=7))
    assert any("ack-exactly-once" in v for v in monitor.violations)


def test_duplicate_ack_raises_in_strict_mode():
    monitor = InvariantMonitor()
    monitor.record(10, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=7))
    with pytest.raises(CoherenceViolation) as exc_info:
        monitor.record(20, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=7))
    assert exc_info.value.cycle == 20
    assert "ack-exactly-once" in str(exc_info.value)


def test_duplicate_rmw_response_is_flagged():
    from repro.core.params import OpCode

    monitor = InvariantMonitor(strict=False)
    resp = _msg(MsgKind.RMW_RESP, src=1, dst=2, xid=4, op=OpCode.FETCH_ADD)
    monitor.record(5, resp)
    monitor.record(9, resp)
    assert any("rmw-exactly-once" in v for v in monitor.violations)


def test_update_after_final_ack_is_flagged():
    monitor = InvariantMonitor(strict=False)
    monitor.record(10, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=2))
    monitor.record(
        15, _msg(MsgKind.UPDATE, src=1, dst=2, xid=2, origin=0)
    )
    assert any("update-after-ack" in v for v in monitor.violations)


def test_write_and_rmw_xid_namespaces_do_not_collide():
    """A write chain and an RMW chain may share (origin, xid); an ack for
    one must not close the other."""
    from repro.core.params import OpCode

    monitor = InvariantMonitor(strict=False)
    monitor.record(10, _msg(MsgKind.WRITE_ACK, src=3, dst=0, xid=2))
    monitor.record(
        15,
        _msg(
            MsgKind.UPDATE, src=1, dst=2, xid=2, origin=0, op=OpCode.XCHNG
        ),
    )
    assert not monitor.violations


def test_pending_cache_bound_is_enforced(machine4):
    monitor = InvariantMonitor(strict=False).install(machine4)
    cm = machine4.nodes[0].cm
    for i in range(cm.pending.capacity):
        cm.pending.add(PhysAddr(1, 0, i))
    monitor.record(1, _msg(MsgKind.WRITE_REQ))
    assert not monitor.violations
    # Force an illegal ninth entry past the cache's own guard.
    cm.pending._addr_of[999] = PhysAddr(1, 0, 63)
    monitor.record(2, _msg(MsgKind.WRITE_REQ))
    assert any("pending-bound" in v for v in monitor.violations)
    monitor.uninstall()


def _plant_delayed_overflow(cm):
    """Push a full delayed-operations cache one operation past its own
    guard (which refuses a ninth allocation)."""
    delayed = cm.delayed
    while delayed.has_free_slot:
        delayed.allocate(OpCode.FETCH_ADD)
    with pytest.raises(ProtocolError):
        delayed.allocate(OpCode.FETCH_ADD)
    delayed._slots.append(_Slot(len(delayed._slots)))


def test_delayed_cache_bound_is_enforced(machine4):
    monitor = InvariantMonitor(strict=False).install(machine4)
    cm = machine4.nodes[0].cm
    for _ in range(machine4.params.delayed_slots):
        cm.delayed.allocate(OpCode.FETCH_ADD)
    monitor.record(1, _msg(MsgKind.WRITE_REQ))
    assert not monitor.violations
    _plant_delayed_overflow(cm)
    monitor.record(2, _msg(MsgKind.WRITE_REQ))
    assert any("delayed-bound" in v for v in monitor.violations)
    monitor.uninstall()


def test_cache_bounds_are_enforced_on_caches_replaced_by_a_restart():
    # A crash replaces the node's pending-writes and delayed-operations
    # caches with fresh objects; the bound scan must watch the new ones.
    machine = PlusMachine(n_nodes=4)
    monitor = InvariantMonitor(strict=False).install(machine)
    machine.install_faults(FaultPlan(1, crashes=((3, 10**9, 1),)))
    cm = machine.nodes[3].cm
    old_pending, old_delayed = cm.pending, cm.delayed
    machine.crash_node(3)
    machine.restart_node(3)
    assert cm.pending is not old_pending
    assert cm.delayed is not old_delayed
    monitor.record(1, _msg(MsgKind.WRITE_REQ))
    assert not monitor.violations
    for i in range(cm.pending.capacity):
        cm.pending.add(PhysAddr(3, 0, i))
    cm.pending._addr_of[999] = PhysAddr(3, 0, 63)
    _plant_delayed_overflow(cm)
    monitor.record(2, _msg(MsgKind.WRITE_REQ))
    assert any(
        "pending-bound" in v and "node 3" in v for v in monitor.violations
    )
    assert any(
        "delayed-bound" in v and "node 3" in v for v in monitor.violations
    )
    monitor.uninstall()


# ----------------------------------------------------------------------
# Regression: reads of locally-pending addresses block until the ack,
# under randomized copy-list lengths and link latencies.  Two threads on
# one node race a read against fresh writes to the same word — the
# woken read must re-check the pending gate (this found a real bug).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_read_blocks_until_ack_under_random_layouts(seed):
    rng = random.Random(seed)
    n_nodes = rng.choice((4, 6, 9))
    params = TimingParams(
        page_words=32,
        queue_ring_base=8,
        tlb_entries=8,
        net_hop_cycles=rng.choice((2, 4, 9)),
        net_fixed_cycles=rng.choice((4, 8, 17)),
    )
    machine = PlusMachine(n_nodes, params=params)
    home = rng.randrange(n_nodes)
    others = [n for n in range(n_nodes) if n != home]
    replicas = rng.sample(others, rng.randint(0, len(others)))
    seg = machine.shm.alloc(4, home=home, replicas=replicas)
    monitor = InvariantMonitor().install(machine)
    racer_node = rng.randrange(n_nodes)

    def reader(ctx):
        for _ in range(6):
            value = yield from ctx.read(seg.base)
            assert value % 2 == 0  # writers only store even values
            yield from ctx.compute(rng.randint(1, 5))

    def writer(ctx):
        for i in range(6):
            yield from ctx.write(seg.base, 2 * (i + 1))
            yield from ctx.compute(rng.randint(1, 9))
        yield from ctx.fence()

    machine.spawn(racer_node, reader)
    machine.spawn(racer_node, writer)
    machine.run()
    monitor.uninstall()
    assert not monitor.violations
