"""Live protocol invariant checking through the fabric trace hook.

Where the oracle (:mod:`repro.check.oracle`) judges a *finished* run,
:class:`InvariantMonitor` rides along **during** the run: it is a
:class:`~repro.stats.trace.ProtocolTrace` whose :meth:`record` hook also
evaluates a set of protocol invariants on every message the fabric
accepts, and fails the simulation at the first violation — with the
cycle, the offending message and a transcript excerpt — instead of
letting a corrupted state propagate for thousands of cycles.

Checked live:

* **One ack per transaction** — a second ``WRITE_ACK`` (or second
  ``RMW_RESP``) for the same originator/xid is flagged at delivery of
  the duplicate.
* **No update past the final ack** — once a chain's tail has
  acknowledged, any further update for that chain is a protocol bug.
* **Bounded hardware caches** — the pending-writes cache and the
  delayed-operations cache never exceed their configured capacity
  (8 entries each in the paper's machine).
* **Reads block on pending writes** — the CPU model reports every read
  that proceeds (:meth:`on_read_proceed`); a read proceeding while its
  issuer still has a pending write to that address breaks the
  per-processor strong ordering of Section 2.3.

The monitor doubles as the run's trace capture, so a stress run installs
one object and gets both live checking and an oracle-replayable record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CoherenceViolation
from repro.network.faults import FaultPlan
from repro.network.message import Message, MsgKind
from repro.stats.trace import ProtocolTrace


class InvariantMonitor(ProtocolTrace):
    """A trace capture that also enforces live protocol invariants.

    With ``strict=True`` (default) the first violation raises
    :class:`CoherenceViolation` from inside the fabric's send path,
    aborting the run at the exact cycle of the bug.  With
    ``strict=False`` violations accumulate in :attr:`violations` and the
    run continues (useful for counting how often a fault fires).

    Under a :class:`~repro.network.faults.FaultPlan` the exactly-once
    invariants hold at the *application* layer, not on the wire: the
    recovery layer legitimately retransmits acks and updates.  A wire
    retransmission reuses the Message object (same ``msg_id``), while a
    protocol bug produces a *new* message duplicating a chain key — so
    with a plan installed (passed here, or picked up from the fabric at
    :meth:`install` time, or set by ``PlusMachine.install_faults``) the
    monitor skips repeats of an already-seen msg_id and still fails hard
    on distinct-identity duplicates.  With no plan the wire itself must
    be exactly-once and the original strict per-send checks apply.
    """

    def __init__(
        self,
        capacity: int = 100_000,
        strict: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(capacity)
        self.strict = strict
        self.fault_plan = fault_plan
        self.violations: List[str] = []
        self._machine = None
        #: Every node's coherence manager and the delayed-cache bound,
        #: hoisted at install for the per-send bound scan.
        self._cms: List = []
        self._delayed_slots = 0
        #: Chains whose final ack has been sent: (class, origin, xid).
        self._closed: Set[Tuple[str, int, int]] = set()
        #: Ack/response counts per chain, for exactly-once checking.
        self._acks: Dict[Tuple[str, int, int], int] = {}
        self._resps: Dict[Tuple[int, int], int] = {}
        #: msg_ids already counted per invariant key (fault runs only):
        #: a repeat of one of these is a wire retransmission, not a bug.
        #: One map per message class (acks, RMW responses, updates).
        self._seen_ack: Dict[Tuple, Set[int]] = {}
        self._seen_resp: Dict[Tuple, Set[int]] = {}
        self._seen_upd: Dict[Tuple, Set[int]] = {}
        #: Crash awareness (plans with crash schedules): the machine
        #: notifies crash/restart events; nodes currently down must stay
        #: silent, every send must carry its sender's live epoch, and
        #: the exactly-once chain checks become lenient once the first
        #: crash has actually happened (flush-healed chains can legally
        #: double-complete).
        self.crash_events: List[Tuple[int, int, str]] = []
        self._down_nodes: Set[int] = set()
        #: Chain-duplicate reports waived under crash leniency.
        self.crash_waived = 0

    # ------------------------------------------------------------------
    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan the wire runs under (None: exactly-once wire)."""
        return self._fault_plan

    @fault_plan.setter
    def fault_plan(self, plan: Optional[FaultPlan]) -> None:
        self._fault_plan = plan
        #: ``plan.has_crashes``, hoisted out of the per-send path.
        self._crash_aware = plan is not None and plan.has_crashes

    # ------------------------------------------------------------------
    def install(self, machine) -> "InvariantMonitor":
        """Attach to ``machine``'s fabric and CPU read path.

        Adopts the fabric's fault plan (if one is already installed and
        none was passed to the constructor) so retransmission legality
        matches what the wire is actually allowed to do.
        """
        super().install(machine)
        self._machine = machine
        self._cms = [node.cm for node in machine.nodes]
        self._delayed_slots = machine.params.delayed_slots
        machine.invariant_monitor = self
        if self.fault_plan is None:
            self.fault_plan = machine.fabric.fault_plan
        return self

    def uninstall(self) -> "InvariantMonitor":
        machine = self._machine
        if machine is not None and machine.invariant_monitor is self:
            machine.invariant_monitor = None
        self._machine = None
        self._cms = []
        super().uninstall()
        return self

    # ------------------------------------------------------------------
    def _fail(
        self,
        rule: str,
        detail: str,
        *,
        cycle: Optional[int] = None,
        node: Optional[int] = None,
        msg: object = None,
    ) -> None:
        text = f"[{rule}] {detail}"
        self.violations.append(text)
        if self.strict:
            raise CoherenceViolation(
                text,
                cycle=cycle,
                node=node,
                msg=msg,
                excerpt=self.tail(),
            )

    # ------------------------------------------------------------------
    # Crash awareness (machine hooks).
    # ------------------------------------------------------------------
    def on_crash(self, node_id: int, cycle: int) -> None:
        self._down_nodes.add(node_id)
        self.crash_events.append((cycle, node_id, "crash"))

    def on_restart(self, node_id: int, cycle: int) -> None:
        self._down_nodes.discard(node_id)
        self.crash_events.append((cycle, node_id, "restart"))

    def _chain_fail(self, rule: str, detail: str, **kw) -> None:
        """Chain-exactly-once failure, waived once a crash happened.

        A chain broken by a node crash legitimately completes twice: the
        dead node may have processed-and-forwarded a message pre-crash
        that the reliable layer also flush-completes at the sender.
        Before the first actual crash the strict check stands unchanged.
        """
        if self._crash_aware and self.crash_events:
            self.crash_waived += 1
            return
        self._fail(rule, detail, **kw)

    @staticmethod
    def _chain_key(msg: Message, origin: int) -> Tuple[str, int, int]:
        cls = "w" if msg.op is None else "r"
        return (cls, origin, msg.xid)

    def _is_retransmit(
        self, seen_ids: Dict[Tuple, Set[int]], key: Tuple, msg_id: int
    ) -> bool:
        """True when this send repeats an already-seen logical message.

        Only meaningful under a fault plan: the recovery layer resends
        the *same* Message object, so a repeated msg_id per invariant
        key (in the ``seen_ids`` map of the message's class) is
        wire-legal.  Without a plan nothing may repeat and every send
        counts.
        """
        if self._fault_plan is None:
            return False
        seen = seen_ids.get(key)
        if seen is None:
            seen_ids[key] = {msg_id}
            return False
        if msg_id in seen:
            return True
        seen.add(msg_id)
        return False

    # ------------------------------------------------------------------
    def record(
        self, time: int, msg: Message, arrive: int = -1, fate: str = "sent"
    ) -> None:
        super().record(time, msg, arrive, fate)
        kind = msg.kind
        if self._crash_aware:
            if msg.src in self._down_nodes:
                self._fail(
                    "dead-node-silent",
                    f"node {msg.src} sent a {kind.value} while crashed",
                    cycle=time,
                    node=msg.src,
                    msg=msg,
                )
            machine = self._machine
            if machine is not None and (
                msg.seq >= 0 or kind is MsgKind.NET_ACK
            ):
                sender_epoch = msg.epoch >> 16
                live = machine.node_epoch(msg.src)
                if sender_epoch != live:
                    self._fail(
                        "dead-epoch-send",
                        f"node {msg.src} sent a {kind.value} stamped with "
                        f"epoch {sender_epoch}, but its live epoch is "
                        f"{live} — a dead incarnation's message must "
                        f"never (re)enter the wire",
                        cycle=time,
                        node=msg.src,
                        msg=msg,
                    )
        # A wire retransmission of an already-counted message skips the
        # chain checks; the bound scan below runs on every send.
        if kind is MsgKind.WRITE_ACK:
            # Acks carry no origin field; their destination is the
            # originator that the tail copy is releasing.
            key = self._chain_key(msg, msg.dst)
            if not self._is_retransmit(self._seen_ack, key, msg.msg_id):
                count = self._acks.get(key, 0) + 1
                self._acks[key] = count
                self._closed.add(key)
                if count > 1:
                    cls, origin, xid = key
                    label = "write" if cls == "w" else "RMW"
                    self._chain_fail(
                        "ack-exactly-once",
                        f"{label} chain origin={origin} xid={xid} "
                        f"acknowledged {count} times",
                        cycle=time,
                        node=msg.src,
                        msg=msg,
                    )
        elif kind is MsgKind.RMW_RESP:
            key = (msg.dst, msg.xid)
            if not self._is_retransmit(self._seen_resp, key, msg.msg_id):
                count = self._resps.get(key, 0) + 1
                self._resps[key] = count
                if count > 1:
                    self._chain_fail(
                        "rmw-exactly-once",
                        f"RMW origin={msg.dst} xid={msg.xid} answered "
                        f"{count} times",
                        cycle=time,
                        node=msg.src,
                        msg=msg,
                    )
        elif kind is MsgKind.UPDATE or kind is MsgKind.INVALIDATE:
            key = self._chain_key(msg, msg.origin)
            if (
                not self._is_retransmit(self._seen_upd, key, msg.msg_id)
                and key in self._closed
            ):
                cls, origin, xid = key
                label = "write" if cls == "w" else "RMW"
                self._chain_fail(
                    "update-after-ack",
                    f"{label} chain origin={origin} xid={xid} sent an "
                    f"update after its final ack",
                    cycle=time,
                    node=msg.src,
                    msg=msg,
                )
        self._check_cache_bounds(time)

    def _check_cache_bounds(self, time: int) -> None:
        """Scan every node's pending-writes and delayed-operations cache.

        Occupancy is read straight from each cache's storage, and each
        cache is looked up through its coherence manager on every call:
        a crash replaces both caches with fresh objects.
        """
        slots = self._delayed_slots
        for cm in self._cms:
            pending = cm.pending
            delayed = cm.delayed
            if (
                len(pending._addr_of) > pending.capacity
                or len(delayed._slots) - len(delayed._free) > slots
            ):
                self._report_bounds(cm, time)

    def _report_bounds(self, cm, time: int) -> None:
        """Fail each cache bound ``cm`` exceeds (off the per-send path)."""
        pending = cm.pending
        if len(pending) > pending.capacity:
            self._fail(
                "pending-bound",
                f"pending-writes cache on node {cm.node_id} holds "
                f"{len(pending)} entries "
                f"(capacity {pending.capacity})",
                cycle=time,
                node=cm.node_id,
            )
        slots = self._delayed_slots
        if cm.delayed.in_flight > slots:
            self._fail(
                "delayed-bound",
                f"delayed-operations cache on node {cm.node_id} "
                f"holds {cm.delayed.in_flight} operations "
                f"(capacity {slots})",
                cycle=time,
                node=cm.node_id,
            )

    # ------------------------------------------------------------------
    def on_read_proceed(self, node_id: int, paddr) -> None:
        """CPU hook: a read is about to be served on ``node_id``.

        Called by the CPU model after its pending-write gate; a read
        reaching this point while the issuer still has an in-flight
        write to the same address means the gate is broken.
        """
        machine = self._machine
        if machine is None:
            return
        cm = machine.nodes[node_id].cm
        if cm.pending.pending_at(paddr):
            self._fail(
                "read-blocks-on-pending",
                f"node {node_id} served a read of {paddr} while its own "
                f"write to that address was still unacknowledged",
                cycle=machine.engine.now,
                node=node_id,
            )
