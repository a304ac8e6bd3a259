"""Link-level timing model for the mesh fabric.

Each directed mesh link is modelled as a serially-reusable resource: a
message holds the link for its serialisation time (bytes divided by the
20 Mbyte/s link bandwidth) and adds one router-hop latency.  Wormhole
pipelining is approximated by charging the hop latency per link but the
serialisation only against link availability, which reproduces both the
uncontended numbers of Section 3.1 (24-cycle adjacent round trip, 4 cycles
per extra hop) and the congestion collapse the paper warns about when
uncontrolled replication floods the network with updates (Section 2.5).

Link state lives in one of two stores.  Bound to a topology (the fabric
always binds one), states sit in a dense array indexed by the topology's
integer link ids, and :meth:`LinkModel.traverse_steps` times a message by
*walking* the dimension-order route arithmetically — no materialized link
list, no per-link hashing, O(1) memory per directed link ever used.
Every fabric send takes this walk, lossless or faulty.  Unbound (tests
that hand-build paths), states fall back to a dict keyed by
``(from, to)`` tuples.  Both stores resolve a given physical link to
the same :class:`LinkState`, so explicit-path (:meth:`LinkModel.traverse`,
kept for tests and diagnostics) and walked traversals of the same
fabric always share occupancy state.

Fault injection layers *above* this model: a
:class:`~repro.network.faults.FaultPlan` decides whether a send is
delivered at all and how much extra per-delivery jitter it suffers, but
link occupancy, hop latency and the FIFO floor are always computed here
— lost messages are dropped before they occupy links (the flit never
completes, so no occupancy is charged), and jitter is added after the
floor so reordering stays bounded.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.params import TimingParams
from repro.network.topology import Link, Topology


class LinkState:
    """Occupancy bookkeeping for one directed link.

    A slotted heap object per directed link, kept in a dense list
    indexed by topology link id.  (An ``array('q')``-column layout was
    measured ~60% slower here: CPython boxes every array element access,
    which costs more than the pointer chase it avoids.)
    """

    __slots__ = ("next_free", "busy_cycles", "messages")

    def __init__(self) -> None:
        self.next_free = 0
        self.busy_cycles = 0
        self.messages = 0


class LinkModel:
    """Computes message delivery times across a sequence of links."""

    __slots__ = (
        "params",
        "topology",
        "_links",
        "_dense",
        "_occupancy_cache",
        "_hop_cycles",
        "_fixed_cycles",
        "_width",
        "_height",
        "_xneg",
        "_yneg",
    )

    def __init__(
        self, params: TimingParams, topology: Optional[Topology] = None
    ) -> None:
        self.params = params
        self.topology = topology
        #: Tuple-keyed fallback store (only used with no topology bound).
        self._links: Dict[Link, LinkState] = {}
        #: Dense store indexed by topology link id; entries materialize
        #: on first use so an idle link costs one list slot.
        self._dense: Optional[List[Optional[LinkState]]] = (
            [None] * topology.n_link_ids if topology is not None else None
        )
        #: Memoized link_occupancy_cycles per message size (the size
        #: vocabulary is tiny, and this sits on the per-message path).
        self._occupancy_cache: Dict[int, int] = {}
        # Params are frozen; hoist the two per-traverse constants.
        self._hop_cycles = params.net_hop_cycles
        self._fixed_cycles = params.net_fixed_cycles
        # Geometry hoisted for the walk loop (see traverse_steps).
        if topology is not None:
            self._width = topology.width
            self._height = topology.height
            self._xneg = topology._xneg
            self._yneg = topology._yneg
        else:
            self._width = self._height = 0
            self._xneg, self._yneg = 1, 3

    def _state(self, link: Link) -> LinkState:
        topo = self.topology
        if topo is not None:
            lid = topo.link_id(*link)
            state = self._dense[lid]
            if state is None:
                state = self._dense[lid] = LinkState()
            return state
        state = self._links.get(link)
        if state is None:
            state = self._links[link] = LinkState()
        return state

    def occupancy_cycles(self, size_bytes: int) -> int:
        """Cached ``params.link_occupancy_cycles`` for ``size_bytes``."""
        cached = self._occupancy_cache.get(size_bytes)
        if cached is None:
            cached = self.params.link_occupancy_cycles(size_bytes)
            self._occupancy_cache[size_bytes] = cached
        return cached

    def states_for(self, path: List[Link]) -> List[LinkState]:
        """Resolve an explicit route to its per-link occupancy records.

        With a topology bound this resolves into the same dense store
        the arithmetic walk uses, so both access forms share state.
        """
        topo = self.topology
        if topo is None:
            links = self._links
            states = []
            for link in path:
                state = links.get(link)
                if state is None:
                    state = links[link] = LinkState()
                states.append(state)
            return states
        dense = self._dense
        link_id = topo.link_id
        states = []
        for frm, to in path:
            lid = link_id(frm, to)
            state = dense[lid]
            if state is None:
                state = dense[lid] = LinkState()
            states.append(state)
        return states

    def traverse_steps(
        self,
        src: int,
        steps: Tuple[int, int, int, int],
        depart: int,
        size_bytes: int,
        not_before: int = 0,
    ) -> int:
        """Arrival time of a message leaving ``src`` at ``depart`` along
        the dimension-order step plan ``steps`` (see
        ``Topology.route_steps``) — the fabric's per-send path, with or
        without a fault plan.

        The route is walked incrementally: per hop, the next position and
        dense link id are O(1) coordinate arithmetic, so no link list is
        ever materialized.  Timing semantics are identical to
        :meth:`traverse_states`: the head of the message advances one hop
        per ``net_hop_cycles`` but may stall waiting for a link that is
        still draining an earlier message; the tail then occupies each
        link for the serialisation time.

        ``not_before`` is a delivery-order floor (point-to-point FIFO):
        if the computed arrival lands earlier, the message is held on its
        final link until ``not_before``, and that link's occupancy and
        busy-cycle accounting reflect the extra hold — so contention
        statistics always agree with actual delivery times.
        """
        occupancy = self._occupancy_cache.get(size_bytes)
        if occupancy is None:
            occupancy = self.occupancy_cycles(size_bytes)
        hop_cycles = self._hop_cycles
        t = depart + self._fixed_cycles
        nx, sx, ny, sy = steps
        dense = self._dense
        width = self._width
        pos = src
        state = None
        if nx:
            x = src % width
            rowbase = pos - x
            direction = 0 if sx > 0 else self._xneg
            for _ in range(nx):
                lid = pos * 4 + direction
                state = dense[lid]
                if state is None:
                    state = dense[lid] = LinkState()
                start = state.next_free
                if t > start:
                    start = t
                state.busy_cycles += occupancy + start - t
                t = start + hop_cycles
                state.next_free = start + occupancy
                state.messages += 1
                x += sx
                if x == width:
                    x = 0
                elif x < 0:
                    x = width - 1
                pos = rowbase + x
        if ny:
            height = self._height
            y = pos // width
            colbase = pos - y * width
            direction = 2 if sy > 0 else self._yneg
            for _ in range(ny):
                lid = pos * 4 + direction
                state = dense[lid]
                if state is None:
                    state = dense[lid] = LinkState()
                start = state.next_free
                if t > start:
                    start = t
                state.busy_cycles += occupancy + start - t
                t = start + hop_cycles
                state.next_free = start + occupancy
                state.messages += 1
                y += sy
                if y == height:
                    y = 0
                elif y < 0:
                    y = height - 1
                pos = colbase + y * width
        if t < not_before and state is not None:
            # FIFO floor: the message waits behind its predecessor on the
            # final link; charge the hold to that link.
            hold = not_before - t
            state.next_free += hold
            state.busy_cycles += hold
            t = not_before
        return t

    def traverse_states(
        self,
        states: List[LinkState],
        depart: int,
        size_bytes: int,
        not_before: int = 0,
    ) -> int:
        """Arrival time of a message leaving at ``depart`` along the
        pre-resolved route ``states`` (see :meth:`states_for`).  Same
        timing semantics as :meth:`traverse_steps`."""
        occupancy = self._occupancy_cache.get(size_bytes)
        if occupancy is None:
            occupancy = self.occupancy_cycles(size_bytes)
        hop_cycles = self._hop_cycles
        t = depart + self._fixed_cycles
        state = None
        for state in states:
            start = state.next_free
            if t > start:
                start = t
            state.busy_cycles += occupancy + start - t
            t = start + hop_cycles
            state.next_free = start + occupancy
            state.messages += 1
        if t < not_before and state is not None:
            hold = not_before - t
            state.next_free += hold
            state.busy_cycles += hold
            t = not_before
        return t

    def traverse(
        self,
        path: List[Link],
        depart: int,
        size_bytes: int,
        not_before: int = 0,
    ) -> int:
        """Arrival time along ``path`` (resolves links, then times them)."""
        return self.traverse_states(
            self.states_for(path), depart, size_bytes, not_before
        )

    # -- instrumentation -------------------------------------------------
    def _live_states(self) -> Iterator[LinkState]:
        yield from self._links.values()
        if self._dense is not None:
            for state in self._dense:
                if state is not None:
                    yield state

    def total_link_messages(self) -> int:
        return sum(s.messages for s in self._live_states())

    def total_busy_cycles(self) -> int:
        return sum(s.busy_cycles for s in self._live_states())

    def hottest_links(self, top: int = 5) -> List[tuple]:
        """The ``top`` busiest links as (link, busy_cycles, messages)."""
        items: List[Tuple[Link, LinkState]] = list(self._links.items())
        if self._dense is not None:
            link_of = self.topology.link_of
            items.extend(
                (link_of(lid), state)
                for lid, state in enumerate(self._dense)
                if state is not None
            )
        ranked = sorted(items, key=lambda kv: kv[1].busy_cycles, reverse=True)
        return [(link, s.busy_cycles, s.messages) for link, s in ranked[:top]]
