"""2-D mesh and torus topologies with arithmetic dimension-order routing.

The current PLUS implementation connects nodes with the Caltech mesh
router (Section 5): five port pairs per router — one to the local node and
one per mesh neighbour.  Routing is deterministic dimension-order (X then
Y), which together with FIFO links preserves point-to-point message order;
the coherence protocol relies on that to keep copy-list updates ordered.

Routing here is *cache-free*: next hops are pure arithmetic on router
coordinates, O(1) per hop with no materialized per-pair link lists (the
old ``_route_cache`` was O(n_pairs * path_len) memory — a 32x32 machine
could spend more RAM on routes than on pages).  The fabric walks a route
incrementally (see ``LinkModel.traverse_steps``), with or without a
fault plan; :meth:`Topology.route` builds an explicit link list only for
callers that need one (tests, the explicit-path ``FaultPlan.judge``,
diagnostics).

Two concrete topologies share the geometry:

* :class:`Mesh` — the paper's machine; dimension-order steps toward the
  destination, no wrap-around.
* :class:`Torus` — wrap-around dimension-order: each dimension takes the
  shorter arc; when both arcs tie (even extent, distance = width/2) the
  route steps in the *decreasing*-coordinate direction (wrapping
  0 -> width-1).  The tie-break is per-(src, dst) deterministic and
  self-consistent along the path, so every same-pair message takes the
  same links and point-to-point FIFO order is preserved exactly as on
  the mesh.

Directed links are identified two ways: as ``(from, to)`` router-position
tuples (the stable external form — fault plans key and seed outage
schedules by it) and as a dense integer ``link_id = position * 4 + direction`` used
for O(1) array-indexed link state (directions: 0=+x, 1=-x, 2=+y, 3=-y).
On a 2-wide wrapped dimension +1 and -1 land on the same neighbour; those
links canonically use the positive direction so tuple and arithmetic
resolution always agree on one link state.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.errors import ConfigError

Coord = Tuple[int, int]
#: A directed link between adjacent routers, as (from_node, to_node).
Link = Tuple[int, int]


class Topology:
    """Shared geometry of a ``width x height`` router grid, row-major.

    Subclasses define the metric (:meth:`hops`) and the dimension-order
    step rule (:meth:`route_steps`); everything else — coordinates,
    route materialization, link ids — is common.
    """

    #: Registry name ("mesh" / "torus"); also ``TimingParams.topology``.
    name = "topology"
    #: Whether coordinate steps wrap around the grid edges.
    wraps = False

    def __init__(self, n_nodes: int, width: int = 0, height: int = 0) -> None:
        if n_nodes < 1:
            raise ConfigError(f"a {self.name} needs at least one node")
        if width and height:
            if width * height < n_nodes:
                raise ConfigError(
                    f"{width}x{height} {self.name} cannot hold {n_nodes} nodes"
                )
        else:
            width = math.ceil(math.sqrt(n_nodes))
            height = math.ceil(n_nodes / width)
        self.n_nodes = n_nodes
        self.width = width
        self.height = height
        #: Canonical direction of a -x / -y step (see module docstring):
        #: a 2-wide wrapped dimension folds both directions onto the
        #: positive channel so link identity stays unambiguous.
        self._xneg = 0 if (self.wraps and width == 2) else 1
        self._yneg = 2 if (self.wraps and height == 2) else 3

    # ------------------------------------------------------------------
    # The router grid spans the full width x height rectangle; when
    # n_nodes < width * height the trailing positions hold routers with
    # no node attached (an incomplete machine on a complete fabric), so
    # dimension-order routes may legitimately pass through them.
    @property
    def n_positions(self) -> int:
        return self.width * self.height

    @property
    def n_link_ids(self) -> int:
        """Size of the dense directed-link id space (4 per position)."""
        return 4 * self.width * self.height

    def coord(self, position: int) -> Coord:
        """(x, y) of a router position (nodes occupy the first ones)."""
        self._check_position(position)
        return position % self.width, position // self.width

    def node_at(self, x: int, y: int) -> int:
        """Node id at grid position (x, y)."""
        node = y * self.width + x
        self._check(node)
        return node

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigError(
                f"node {node} outside {self.name} of {self.n_nodes}"
            )

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.n_positions:
            raise ConfigError(
                f"position {position} outside {self.width}x{self.height} grid"
            )

    # ------------------------------------------------------------------
    # The metric and the step rule (subclass responsibility).
    # ------------------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Distance in links between positions ``a`` and ``b`` (O(1))."""
        raise NotImplementedError

    def route_steps(self, src: int, dst: int) -> Tuple[int, int, int, int]:
        """Dimension-order step plan ``(nx, sx, ny, sy)`` for one route:
        ``nx`` hops of coordinate step ``sx`` (+1/-1) along X, then
        ``ny`` of ``sy`` along Y.  Pure arithmetic, no validation — this
        is the fabric's per-send path."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived: explicit routes and link identity.
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> List[Link]:
        """Dimension-order (X then Y) path as a list of directed links.

        Built on demand from :meth:`route_steps` (no route cache); used
        by tests, the explicit-path ``FaultPlan.judge``, and anything
        else that wants the explicit walk (the fabric never does)."""
        self._check(src)
        self._check(dst)
        nx, sx, ny, sy = self.route_steps(src, dst)
        width = self.width
        height = self.height
        x = src % width
        y = src // width
        here = src
        links: List[Link] = []
        for _ in range(nx):
            x += sx
            if x == width:
                x = 0
            elif x < 0:
                x = width - 1
            nxt = y * width + x
            links.append((here, nxt))
            here = nxt
        for _ in range(ny):
            y += sy
            if y == height:
                y = 0
            elif y < 0:
                y = height - 1
            nxt = y * width + x
            links.append((here, nxt))
            here = nxt
        return links

    def link_id(self, frm: int, to: int) -> int:
        """Dense id of the directed link ``(frm, to)`` (adjacent only)."""
        width = self.width
        fx, fy = frm % width, frm // width
        tx, ty = to % width, to // width
        if fy == ty:
            if tx == fx + 1 or (self.wraps and fx == width - 1 and tx == 0):
                return frm * 4
            if tx == fx - 1 or (self.wraps and fx == 0 and tx == width - 1):
                return frm * 4 + self._xneg
        elif fx == tx:
            height = self.height
            if ty == fy + 1 or (self.wraps and fy == height - 1 and ty == 0):
                return frm * 4 + 2
            if ty == fy - 1 or (self.wraps and fy == 0 and ty == height - 1):
                return frm * 4 + self._yneg
        raise ConfigError(f"({frm}, {to}) is not a {self.name} link")

    def link_of(self, link_id: int) -> Link:
        """The ``(from, to)`` tuple of a dense link id (diagnostics)."""
        pos, direction = divmod(link_id, 4)
        width = self.width
        height = self.height
        x, y = pos % width, pos // width
        if direction == 0:
            x += 1
        elif direction == 1:
            x -= 1
        elif direction == 2:
            y += 1
        else:
            y -= 1
        if self.wraps:
            x %= width
            y %= height
        if not (0 <= x < width and 0 <= y < height):
            raise ConfigError(f"link id {link_id} leaves the grid")
        return pos, y * width + x

    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Iterator[int]:
        """Adjacent *nodes* of ``node`` (routers without nodes skipped)."""
        x, y = self.coord(node)
        width = self.width
        height = self.height
        seen = set()
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if self.wraps:
                nx %= width
                ny %= height
            elif not (0 <= nx < width and 0 <= ny < height):
                continue
            neighbor = ny * width + nx
            if (
                neighbor != node
                and neighbor < self.n_nodes
                and neighbor not in seen
            ):
                seen.add(neighbor)
                yield neighbor

    def nearest_to(self, target: int, candidates: List[int]) -> int:
        """The candidate node closest to ``target`` (ties: lowest id)."""
        if not candidates:
            raise ConfigError("nearest_to needs at least one candidate")
        return min(candidates, key=lambda n: (self.hops(target, n), n))


class Mesh(Topology):
    """A ``width x height`` mesh of nodes numbered row-major from 0."""

    name = "mesh"
    wraps = False

    def hops(self, a: int, b: int) -> int:
        """Manhattan distance between positions ``a`` and ``b``."""
        self._check_position(a)
        self._check_position(b)
        width = self.width
        return abs(b % width - a % width) + abs(b // width - a // width)

    def route_steps(self, src: int, dst: int) -> Tuple[int, int, int, int]:
        width = self.width
        dx = dst % width - src % width
        dy = dst // width - src // width
        if dx < 0:
            nx, sx = -dx, -1
        else:
            nx, sx = dx, 1
        if dy < 0:
            ny, sy = -dy, -1
        else:
            ny, sy = dy, 1
        return nx, sx, ny, sy

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        """Reference implementation: the original coordinate-stepping
        loop, kept verbatim so property tests can check the arithmetic
        router against it."""
        self._check(src)
        self._check(dst)
        links: List[Link] = []
        x, y = self.coord(src)
        dx, dy = self.coord(dst)
        here = src
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            nxt = y * self.width + x
            links.append((here, nxt))
            here = nxt
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            nxt = y * self.width + x
            links.append((here, nxt))
            here = nxt
        return links


class Torus(Topology):
    """A 2-D torus: the mesh with wrap-around links in both dimensions.

    Routing stays dimension-order (X then Y) but each dimension takes
    its shorter arc; equal arcs (even extent, distance exactly half the
    ring) break toward the decreasing-coordinate direction.  The rule is
    a pure function of (src, dst), so routes are deterministic and
    same-pair traffic is FIFO exactly as on the mesh.
    """

    name = "torus"
    wraps = True

    def hops(self, a: int, b: int) -> int:
        """Wrap-around distance: per-dimension shorter arc, summed."""
        self._check_position(a)
        self._check_position(b)
        width = self.width
        height = self.height
        dx = (b % width - a % width) % width
        dy = (b // width - a // width) % height
        if dx > width - dx:
            dx = width - dx
        if dy > height - dy:
            dy = height - dy
        return dx + dy

    def route_steps(self, src: int, dst: int) -> Tuple[int, int, int, int]:
        width = self.width
        height = self.height
        dx = (dst % width - src % width) % width
        back = width - dx
        if dx == 0:
            nx, sx = 0, 1
        elif dx < back:
            nx, sx = dx, 1
        elif dx > back:
            nx, sx = back, -1
        else:
            # Equal arcs: deterministic tie-break toward the lower
            # coordinate (wrapping 0 -> width-1).
            nx, sx = dx, -1
        dy = (dst // width - src // width) % height
        back = height - dy
        if dy == 0:
            ny, sy = 0, 1
        elif dy < back:
            ny, sy = dy, 1
        elif dy > back:
            ny, sy = back, -1
        else:
            ny, sy = dy, -1
        return nx, sx, ny, sy


#: Topology registry, keyed by ``TimingParams.topology``.
TOPOLOGIES = {cls.name: cls for cls in (Mesh, Torus)}


def make_topology(
    name: str, n_nodes: int, width: int = 0, height: int = 0
) -> Topology:
    """Construct a registered topology by name."""
    cls = TOPOLOGIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown topology {name!r} (have: {sorted(TOPOLOGIES)})"
        )
    return cls(n_nodes, width, height)
