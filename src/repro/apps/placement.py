"""The celebrity-page placement workload (Section 2.4 policy benchmark).

A synthetic access pattern with zipfian page popularity: every node
issues a stream of reads (and a few writes) against a shared pool of
pages whose popularity follows a power law — a handful of "celebrity"
pages absorb most of the traffic, the long tail is touched rarely.  The
pages are homed round-robin, so under the static policy almost every
popular-page access is remote; the workload exists to compare the
paper's placement strategies (Section 2.4) at machine sizes where the
choice dominates network traffic:

* ``static`` — pages stay where they were first allocated;
* ``replicate`` — the competitive hardware counters replicate a page to
  a node once its remote-reference count overflows;
* ``migrate`` — additionally, a page whose remote traffic is dominated
  by one node is migrated to it (copy, promote, delete the old home).

An optional *backing store* maps a large cold dataset (millions of
pages on a 1,024-node machine) that the run never touches — the
scale regime where lazy-zero frames and cache-free routing pay off:
mapped pages must cost flag bytes, not arrays, and routes must cost
arithmetic, not memoized link lists.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.params import PAPER_PARAMS, TimingParams
from repro.errors import ConfigError
from repro.machine import PlusMachine
from repro.memory.competitive import CompetitiveReplicator
from repro.runtime.requests import Compute, Read, Write
from repro.stats.report import RunReport

#: The placement policies the sweep compares.
POLICIES = ("static", "replicate", "migrate")


@dataclass
class PlacementConfig:
    """Tunables of one celebrity-page run."""

    #: Shared pages in the hot pool (homed round-robin across nodes).
    pages: int = 64
    #: Accesses issued by each node's worker thread.
    requests: int = 200
    #: Zipf exponent: weight of the i-th most popular page is
    #: ``1 / (i + 1) ** zipf_s``.  Higher = more celebrity-skewed.
    zipf_s: float = 1.2
    #: Fraction of accesses that are writes (drives update traffic to
    #: whatever copies the policy has created).
    write_fraction: float = 0.1
    #: Placement policy: ``static``, ``replicate`` or ``migrate``.
    policy: str = "static"
    #: Competitive-counter overflow point (policy != static).
    threshold: int = 16
    #: Replication cap per page (policy != static).
    max_copies: int = 4
    #: Fraction of accesses each node sends to its own *affine* page —
    #: a private-in-practice page homed half a machine away.  One node
    #: dominates its traffic, so ``migrate`` moves it home while
    #: ``replicate`` can only copy it; this is the access class that
    #: separates the two policies.
    affine_fraction: float = 0.3
    #: Where a node's affine page is homed: ``node + affine_offset``
    #: (mod machine size).  The default ``None`` homes it half a machine
    #: away — the worst case migration exists to fix.  The scale
    #: benchmark sets a small offset instead, modelling the
    #: *post-placement* steady state where policies have already made
    #: traffic neighbor-local (the paper's Section 2.4 argument).
    affine_offset: Optional[int] = None
    #: Word span sampled within each hot page (offsets 0..span-1).
    words_per_page: int = 64
    #: Modelled instruction time between accesses.
    compute_cycles: int = 20
    #: Cold mapped pages allocated round-robin and never accessed — the
    #: "millions of mapped pages" scale axis; 0 maps none.
    backing_pages: int = 0
    #: Seeds every per-node access stream (``"{seed}:placement:{node}"``).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown placement policy {self.policy!r}")
        if self.pages < 1:
            raise ConfigError("placement needs at least one hot page")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be within 0..1")


@dataclass
class PlacementResult:
    """Measurements of one placement run."""

    report: RunReport
    cycles: int
    #: Sum (mod 2^32) of every value read, all nodes — a determinism
    #: fingerprint of the full read/write interleaving.
    checksum: int
    replications: int
    migrations: int
    interrupts: int


class PlacementApp:
    """Builds the page pool and spawns the access-stream workers."""

    def __init__(
        self, machine: PlusMachine, config: Optional[PlacementConfig] = None
    ) -> None:
        self.machine = machine
        self.config = config or PlacementConfig()
        self._checksums: List[int] = [0] * machine.n_nodes
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        machine = self.machine
        cfg = self.config
        n_nodes = machine.n_nodes
        page_words = machine.params.page_words
        if cfg.words_per_page > page_words:
            raise ConfigError(
                f"words_per_page={cfg.words_per_page} exceeds the "
                f"{page_words}-word page"
            )
        # Hot pool: one single-page segment per celebrity page, homed
        # round-robin so popularity and placement start uncorrelated.
        self._page_va: List[int] = []
        for i in range(cfg.pages):
            seg = machine.shm.alloc(
                cfg.words_per_page, home=i % n_nodes, name=f"hot{i}"
            )
            self._page_va.append(seg.base)
            # Distinct, position-dependent initial contents so read
            # checksums distinguish pages (and stale copies).
            machine.poke(seg.base, i + 1)
        # Affine pages: one per node, homed half a machine away, so a
        # single node dominates each one's remote traffic (the page
        # ``migrate`` exists to move; ``replicate`` can only copy it).
        offset = (
            cfg.affine_offset
            if cfg.affine_offset is not None
            else n_nodes // 2
        )
        self._affine_va: List[int] = []
        for node in range(n_nodes):
            seg = machine.shm.alloc(
                cfg.words_per_page,
                home=(node + offset) % n_nodes,
                name=f"affine{node}",
            )
            self._affine_va.append(seg.base)
            machine.poke(seg.base, cfg.pages + node + 1)
        # Cold backing store: bulk multi-page segments, one per home,
        # mapped but never accessed.  Exercises construction cost only.
        if cfg.backing_pages:
            per_home = -(-cfg.backing_pages // n_nodes)  # ceil
            for home in range(n_nodes):
                machine.shm.alloc(
                    per_home * page_words, home=home, name=f"cold{home}"
                )
        # Zipf CDF over the hot pool, shared by every worker.
        weights = [1.0 / (i + 1) ** cfg.zipf_s for i in range(cfg.pages)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w
            self._cdf.append(acc / total)

    # ------------------------------------------------------------------
    def _worker(self, ctx, node: int):
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:placement:{node}")
        cdf = self._cdf
        page_va = self._page_va
        affine_va = self._affine_va[node]
        span = cfg.words_per_page
        compute = Compute(cfg.compute_cycles)
        checksum = 0
        for i in range(cfg.requests):
            if rng.random() < cfg.affine_fraction:
                base = affine_va
            else:
                base = page_va[bisect_left(cdf, rng.random())]
            addr = base + rng.randrange(span)
            if rng.random() < cfg.write_fraction:
                yield Write(addr, ((node << 16) | (i & 0xFFFF)) + 1)
            else:
                value = yield Read(addr)
                checksum = (checksum + value) & 0xFFFFFFFF
            yield compute
        self._checksums[node] = checksum

    def spawn_workers(self) -> None:
        for node in range(self.machine.n_nodes):
            self.machine.spawn(node, self._worker, node, name=f"place{node}")

    def checksum(self) -> int:
        return sum(self._checksums) & 0xFFFFFFFF


def build_placement(
    n_nodes: int,
    config: Optional[PlacementConfig] = None,
    topology: str = "mesh",
    width: int = 0,
    height: int = 0,
    params: Optional[TimingParams] = None,
) -> Tuple[PlusMachine, PlacementApp]:
    """A machine with the policy installed and the workers spawned,
    ready to ``run()``."""
    cfg = config or PlacementConfig()
    base = params or PAPER_PARAMS
    if base.topology != topology:
        base = base.evolved(topology=topology)
    machine = PlusMachine(n_nodes=n_nodes, params=base, width=width, height=height)
    if cfg.policy != "static":
        machine.competitive = CompetitiveReplicator(
            machine,
            threshold=cfg.threshold,
            max_copies=cfg.max_copies,
            migrate_unshared=(cfg.policy == "migrate"),
        )
    app = PlacementApp(machine, cfg)
    app.spawn_workers()
    return machine, app


def run_placement(
    n_nodes: int,
    config: Optional[PlacementConfig] = None,
    topology: str = "mesh",
    width: int = 0,
    height: int = 0,
    params: Optional[TimingParams] = None,
    max_cycles: Optional[int] = None,
) -> PlacementResult:
    """Build a machine, run the celebrity-page program, return results."""
    machine, app = build_placement(
        n_nodes, config, topology, width, height, params
    )
    report = machine.run(max_cycles=max_cycles)
    competitive = machine.competitive
    return PlacementResult(
        report=report,
        cycles=report.cycles,
        checksum=app.checksum(),
        replications=competitive.replications if competitive else 0,
        migrations=competitive.migrations if competitive else 0,
        interrupts=competitive.interrupts if competitive else 0,
    )
