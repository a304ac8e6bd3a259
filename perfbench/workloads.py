"""The benchmark's two workloads and the repetition loop that times them.

Each workload turns ``--seed`` into inputs (untimed), then runs
repetitions of the same inputs.  A repetition times set-up (machine and
application construction) and the run (``machine.run``) separately,
checks every output against an independent reference, and sums the
simulated counters of its machines.  See ``README.md`` for why each
workload exists and what each metric means.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.apps.beam import BeamConfig, BeamSearchApp, params_for
from repro.apps.graphs import (
    beam_search_reference,
    initial_costs,
    layered_lattice,
)
from repro.check import stress
from repro.errors import PlusError
from repro.machine import PlusMachine

from perfbench.layers import (
    LayerTracer,
    instrument,
    layer_metrics,
    machine_counts,
)


@dataclass
class Rep:
    """One repetition of a workload."""

    #: ``(setup_s, wall_s)`` host seconds of each timed segment, in input
    #: order: one per stress seed on check-chaos (where set-up happens
    #: inside the seed's wall time), a single one on beam-delayed.
    segments: List[Tuple[float, float]] = field(default_factory=list)
    #: Host seconds inside timed segments: what a tracer's budget covers.
    timed_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    #: Simulated outputs that must repeat exactly (cycles, messages,
    #: events, application checksums).
    fingerprint: Tuple = ()
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Defects the program's own checker reported (oracle violations on
    #: check-chaos): measured outcomes, not failures of the benchmark.
    findings: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def add_counts(self, counts: Dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class _Segment:
    """One timed stretch of a repetition: set-up, then :meth:`run_starts`,
    then the run.  With a tracer, the layers are instrumented for the
    stretch and the tracer's budget covers exactly the timed span."""

    def __init__(self, rep: Rep, tracer: Optional[LayerTracer]) -> None:
        self.rep = rep
        self.tracer = tracer
        self._instrumented = None

    def __enter__(self) -> "_Segment":
        # Start every timed stretch from the same heap state: collect the
        # previous stretch's machines first, so neither their collection
        # nor two machines alive at once lands inside a measurement.
        gc.collect()
        if self.tracer is not None:
            self._instrumented = instrument(self.tracer)
            self._instrumented.__enter__()
        self.t0 = self.t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.start(self.t0)
        return self

    def run_starts(self) -> None:
        self.t1 = perf_counter()

    def __exit__(self, *exc) -> None:
        self.t2 = t2 = perf_counter()
        if self.tracer is not None:
            self.tracer.stop(t2)
            self._instrumented.__exit__(*exc)
        self.rep.segments.append((self.t1 - self.t0, t2 - self.t1))
        self.rep.timed_s += t2 - self.t0


def _machine_fingerprint(counts: Dict[str, float]) -> Tuple:
    return (counts["cycles"], counts["messages"], counts["events"])


class Workload:
    """A named workload: ``inputs(seed)`` once, then ``rep()`` repeatedly."""

    name = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def inputs(self, seed: int):
        raise NotImplementedError

    def rep(self, inputs, tracer: Optional[LayerTracer] = None) -> Rep:
        raise NotImplementedError


class BeamDelayed(Workload):
    """Figure 3-1 hot configuration: 16-node mesh, 12x128 lattice, beam
    60, interlocked score updates as delayed operations."""

    name = "beam-delayed"

    def inputs(self, seed: int):
        layers, width = (6, 48) if self.smoke else (12, 128)
        lattice = layered_lattice(
            n_layers=layers, width=width, branching=3, seed=seed,
            hot_fraction=0.6,
        )
        config = BeamConfig(beam=60, sync_mode="delayed", initial_seed=seed)
        expected = beam_search_reference(
            lattice, beam=60, initial=initial_costs(lattice, seed=seed)
        )
        return lattice, config, expected

    def rep(self, inputs, tracer=None) -> Rep:
        lattice, config, expected = inputs
        rep = Rep()
        machine = None
        scores: Dict[int, int] = {}
        try:
            with _Segment(rep, tracer) as seg:
                machine = PlusMachine(n_nodes=16, params=params_for(config))
                app = BeamSearchApp(machine, lattice, config)
                app.spawn_workers()
                seg.run_starts()
                machine.run()
            scores = app.scores()
            rep.check(
                all(scores.get(s) == c for s, c in expected.items()),
                "beam scores != beam_search_reference",
            )
        except PlusError as exc:
            rep.check(False, f"beam run raised {exc!r}")
        if machine is not None:
            counts = machine_counts(machine)
            rep.add_counts(counts)
            rep.fingerprint = _machine_fingerprint(counts) + (
                tuple(sorted(scores.items())),
            )
        return rep


class CheckChaos(Workload):
    """200 consecutive ``repro check --chaos`` seeds in one process, each
    judged by the coherence oracle.

    The benchmark's check is that every seed gets an oracle verdict.  The
    verdict itself is the program's output: seeds it fails are counted in
    ``oracle_failed_seeds`` and listed as findings, not hidden."""

    name = "check-chaos"
    #: Seeds per repetition (twice the 100 of CI's chaos job: the sum
    #: over 200 keeps the simulated totals steady from one range to the
    #: next).
    SEEDS = 200

    def inputs(self, seed: int):
        count = 5 if self.smoke else self.SEEDS
        return list(range(seed * self.SEEDS, seed * self.SEEDS + count))

    def rep(self, inputs, tracer=None) -> Rep:
        rep = Rep()
        built: List = []
        build = stress.build_machine

        def timed_build(config):
            t0 = perf_counter()
            out = build(config)
            built.append((out[0], perf_counter() - t0))
            return out

        prints = []
        recoveries = 0
        stress.build_machine = timed_build
        try:
            for seed in inputs:
                with _Segment(rep, tracer) as seg:
                    result = stress.run_stress(seed, chaos=True)
                rep.check(
                    result.report is not None,
                    f"chaos seed {seed}: no oracle verdict "
                    f"({result.live_error})",
                )
                ok = result.ok
                if result.report is not None and not ok:
                    rep.findings.append(result.describe())
                recoveries += result.recoveries
                machine, build_s = built.pop()
                rep.segments[-1] = (build_s, seg.t2 - seg.t0)
                counts = machine_counts(machine)
                counts["oracle_failed_seeds"] = int(not ok)
                rep.add_counts(counts)
                prints.append(
                    (result.cycles, result.messages, counts["events"], ok)
                )
        finally:
            stress.build_machine = build
        # `repro check --chaos` also fails a sweep that never recovered
        # a crashed node: the recovery path went unexercised.
        rep.check(recoveries > 0, "chaos sweep exercised no crash recovery")
        rep.fingerprint = tuple(prints)
        return rep


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (BeamDelayed, CheckChaos)
}


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Everything one benchmark invocation measured on one workload."""

    reps: List[Rep]
    traced: List[Tuple[Rep, LayerTracer, Rep]] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self._all())

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self._all())

    @property
    def failures(self) -> List[str]:
        return [f for r in self._all() for f in r.failures]

    @property
    def findings(self) -> List[str]:
        """The program checker's findings (identical in every repetition)."""
        return self.reps[0].findings

    def _all(self) -> List[Rep]:
        return self.reps + [t for _, _, t in self.traced]


def _quantile(values: List[float], q: int) -> float:
    """The q-th decile (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    inputs=None,
) -> Measurement:
    """Repeat ``workload`` on ``seed``'s inputs for ``seconds``.

    Untraced, every repetition is measured.  Traced, repetitions come in
    (untraced, traced) pairs, so ``trace.overhead_frac`` compares runs
    made under the same host conditions; each traced repetition must
    reproduce its twin's simulated outputs exactly.  ``inputs`` replaces
    the seed's inputs (the tests plant a wrong reference this way).
    """
    if inputs is None:
        inputs = workload.inputs(seed)
    result = Measurement([])
    deadline = perf_counter() + seconds
    while True:
        plain = workload.rep(inputs)
        result.reps.append(plain)
        if trace:
            tracer = LayerTracer()
            traced = workload.rep(inputs, tracer=tracer)
            traced.check(
                traced.fingerprint == plain.fingerprint,
                "traced run's simulated outputs differ from the untraced run",
            )
            result.traced.append((plain, tracer, traced))
        if perf_counter() >= deadline:
            break
    first = result.reps[0]
    for other in result.reps[1:]:
        other.check(
            other.fingerprint == first.fingerprint,
            "simulated outputs differ between repetitions of one input",
        )
    result.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return result


def _best(reps: List[Rep], part: int) -> List[float]:
    """Each segment's fastest time over the repetitions (``part`` 0 is
    set-up, 1 the wall time).  Other tenants of the host only ever add
    time, in spells; a segment's minimum over repetitions spread across
    the run filters the spells shorter than the run, where a median over
    a short window does not (see README.md, Steadiness)."""
    columns = zip(*([seg[part] for seg in r.segments] for r in reps))
    return [min(col) for col in columns]


def end_to_end(m: Measurement) -> Dict[str, float]:
    """The end-to-end metrics of an untraced measurement."""
    reps = m.reps
    counts = reps[0].counts
    samples = _best(reps, 1)
    return {
        "wall_s": sum(samples),
        "setup_s": sum(_best(reps, 0)),
        "peak_rss_mb": m.peak_rss_mb,
        "seed_p50_s": statistics.median(samples),
        "seed_p90_s": _quantile(samples, 9),
        "sim_cycles": counts["cycles"],
        "sim_messages": counts["messages"],
        "sim_utilization": counts["useful_cycles"] / counts["node_cycles"],
        "failed_frac": m.failed / m.attempted,
    }


def per_layer(m: Measurement) -> Dict[str, float]:
    """The per-layer metrics of a traced measurement: those of the traced
    repetition with the median traced wall time, so its layer self-times
    still sum to its own wall time."""
    ranked = sorted(m.traced, key=lambda t: t[2].timed_s)
    plain, tracer, traced = ranked[(len(ranked) - 1) // 2]
    return layer_metrics(tracer, traced.counts, traced.timed_s, plain.timed_s)
