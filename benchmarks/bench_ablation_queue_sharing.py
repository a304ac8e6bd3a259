"""Ablation A4 — queue decomposition and sharing.

Both applications split a central work queue into per-node queues
("owing to queue bandwidth limitation, a single queue introduces
serialization", Section 2.5) and share them when load is imbalanced
("this load imbalance can be overcome by sharing a queue among a number
of processors", Section 3.4).  This ablation measures both choices:

* SSSP with one central queue vs one queue per node;
* beam search with and without queue sharing (stealing).
"""

import pytest

from repro.apps.beam import BeamConfig, run_beam
from repro.apps.sssp import SSSPConfig, run_sssp

from conftest import record_table, simulate_once

N_NODES = 16

_sssp = {}
_beam = {}


@pytest.mark.parametrize("layout", ["central", "per-node"])
def test_sssp_queue_layout(benchmark, sssp_workload_small, layout):
    graph, reference = sssp_workload_small

    def run():
        return run_sssp(
            N_NODES,
            graph,
            SSSPConfig(
                copies=4, steal=True, central_queue=(layout == "central")
            ),
        )

    result = simulate_once(benchmark, run)
    assert result.distances == reference
    _sssp[layout] = result
    benchmark.extra_info["cycles"] = result.cycles

    if len(_sssp) == 2:
        rows = [
            [
                layout_,
                r.cycles,
                r.report.utilization(),
            ]
            for layout_, r in _sssp.items()
        ]
        record_table(
            f"Ablation A4a: SSSP queue decomposition ({N_NODES} nodes)",
            ["queue layout", "cycles", "utilization"],
            rows,
            notes="a central queue serialises at one coherence manager",
        )
        assert _sssp["per-node"].cycles < _sssp["central"].cycles


@pytest.fixture(scope="module")
def drifting_beam_workload():
    """A narrow drifting beam: the surviving states cluster in a hot
    index band that wanders between layers, so per-node queues strand
    work — the data-dependent imbalance of Section 3.4."""
    from repro.apps.graphs import layered_lattice
    from repro.workloads import beam_reference

    lattice = layered_lattice(
        n_layers=12, width=128, branching=3, seed=5, hot_fraction=0.2
    )
    beam = 30
    return lattice, beam, beam_reference(lattice, beam)


@pytest.mark.parametrize("sharing", ["none", "steal-4"])
def test_beam_queue_sharing(benchmark, drifting_beam_workload, sharing):
    lattice, beam, reference = drifting_beam_workload
    probes = 0 if sharing == "none" else 4

    def run():
        return run_beam(
            8, lattice, BeamConfig(beam=beam, steal_probes=probes)
        )

    result = simulate_once(benchmark, run)
    last = lattice.n_layers - 1
    ref_best = min(
        reference[lattice.state_id(last, i)]
        for i in range(lattice.width)
        if lattice.state_id(last, i) in reference
    )
    assert result.best_final_cost == ref_best
    _beam[sharing] = result
    benchmark.extra_info["cycles"] = result.cycles

    if len(_beam) == 2:
        rows = [
            [s, r.cycles, r.report.utilization()]
            for s, r in _beam.items()
        ]
        record_table(
            "Ablation A4b: beam-search queue sharing (8 nodes)",
            ["sharing", "cycles", "utilization"],
            rows,
            notes=(
                "the beam drifts with the data, so unshared queues strand "
                "work on a few nodes (Section 3.4)"
            ),
        )
        assert _beam["steal-4"].cycles < _beam["none"].cycles
