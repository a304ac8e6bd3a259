"""Figure 3-1 — beam-search efficiency under different sync costs.

The paper compares, for the beam-search decoder: blocking
synchronization, delayed (split-phase) operations, and context switching
on every synchronization issue at 16, 40 and 140 cycles.  The reported
findings, which this benchmark asserts:

* very fast (16-cycle) context switching performs best;
* delayed operations beat a 40-cycle context-switch mechanism;
* expensive (140-cycle) switches are the worst way to hide latency.

Efficiency is measured against the single-node blocking run of the same
decoder.
"""

import pytest

from repro.apps.beam import run_beam
from repro.workloads import BEAM_MODES, beam_config

from conftest import record_table, simulate_once

SWEEP = (2, 4, 8, 16)

_measured = {}
_base = {}


def _check(result, lattice, beam, reference):
    last = lattice.n_layers - 1
    ref_best = min(
        reference[lattice.state_id(last, i)]
        for i in range(lattice.width)
        if lattice.state_id(last, i) in reference
    )
    assert result.best_final_cost == ref_best
    for state, cost in reference.items():
        assert result.scores.get(state) == cost


def test_fig_3_1_baseline(benchmark, beam_workload):
    """The single-node blocking run every efficiency is measured against."""
    lattice, beam, reference = beam_workload

    def run():
        return run_beam(1, lattice, beam_config("blocking", beam))

    result = simulate_once(benchmark, run)
    _check(result, lattice, beam, reference)
    _base["cycles"] = result.cycles
    benchmark.extra_info["cycles"] = result.cycles


@pytest.mark.parametrize("mode", BEAM_MODES)
@pytest.mark.parametrize("n_nodes", SWEEP)
def test_fig_3_1_point(benchmark, beam_workload, mode, n_nodes):
    lattice, beam, reference = beam_workload
    config = beam_config(mode, beam)

    def run():
        return run_beam(n_nodes, lattice, config)

    result = simulate_once(benchmark, run)
    _check(result, lattice, beam, reference)
    _measured[(mode, n_nodes)] = result.cycles
    benchmark.extra_info["cycles"] = result.cycles

    if len(_measured) == len(BEAM_MODES) * len(SWEEP):
        base = _base["cycles"]
        rows = []
        for n in SWEEP:
            rows.append(
                [n]
                + [
                    base / (n * _measured[(m, n)])
                    for m in BEAM_MODES
                ]
            )
        record_table(
            "Figure 3-1: beam-search efficiency by synchronization style",
            ["nodes"] + list(BEAM_MODES),
            rows,
            notes=(
                "paper ordering at moderate scale: ctx16 best, delayed "
                "beats ctx40, 140-cycle switches are the worst"
            ),
        )
        # The paper's two explicit claims, at every swept size >= 4.
        for n in (4, 8, 16):
            assert _measured[("ctx16", n)] < _measured[("ctx40", n)]
            assert _measured[("delayed", n)] < _measured[("ctx40", n)]
            assert _measured[("ctx40", n)] < _measured[("ctx140", n)]
            assert _measured[("delayed", n)] < _measured[("blocking", n)]
