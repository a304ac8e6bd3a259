"""Figure 2-1 (efficiency) — SSSP efficiency and utilization vs nodes.

The paper's figure shows, for the shortest-path program:

* **without replication** utilization decreases substantially as soon as
  more than 2 processors are used;
* **with replication** (which is what makes queue sharing / work
  stealing cheap) it remains high until the number of processors exceeds
  32, after which most processors idle because the problem is not large
  enough to occupy them.

This benchmark sweeps machine sizes for both configurations, reporting
efficiency = T(1) / (n * T(n)) and the useful-time utilization.
"""

import pytest

from repro.apps.sssp import run_sssp
from repro.workloads import fig21_config

from conftest import record_table, simulate_once

SWEEP = (1, 2, 4, 8, 16, 32, 64)

_measured = {}


@pytest.mark.parametrize("mode", ["none", "replicated"])
@pytest.mark.parametrize("n_nodes", SWEEP)
def test_fig_2_1_point(benchmark, sssp_workload, mode, n_nodes):
    graph, reference = sssp_workload

    def run():
        return run_sssp(
            n_nodes, graph, fig21_config(mode == "replicated", n_nodes)
        )

    result = simulate_once(benchmark, run)
    assert result.distances == reference
    _measured[(mode, n_nodes)] = (
        result.cycles,
        result.report.utilization(),
    )
    benchmark.extra_info["cycles"] = result.cycles
    benchmark.extra_info["utilization"] = result.report.utilization()

    if len(_measured) == 2 * len(SWEEP):
        base = _measured[("none", 1)][0]
        rows = []
        for n in SWEEP:
            nc, nu = _measured[("none", n)]
            rc, ru = _measured[("replicated", n)]
            rows.append(
                [n, base / (n * nc), nu, base / (n * rc), ru]
            )
        record_table(
            "Figure 2-1 (efficiency): SSSP vs processor count",
            [
                "nodes",
                "eff (no repl)",
                "util (no repl)",
                "eff (repl)",
                "util (repl)",
            ],
            rows,
            notes=(
                "paper: no-replication utilization collapses past 2 "
                "processors; replication holds up until the problem runs "
                "out of parallelism"
            ),
        )
        # The figure's qualitative claims.
        none_util = {n: _measured[("none", n)][1] for n in SWEEP}
        repl_util = {n: _measured[("replicated", n)][1] for n in SWEEP}
        repl_cycles = {n: _measured[("replicated", n)][0] for n in SWEEP}
        none_cycles = {n: _measured[("none", n)][0] for n in SWEEP}
        # Without replication, utilization collapses early.
        assert none_util[16] < none_util[2] * 0.75
        # Replication keeps utilization well above the baseline at scale.
        for n in (4, 8, 16, 32):
            assert repl_util[n] > none_util[n]
        # And it is never slower in elapsed time at scale.
        for n in (4, 8, 16, 32):
            assert repl_cycles[n] < none_cycles[n] * 1.05
