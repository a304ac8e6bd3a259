"""Table 3-1 — PLUS's delayed operations and their execution cost.

The paper tabulates the coherence-manager execution cycles of each
delayed operation (39 for the single-word ops, 52 for the queue ops and
min-xchng).  This benchmark measures each operation end-to-end on the
simulated machine — issue, remote execution, result read — and recovers
the CM execution component by subtracting the documented fixed costs
(25-cycle issue, 10-cycle result read, 24-cycle adjacent round trip,
request-forming overhead), verifying the machine really charges the
Table 3-1 numbers.
"""

import pytest

from repro.workloads import (
    TABLE_3_1_OPS,
    delayed_op_latency,
    table_3_1_fixed_cycles,
)

from conftest import record_table, simulate_once

#: The paper's CM execution cycles, in TABLE_3_1_OPS order.
PAPER_CYCLES = (39, 39, 39, 39, 52, 52, 52, 39)

#: (operation, paper cycles, operand)
CASES = [
    (op, paper, operand)
    for (op, operand), paper in zip(TABLE_3_1_OPS, PAPER_CYCLES)
]

_measured = {}


@pytest.mark.parametrize("op,paper_cycles,operand", CASES)
def test_table_3_1_op(benchmark, op, paper_cycles, operand):
    total = simulate_once(benchmark, lambda: delayed_op_latency(op, operand))
    cm_cycles = total - table_3_1_fixed_cycles()
    _measured[op] = (total, cm_cycles, paper_cycles)
    benchmark.extra_info["end_to_end_cycles"] = total
    benchmark.extra_info["cm_execution_cycles"] = cm_cycles
    assert cm_cycles == paper_cycles, (
        f"{op.value}: measured CM execution {cm_cycles}, "
        f"paper says {paper_cycles}"
    )

    if len(_measured) == len(CASES):
        rows = [
            [op.value, m[0], m[1], m[2]]
            for op, m in _measured.items()
        ]
        record_table(
            "Table 3-1: delayed operations (adjacent node, uncontended)",
            [
                "operation",
                "end-to-end cycles",
                "CM execution",
                "paper CM cycles",
            ],
            rows,
            notes=(
                "end-to-end = 25 issue + 4 request + 24 round trip + "
                "CM execution + 10 result read"
            ),
        )
