"""Section 3.1 cost model — delayed-operation and remote-read latency.

The paper gives a complete latency budget: ~25 cycles to issue a delayed
operation, per-op coherence-manager time (Table 3-1), ~10 cycles to read
an available result, a 24-cycle adjacent round trip with 4 cycles per
extra hop, and a remote blocking read of ~32 cycles plus the round trip.
This benchmark measures those quantities on the simulated machine and
checks each against the formula.
"""

import pytest

from repro.core.params import PAPER_PARAMS, OpCode
from repro.machine import PlusMachine
from repro.workloads import delayed_op_latency, remote_read_latency

from conftest import record_table, simulate_once

_rows = []
_EXPECTED_ROWS = 5


def _finish():
    if len(_rows) == _EXPECTED_ROWS:
        record_table(
            "Section 3.1 cost model",
            ["measurement", "measured cycles", "paper formula", "expected"],
            list(_rows),
        )


def test_remote_read_adjacent(benchmark):
    measured = simulate_once(benchmark, lambda: remote_read_latency(1))
    expected = 32 + 24
    _rows.append(
        ["remote read, 1 hop", measured, "32 + round trip(24)", expected]
    )
    _finish()
    assert measured == expected


def test_remote_read_extra_hops(benchmark):
    measured = simulate_once(benchmark, lambda: remote_read_latency(3))
    expected = 32 + 24 + 2 * 2 * PAPER_PARAMS.net_hop_cycles
    _rows.append(
        [
            "remote read, 3 hops",
            measured,
            "32 + 24 + 2 hops x 4 x 2 ways",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def test_delayed_op_local(benchmark):
    measured = simulate_once(
        benchmark, lambda: delayed_op_latency(OpCode.FETCH_ADD, 1, home=0)
    )
    p = PAPER_PARAMS
    expected = (
        p.issue_delayed_cycles
        + p.cm_forward_cycles
        + p.op_cycles[OpCode.FETCH_ADD]
        + p.read_result_cycles
    )
    _rows.append(
        [
            "fetch-add, local master",
            measured,
            "25 issue + 4 + 39 CM + 10 read",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def test_delayed_op_remote(benchmark):
    measured = simulate_once(
        benchmark, lambda: delayed_op_latency(OpCode.FETCH_ADD, 1, home=1)
    )
    p = PAPER_PARAMS
    expected = (
        p.issue_delayed_cycles
        + p.cm_forward_cycles
        + 2 * p.one_way_latency(1)
        + p.op_cycles[OpCode.FETCH_ADD]
        + p.read_result_cycles
    )
    _rows.append(
        [
            "fetch-add, adjacent master",
            measured,
            "25 + 4 + 24 RT + 39 CM + 10",
            expected,
        ]
    )
    _finish()
    assert measured == expected


def test_pipelining_amortises_round_trips(benchmark):
    """Eight pipelined remote ops approach one round trip plus eight CM
    executions, instead of eight full round trips."""

    def run():
        machine = PlusMachine(n_nodes=2)
        seg = machine.shm.alloc(8, home=1)

        def worker(ctx):
            yield from ctx.delayed_read(seg.base)
            start = machine.engine.now
            tokens = []
            for i in range(8):
                token = yield from ctx.issue_fetch_add(seg.base + i, 1)
                tokens.append(token)
            for token in tokens:
                yield from ctx.result(token)
            return machine.engine.now - start

        thread = machine.spawn(0, worker)
        machine.run()
        return thread.result

    measured = simulate_once(benchmark, run)
    blocking_estimate = 8 * (25 + 4 + 24 + 39 + 10)
    _rows.append(
        [
            "8 pipelined remote fetch-adds",
            measured,
            f"<< 8 blocking ops ({blocking_estimate})",
            f"< {blocking_estimate * 2 // 3}",
        ]
    )
    _finish()
    assert measured < blocking_estimate * 2 // 3
