"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper.  The
simulated measurements (the numbers the paper actually reports) are
accumulated here and printed in the terminal summary, so running::

    pytest benchmarks/ --benchmark-only

shows both the wall-clock cost of each simulation (pytest-benchmark's
own report) and the paper-style tables.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.stats.report import format_table
from repro.workloads import beam_lattice, beam_reference, sssp_input

#: (title, headers, rows, notes) tuples accumulated by benchmarks.
_RESULTS: List[tuple] = []


def record_table(title, headers, rows, notes=""):
    """Register a paper-style result table for the terminal summary."""
    _RESULTS.append((title, headers, rows, notes))


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.section("paper reproduction results")
    for title, headers, rows, notes in _RESULTS:
        tr.write_line("")
        tr.write_line(format_table(headers, rows, title=title))
        if notes:
            tr.write_line(notes)
    tr.write_line("")


def simulate_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    A simulation is deterministic, so repeating it only burns wall time;
    one round measures the harness cost faithfully.
    """
    result = {}

    def call():
        result["value"] = fn()

    benchmark.pedantic(call, iterations=1, rounds=1)
    return result["value"]


# ----------------------------------------------------------------------
# Cached evaluation workloads (built once per session; defined in
# repro.workloads).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def sssp_workload():
    """The shortest-path input used by Table 2-1 and the efficiency
    figure: spatially local, large enough to occupy ~32 processors."""
    return sssp_input(800)


@pytest.fixture(scope="session")
def sssp_workload_small():
    return sssp_input(400)


@pytest.fixture(scope="session")
def beam_workload():
    """The beam-search input of Figure 3-1 with its sequential
    reference: ``(lattice, beam, reference)``."""
    lattice, beam = beam_lattice(), 60
    return lattice, beam, beam_reference(lattice, beam)
