"""Tests of the benchmark itself, at smoke size, through the real code path.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, spec

assert run._import_simulator()

from perfbench.layers import (  # noqa: E402
    SELF_TIME_GROUPS,
    LayerTracer,
    instrument,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    end_to_end,
    measure,
    per_layer,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Largest ``other.self_s`` share of the traced wall time: the budget
#: residual stated in README.md (time outside every instrumented layer).
OTHER_RESIDUAL = 0.10


def _result(capsys, argv):
    code = run.main(argv, smoke=True)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


def test_benchmark_json_mirrors_spec():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == [tuple(m) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [tuple(m) for m in spec.PER_LAYER]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(capsys, workload, trace):
    code, lines, result = _result(
        capsys,
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
    )
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert m["better"] in ("lower", "higher")
        # The human-readable line names the metric with its unit.
        assert any(
            line.startswith(f"{workload} {m['name']} ")
            and line.endswith(f" {m['unit']}")
            for line in lines
        )
    if not trace:
        for m in table:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_all_runs_every_workload(capsys):
    code, _, result = _result(
        capsys,
        ["--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "0"],
    )
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == {
        f"{w}/{m['name']}" for w in WORKLOADS for m in BENCHMARK["end_to_end"]
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_budget_closes(workload):
    m = measure(WORKLOADS[workload](smoke=True), 2, 0, trace=True)
    assert m.failed == 0, m.failures
    values = per_layer(m)
    total = sum(values[name] for name in SELF_TIME_GROUPS)
    assert total == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["other.self_s"] <= OTHER_RESIDUAL * values["trace.wall_s"]
    assert values["trace.overhead_frac"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracer_is_inert(workload):
    """Traced and untraced repetitions agree on every simulated output."""
    wl = WORKLOADS[workload](smoke=True)
    inputs = wl.inputs(5)
    plain = wl.rep(inputs)
    traced = wl.rep(inputs, tracer=LayerTracer())
    assert traced.fingerprint == plain.fingerprint
    assert traced.counts == plain.counts


def test_instrument_restores_every_attribute():
    from repro.check import stress
    from repro.core.coherence import CoherenceManager
    from repro.network.fabric import Fabric
    from repro.sim.engine import Engine, Timer
    from repro.stats.trace import ProtocolTrace

    classes = (Engine, Timer, Fabric, CoherenceManager, ProtocolTrace)
    before = [dict(vars(cls)) for cls in classes]
    build = stress.build_machine
    with instrument(LayerTracer()):
        assert Fabric.send is not before[2]["send"]
    assert [dict(vars(cls)) for cls in classes] == before
    assert stress.build_machine is build


def test_wrong_reference_is_counted_as_failure():
    wl = WORKLOADS["beam-delayed"](smoke=True)
    lattice, config, expected = wl.inputs(4)
    wrong = {s: c + 1 for s, c in expected.items()}
    m = measure(wl, 4, 0, trace=False, inputs=(lattice, config, wrong))
    assert end_to_end(m)["failed_frac"] > 0
    assert m.failures


def test_oracle_verdicts_are_findings_not_benchmark_failures():
    """A chaos seed the oracle fails still has a verdict: the benchmark
    counts it in ``oracle_failed_seeds`` and lists it, without failing."""
    wl = WORKLOADS["check-chaos"](smoke=True)
    rep = wl.rep(wl.inputs(0)[:1] + [1016])
    assert rep.failed == 0, rep.failures
    assert rep.attempted == 3  # two verdicts and the recovery check
    assert len(rep.findings) == rep.counts["oracle_failed_seeds"]
    assert all("seed 1016" in finding for finding in rep.findings)


def test_exits_nonzero_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "beam-delayed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
