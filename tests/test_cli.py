"""Tests for the command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "table-2-1" in capsys.readouterr().out

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_argument_defaults(self):
        args = build_parser().parse_args(["table-2-1"])
        assert args.nodes == 16
        args = build_parser().parse_args(["fig-3-1", "--nodes", "4"])
        assert args.nodes == 4


class TestCommands:
    def test_costs_prints_the_budget(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "remote read, adjacent" in out
        assert "56" in out

    def test_table_3_1_matches_paper(self, capsys):
        assert main(["table-3-1"]) == 0
        out = capsys.readouterr().out
        assert "queue" in out and "52" in out and "39" in out

    def test_table_2_1_small(self, capsys):
        assert main(["table-2-1", "--nodes", "4", "--vertices", "120"]) == 0
        out = capsys.readouterr().out
        assert "Table 2-1" in out
        assert "verified" in out

    def test_fig_2_1_small(self, capsys):
        assert (
            main(["fig-2-1", "--max-nodes", "4", "--vertices", "120"]) == 0
        )
        out = capsys.readouterr().out
        assert "Figure 2-1" in out



class TestReproduceHints:
    """A failing sweep's "reproduce with" line must name the same run."""

    @staticmethod
    def _failing_sweep(result):
        def fake(*_args, on_result=None, **_kwargs):
            on_result(result)
            return [result]

        return fake

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--inject-bug"],
            ["--faults", "--drop-prob", "0.05", "--outage-cycles", "40"],
            ["--chaos", "--dup-prob", "0.1", "--crash-rate", "0.001"],
            ["--fault-jitter", "3", "--outage-rate", "0.002"],
        ],
    )
    def test_check_hint_carries_the_flags(self, monkeypatch, capsys, flags):
        import repro.check

        result = SimpleNamespace(
            seed=7, ok=False, caught=False, cycles=1, messages=1,
            drops=0, dups=0, retransmits=0, recovered=0, crashes=0,
            recoveries=0, crash_flushes=0, crash_redrives=0,
            crash_strays=0, crash_events=[], describe=lambda: "seed 7: FAIL",
        )
        monkeypatch.setattr(
            repro.check, "run_seeds", self._failing_sweep(result)
        )
        assert main(["check", "--seeds", "1", *flags]) == 1
        hint = capsys.readouterr().out.splitlines()[-1]
        assert hint == (
            " ".join(["reproduce with: python -m repro check", *flags])
            + " --seed 7"
        )

    def test_ledger_hint_carries_non_default_sizes(self, monkeypatch, capsys):
        import repro.apps.ledger

        result = SimpleNamespace(
            seed=3, ok=False, crashes=0, recoveries=0, crash_events=[],
            describe=lambda: "seed 3: FAIL",
        )
        monkeypatch.setattr(
            repro.apps.ledger, "run_ledger_sweep", self._failing_sweep(result)
        )
        argv = ["ledger", "--seeds", "1", "--participants", "3"]
        assert main(argv + ["--txns", "24"]) == 1
        hint = capsys.readouterr().out.splitlines()[-1]
        # --txns 24 is the default, so the rerun does not need it.
        assert hint == (
            "reproduce with: python -m repro ledger --participants 3 --seed 3"
        )


class TestProfile:
    @pytest.mark.parametrize(
        "workload,numbers",
        [
            ("sssp", (43780, 10301, 41510)),
            ("beam", (35640, 3473, 27683)),
            ("placement", (39025, 4735, 12947)),
        ],
    )
    def test_smoke_workloads_are_pinned(self, tmp_path, workload, numbers):
        out = tmp_path / "PROFILE.json"
        argv = ["profile", workload, "--smoke", "--top", "1", "--out", str(out)]
        assert main(argv) == 0
        artifact = json.loads(out.read_text())
        got = (artifact["cycles"], artifact["messages"], artifact["events"])
        assert got == numbers
        assert len(artifact["top"]) == 1
