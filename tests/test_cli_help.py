"""Every command-line entry point answers ``--help`` with exit code 0.

argparse formats help text lazily, so a malformed help string (an
unescaped ``%``, say) only crashes when someone asks for help.  Each
entry point runs in its own interpreter, exactly as a user would start
it.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _subcommands():
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    return []


def _help_exit(*argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, *argv, "--help"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_every_repro_subcommand_is_covered():
    assert {"check", "run", "profile", "serve"} <= set(_subcommands())


@pytest.mark.parametrize(
    "argv",
    [("-m", "repro")]
    + [("-m", "repro", name) for name in _subcommands()]
    + [("benchmarks/bench_perf.py",), ("perfbench/run.py",)],
    ids=lambda argv: " ".join(argv),
)
def test_help_exits_zero(argv):
    code, out, err = _help_exit(*argv)
    assert code == 0, err
    assert "usage:" in out
