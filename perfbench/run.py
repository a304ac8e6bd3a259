"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload beam-delayed --seed 1 --seconds 45
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

The simulator is imported from ``src/`` next to this directory, never
from an installed copy.  Every metric is printed as ``workload name
value unit``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The
exit code is 0 when every correctness check passed, 1 when one failed,
and 2 when the simulator cannot be imported (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_simulator() -> bool:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(
            f"perfbench: cannot import repro from {SRC}: {exc}",
            file=sys.stderr,
        )
        return False
    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        print(
            f"perfbench: repro was imported from {where}, not {SRC}",
            file=sys.stderr,
        )
        return False
    return True


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload and print its metrics; returns
    ``(metrics, attempted, failed)``."""
    from perfbench import spec
    from perfbench.workloads import end_to_end, measure, per_layer

    m = measure(workload, seed, seconds, trace)
    values = per_layer(m) if trace else end_to_end(m)
    metrics = {
        metric: {"value": values[metric], "unit": spec.UNITS[metric]}
        for metric in spec.metric_names(trace)
    }
    name = workload.name
    if not trace:
        # Zero on a correct program, so not a regression-gated metric;
        # the result line carries it as ``failed``/``attempted``.
        print(f"{name} failed_frac {values['failed_frac']:.6g} ratio")
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for failure in m.failures:
        print(f"{name} FAILED: {failure}", file=sys.stderr)
    for finding in m.findings:
        print(f"{name} oracle finding: {finding}", file=sys.stderr)
    return metrics, m.attempted, m.failed


def main(argv=None, smoke: bool = False) -> int:
    """The command line; ``smoke`` runs tiny inputs (the tests use it)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_simulator():
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all"
        )
    results = {}
    attempted = failed = 0
    for name in names:
        metrics, a, f = run_workload(
            WORKLOADS[name](smoke=smoke), args.seed, args.seconds,
            bool(args.trace),
        )
        results[name] = metrics
        attempted += a
        failed += f
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {
            f"{name}/{metric}": entry
            for name, entries in results.items()
            for metric, entry in entries.items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
