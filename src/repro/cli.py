"""Command-line interface: run the paper's experiments directly.

Usage::

    python -m repro list
    python -m repro table-2-1 [--nodes 16] [--vertices 800]
    python -m repro fig-2-1   [--max-nodes 32] [--jobs N]
    python -m repro table-3-1
    python -m repro fig-3-1   [--nodes 8] [--jobs N]
    python -m repro costs
    python -m repro check     [--seeds 50] [--jobs N] [--shard i/N]
    python -m repro check     --chaos [--seeds 100] [--transcript PATH]
    python -m repro ledger    [--seeds 50] [--jobs N]
    python -m repro sweep sssp --nodes 16 --copies 3 --vertices 800
    python -m repro sweep sssp --nodes 4,8,16 --copies 1,2,4 [--jobs N]
    python -m repro sweep beam --nodes 16 --modes delayed
    python -m repro sweep beam --nodes 8 --modes blocking,delayed [--jobs N]
    python -m repro sweep --placement --nodes 256 [--jobs N]
    python -m repro profile sssp|beam|check|placement [--top 25]

Each command builds the workload, runs the simulation(s), verifies the
results against the sequential oracle, and prints the paper-style table.
The workloads themselves (inputs, sync styles, grid points, sweep axes,
perf sizes, the Table 3-1 measurement) are defined once, in
:mod:`repro.workloads`; this module only parses options and prints.
A sweep with one value per axis (the two single-point lines above) runs
one verified machine and prints its cycles and utilization.
Every sweep-shaped command takes ``--jobs N`` to fan its independent
runs out across worker processes (``--jobs 0`` = all cores); output is
byte-identical for every job count.  The pytest benchmark harness
(``pytest benchmarks/ --benchmark-only``) runs the same experiments
with assertions and wall-clock measurement; this CLI is the quick
interactive path.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Sequence

from repro.core.params import PAPER_PARAMS
from repro.stats.report import format_table
from repro import workloads


def _resolve_jobs(args) -> int:
    """``--jobs 0`` means one worker per core; positive requests are
    clamped to the visible CPU count unless ``--oversubscribe``."""
    from repro.parallel import effective_jobs

    return effective_jobs(
        args.jobs, oversubscribe=getattr(args, "oversubscribe", False)
    )


def _cmd_table_2_1(args) -> int:
    rows = []
    for copies in range(1, min(5, args.nodes) + 1):
        # The paper replicated "the queues and vertices" (Section 2.5)
        # and let idle processors steal.
        r = workloads.sssp_point(
            args.nodes, copies, args.vertices, steal=True
        )
        rows.append(
            [
                copies,
                r["reads_local_over_remote"],
                r["writes_local_over_remote"],
                r["total_over_update"],
            ]
        )
        print(f"  copies={copies}: verified ({r['cycles']:,} cycles)")
    print()
    print(
        format_table(
            ["copies", "reads L/R", "writes L/R", "total/update"],
            rows,
            title=f"Table 2-1 (SSSP, {args.nodes} processors)",
        )
    )
    return 0


def _cmd_fig_2_1(args) -> int:
    from repro.parallel import SweepTask, run_sweep

    sweep = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= args.max_nodes]
    tasks = [
        SweepTask.make(
            n,
            "repro.workloads:fig21_point",
            {"nodes": n, "vertices": args.vertices},
            label=f"{n} node(s)",
        )
        for n in sweep
    ]
    outcomes = run_sweep(
        tasks,
        jobs=_resolve_jobs(args),
        on_result=lambda r: print(
            f"  {r.label}: verified" if r.ok else f"  {r.describe()}"
        ),
        label="fig-2-1",
    )
    if not all(r.ok for r in outcomes):
        return 1
    base = outcomes[0].value["none_cycles"]
    rows: List[List[object]] = [
        [
            p["nodes"],
            base / (p["nodes"] * p["none_cycles"]),
            p["none_util"],
            base / (p["nodes"] * p["repl_cycles"]),
            p["repl_util"],
        ]
        for p in (r.value for r in outcomes)
    ]
    print()
    print(
        format_table(
            ["nodes", "eff none", "util none", "eff repl", "util repl"],
            rows,
            title="Figure 2-1 (efficiency): SSSP vs processors",
        )
    )
    return 0


def _cmd_table_3_1(args) -> int:
    del args
    fixed = workloads.table_3_1_fixed_cycles()
    rows = []
    for op, operand in workloads.TABLE_3_1_OPS:
        total = workloads.delayed_op_latency(op, operand)
        rows.append([op.value, total, total - fixed, PAPER_PARAMS.op_cycles[op]])
    print(
        format_table(
            ["operation", "end-to-end", "CM execution", "paper"],
            rows,
            title="Table 3-1: delayed operations (adjacent node)",
        )
    )
    return 0


def _cmd_fig_3_1(args) -> int:
    from repro.parallel import SweepTask, run_sweep

    # Task 0 is the single-node blocking baseline the efficiency column
    # divides by; the paper's five sync styles follow.
    runs = [("base", "blocking", 1)]
    runs += [(mode, mode, args.nodes) for mode in workloads.BEAM_MODES]
    tasks = [
        SweepTask.make(
            i,
            "repro.workloads:beam_point",
            {"mode": mode, "nodes": nodes, "beam": 60},
            label=label,
        )
        for i, (label, mode, nodes) in enumerate(runs)
    ]
    outcomes = run_sweep(
        tasks,
        jobs=_resolve_jobs(args),
        on_result=lambda r: print(
            f"  {r.label}: verified" if r.ok else f"  {r.describe()}"
        )
        if r.label != "base"
        else None,
        label="fig-3-1",
    )
    if not all(r.ok for r in outcomes):
        return 1
    base = outcomes[0].value["cycles"]
    rows = [
        [
            p["mode"],
            p["cycles"],
            base / (args.nodes * p["cycles"]),
            p["utilization"],
        ]
        for p in (r.value for r in outcomes[1:])
    ]
    print()
    print(
        format_table(
            ["sync style", "cycles", "efficiency", "utilization"],
            rows,
            title=f"Figure 3-1: beam search on {args.nodes} nodes",
        )
    )
    return 0


def _cmd_costs(args) -> int:
    del args
    rows = [
        [
            "remote read, adjacent",
            workloads.remote_read_latency(1),
            "32 + 24 round trip",
        ],
        [
            "adjacent round trip",
            2 * PAPER_PARAMS.one_way_latency(1),
            "24 (measured on the router)",
        ],
        [
            "extra hop",
            PAPER_PARAMS.net_hop_cycles,
            "4 cycles each way",
        ],
        [
            "delayed-op issue",
            PAPER_PARAMS.issue_delayed_cycles,
            "~25 cycles",
        ],
        [
            "result read",
            PAPER_PARAMS.read_result_cycles,
            "~10 cycles",
        ],
    ]
    print(
        format_table(
            ["quantity", "cycles", "paper"],
            rows,
            title="Section 3.1 cost model",
        )
    )
    return 0


def _report_bad_seeds(args, results, bad_seeds, names: Sequence[str]) -> None:
    """Write the failing seeds' transcripts to ``--transcript`` and print
    the command that reruns them: the options among ``names`` that this
    command line set away from their defaults, then ``--seed``."""
    if not bad_seeds:
        return
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            for r in results:
                if r.seed in bad_seeds:
                    fh.write(r.describe() + "\n")
                    for cycle, node, kind, epoch in r.crash_events:
                        fh.write(
                            f"  [crash] cycle {cycle}: node {node} "
                            f"{kind} (epoch {epoch})\n"
                        )
                    fh.write("\n")
        print(f"failing-seed transcript written to {args.transcript}")
    defaults = build_parser().parse_args([args.command])
    flags = ""
    for name in names:
        value = getattr(args, name)
        if value != getattr(defaults, name):
            flag = "--" + name.replace("_", "-")
            flags += f" {flag}" if value is True else f" {flag} {value}"
    print(
        f"reproduce with: python -m repro {args.command}{flags} --seed "
        + " / --seed ".join(str(s) for s in bad_seeds[:5])
    )


def _fault_args(args):
    """(faults_enabled, overrides) from the check command's fault flags.

    Any explicit knob implies fault mode; ``--faults`` alone derives all
    knobs per seed from the seed's own fault stream.
    """
    overrides = {
        field: value
        for field, value in (
            ("drop_prob", args.drop_prob),
            ("dup_prob", args.dup_prob),
            ("fault_jitter", args.fault_jitter),
            ("outage_rate", args.outage_rate),
            ("outage_cycles", args.outage_cycles),
            ("crash_rate", getattr(args, "crash_rate", None)),
        )
        if value is not None
    }
    return bool(args.faults or overrides), overrides


def _cmd_check(args) -> int:
    from repro.check import run_seeds, run_stress

    faults, overrides = _fault_args(args)

    if args.seed is not None:
        # Reproduce one seed with a full transcript of any failure.
        result = run_stress(
            args.seed,
            inject_bug=args.inject_bug,
            faults=faults,
            fault_overrides=overrides,
            chaos=args.chaos,
        )
        print(result.describe())
        for cycle, node, kind, epoch in result.crash_events:
            print(f"  [crash] cycle {cycle}: node {node} {kind} (epoch {epoch})")
        if result.report is not None:
            print(result.report.summary())
        if args.inject_bug:
            return 0 if result.caught else 1
        return 0 if result.ok else 1

    failures = 0

    def show(result) -> None:
        nonlocal failures
        bad = not result.caught if args.inject_bug else not result.ok
        if bad:
            failures += 1
        if args.verbose or bad:
            print(result.describe())

    results = run_seeds(
        args.seeds,
        base_seed=args.base_seed,
        inject_bug=args.inject_bug,
        keep_going=args.keep_going,
        on_result=show,
        faults=faults,
        fault_overrides=overrides,
        chaos=args.chaos,
        jobs=_resolve_jobs(args),
        shard=args.shard,
    )
    cycles = sum(r.cycles for r in results)
    messages = sum(r.messages for r in results)
    if args.inject_bug:
        caught = sum(1 for r in results if r.caught)
        print(
            f"fault injection: {caught}/{len(results)} mutated runs "
            f"caught by the checkers ({cycles:,} cycles, "
            f"{messages:,} messages simulated)"
        )
    else:
        print(
            f"{len(results)} seed(s) checked, {failures} failure(s) "
            f"({cycles:,} cycles, {messages:,} messages simulated)"
        )
    if faults or args.chaos:
        drops = sum(r.drops for r in results)
        dups = sum(r.dups for r in results)
        retransmits = sum(r.retransmits for r in results)
        recovered = sum(r.recovered for r in results)
        print(
            f"wire faults: {drops:,} drops, {dups:,} dups, "
            f"{retransmits:,} retransmits, {recovered:,} messages "
            f"recovered after loss"
        )
        if retransmits == 0:
            # A fault sweep where nothing was ever retransmitted did not
            # actually exercise the recovery layer — treat it as a
            # harness failure, not a pass.
            print("fault sweep exercised no retransmissions; failing")
            failures += 1
    if args.chaos:
        crashes = sum(r.crashes for r in results)
        recoveries = sum(r.recoveries for r in results)
        flushes = sum(r.crash_flushes for r in results)
        redrives = sum(r.crash_redrives for r in results)
        strays = sum(r.crash_strays for r in results)
        print(
            f"node crashes: {crashes:,} crashes, {recoveries:,} "
            f"recoveries, {flushes:,} flushed messages, {redrives:,} "
            f"re-driven requests, {strays:,} strays absorbed"
        )
        if recoveries == 0:
            # Same reasoning as the retransmit floor: a chaos sweep
            # where no node ever came back did not exercise recovery.
            print("chaos sweep exercised no crash recovery; failing")
            failures += 1
    bad_seeds = [
        r.seed
        for r in results
        if (not r.caught if args.inject_bug else not r.ok)
    ]
    _report_bad_seeds(
        args,
        results,
        bad_seeds,
        [
            "faults",
            "chaos",
            "inject_bug",
            "drop_prob",
            "dup_prob",
            "fault_jitter",
            "outage_rate",
            "outage_cycles",
            "crash_rate",
        ],
    )
    return 1 if failures else 0


def _cmd_ledger(args) -> int:
    """Seeded 2PC bank-ledger crash/recovery sweep (conservation oracle).

    Each seed derives a crash schedule (coordinator and participant
    crashes both occur across the sweep), runs the two-phase-commit
    ledger on top of the paper's delayed operations, and verifies the
    end-to-end money-conservation invariant after recovery.  A seed
    whose schedule produced no actual recovery fails: the sweep must
    exercise the machinery, not time out around it.
    """
    from repro.apps.ledger import run_ledger, run_ledger_sweep

    if args.seed is not None:
        result = run_ledger(
            args.seed,
            n_participants=args.participants,
            n_txns=args.txns,
        )
        print(result.describe())
        for cycle, node, kind, epoch in result.crash_events:
            print(f"  [crash] cycle {cycle}: node {node} {kind} (epoch {epoch})")
        return 0 if result.ok and result.recoveries >= 1 else 1

    failures = 0

    def show(result) -> None:
        nonlocal failures
        bad = not result.ok or result.recoveries < 1
        if bad:
            failures += 1
        if args.verbose or bad:
            print(result.describe())

    results = run_ledger_sweep(
        args.seeds,
        base_seed=args.base_seed,
        n_participants=args.participants,
        n_txns=args.txns,
        jobs=_resolve_jobs(args),
        keep_going=args.keep_going,
        on_result=show,
    )
    crashes = sum(r.crashes for r in results)
    recoveries = sum(r.recoveries for r in results)
    coord = sum(
        1
        for r in results
        if any(n == 0 and k == "crash" for _c, n, k, _e in r.crash_events)
    )
    part = sum(
        1
        for r in results
        if any(n != 0 and k == "crash" for _c, n, k, _e in r.crash_events)
    )
    print(
        f"{len(results)} ledger seed(s), {failures} failure(s); "
        f"{crashes} crashes / {recoveries} recoveries "
        f"(coordinator-crash seeds: {coord}, participant-crash "
        f"seeds: {part})"
    )
    bad_seeds = [
        r.seed for r in results if not r.ok or r.recoveries < 1
    ]
    _report_bad_seeds(args, results, bad_seeds, ["participants", "txns"])
    return 1 if failures else 0


def _cmd_profile(args) -> int:
    """Profile one workload under cProfile and write ``PROFILE.json``.

    sssp, beam and placement are the perf workloads of
    :mod:`repro.workloads`, the ones ``benchmarks/bench_perf.py`` times,
    so a profile maps directly onto the committed throughput numbers.
    Events/sec measured here includes profiler overhead — use it to rank
    hot functions, not to compare against ``BENCH_perf.json``.
    """
    import cProfile
    import io
    import json
    import pstats
    import time
    from functools import partial
    from pathlib import Path

    def run_check():
        from repro.check import run_seeds

        results = run_seeds(args.seeds, keep_going=True)
        bad = [r for r in results if not r.ok]
        if bad:
            raise AssertionError(
                f"{len(bad)} stress seed(s) failed under the profiler"
            )
        return None

    if args.workload == "check":
        runner = run_check
    else:
        runner = partial(workloads.run_perf, args.workload, smoke=args.smoke)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    machine = runner()
    profiler.disable()
    wall = time.perf_counter() - t0

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    buf = io.StringIO()
    stats.stream = buf
    stats.print_stats(args.top)
    print(buf.getvalue().rstrip())

    # The same top-N rows, machine-readable for the JSON artifact.
    rows = []
    _width, funcs = stats.get_print_list([args.top])
    for func in funcs:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )

    artifact = {
        "workload": args.workload,
        "smoke": bool(args.smoke),
        "wall_s": round(wall, 4),
        "sort": "cumulative",
        "top": rows,
    }
    if machine is not None:
        events = machine.engine.events_fired
        artifact.update(
            events=events,
            events_per_sec=round(events / wall) if wall else 0,
            cycles=machine.engine.now,
            messages=machine.fabric.stats.total_messages,
        )
    else:
        artifact["seeds"] = args.seeds
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    """Run a parameter grid across worker processes, print one table."""
    from repro.parallel import SweepTask, run_sweep, shard_tasks

    if args.placement:
        args.experiment = "placement"
    if args.experiment is None:
        raise SystemExit(
            "repro sweep: name an experiment (sssp, beam, placement) "
            "or pass --placement"
        )
    columns, title = {
        "sssp": (
            [
                "nodes",
                "copies",
                "cycles",
                "messages",
                "utilization",
                "total_over_update",
            ],
            f"SSSP sweep ({args.vertices} vertices)",
        ),
        "beam": (
            ["nodes", "mode", "cycles", "utilization"],
            f"Beam-search sweep (beam {args.beam})",
        ),
        "placement": (
            [
                "policy",
                "topology",
                "nodes",
                "cycles",
                "messages",
                "mean_hops",
                "replications",
                "migrations",
            ],
            f"Placement-policy sweep ({args.pages} hot pages, zipfian skew)",
        ),
    }[args.experiment]
    sweep = workloads.SWEEPS[args.experiment]
    points = sweep.points(
        vars(args),
        lambda text, kind: [kind(part) for part in text.split(",") if part],
    )
    tasks = [
        SweepTask.make(i, sweep.target, point, label=sweep.label(point))
        for i, point in enumerate(points)
    ]
    tasks = shard_tasks(tasks, args.shard)
    jobs_effective = _resolve_jobs(args)
    outcomes = run_sweep(tasks, jobs=jobs_effective, label="sweep")
    failures = [r for r in outcomes if not r.ok]
    rows = [
        [r.value[c] for c in columns] for r in outcomes if r.ok
    ]
    print(format_table(columns, rows, title=title))
    print(
        f"{len(outcomes)} configuration(s) swept, {len(failures)} failure(s)"
    )
    # Provenance goes to stderr like the progress line: stdout must stay
    # byte-identical across job counts.
    print(
        f"[sweep] jobs_requested={args.jobs} jobs_effective={jobs_effective}",
        file=sys.stderr,
    )
    for r in failures:
        print(f"  {r.describe()}")
        if r.error_tb:
            print("    " + "\n    ".join(r.error_tb.rstrip().splitlines()))
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    """Run the simulation daemon in the foreground until SIGINT/SIGTERM."""
    import signal

    from repro.server import ReproDaemon

    log_stream = open(args.log, "a") if args.log else sys.stderr
    daemon = ReproDaemon(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        cache_size=args.cache_size,
        cache_file=args.cache_file,
        max_pending=args.max_pending,
        quota=args.quota,
        log=log_stream,
    )
    daemon.start()
    print(f"repro serve: listening on {daemon.address_str()}", flush=True)

    def _stop(signum, frame):
        del signum, frame
        daemon.shutdown()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        daemon.serve_forever()
    finally:
        daemon.shutdown()
        if args.log:
            log_stream.close()
    return 0


def _parse_param(text: str):
    """``key=value`` with JSON-typed values; bare words are strings."""
    if "=" not in text:
        raise SystemExit(f"--param needs key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def _cmd_submit(args) -> int:
    """Submit one request to a running daemon; print the envelope."""
    from repro.server import DaemonUnavailable, ReproClient

    params = dict(_parse_param(p) for p in args.param or [])

    def show_progress(event):
        print(
            f"[progress] {event['done']}/{event['total']}", file=sys.stderr
        )

    try:
        with ReproClient(
            host=args.host, port=args.port, socket_path=args.socket
        ) as client:
            envelope = client.request(
                args.op, params, on_progress=show_progress
            )
    except (DaemonUnavailable, ConnectionError, OSError) as exc:
        print(f"repro submit: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
    if args.result_only:
        # Just the payload, canonical form: byte-comparable across
        # submits (the full envelope carries timings and counters).
        print(json.dumps(envelope.get("result"), sort_keys=True))
    else:
        print(json.dumps(envelope, sort_keys=True, indent=2))
    return 0 if envelope.get("ok") else 1


COMMANDS = {
    "table-2-1": (_cmd_table_2_1, "Table 2-1: replication vs messages"),
    "fig-2-1": (_cmd_fig_2_1, "Figure 2-1: SSSP efficiency/utilization"),
    "table-3-1": (_cmd_table_3_1, "Table 3-1: delayed-operation costs"),
    "fig-3-1": (_cmd_fig_3_1, "Figure 3-1: beam-search sync styles"),
    "costs": (_cmd_costs, "Section 3.1 latency budget"),
    "check": (_cmd_check, "coherence oracle over seeded stress runs"),
    "ledger": (_cmd_ledger, "2PC bank-ledger crash/recovery sweep"),
    "sweep": (_cmd_sweep, "parameter-grid sweep across worker processes"),
    "profile": (_cmd_profile, "cProfile one workload; writes PROFILE.json"),
    "serve": (_cmd_serve, "run the simulation daemon (JSON lines/socket)"),
    "submit": (_cmd_submit, "submit one request to a running daemon"),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the PLUS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    def add_jobs(p, shard=False):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for independent runs "
            "(default 1 = in-process; 0 = one per core; requests above "
            "the visible CPU count are clamped)",
        )
        p.add_argument(
            "--oversubscribe",
            action="store_true",
            help="allow more workers than visible CPUs (skip the "
            "--jobs clamp)",
        )
        if shard:
            p.add_argument(
                "--shard",
                type=str,
                default=None,
                metavar="i/N",
                help="run only the i-th of N interleaved task shards "
                "(1-based); the union of all shards is the full sweep",
            )

    for name, (_fn, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == "table-2-1":
            p.add_argument("--nodes", type=int, default=16)
            p.add_argument("--vertices", type=int, default=800)
        elif name == "fig-2-1":
            p.add_argument("--max-nodes", type=int, default=32)
            p.add_argument("--vertices", type=int, default=800)
            add_jobs(p)
        elif name == "fig-3-1":
            p.add_argument("--nodes", type=int, default=8)
            add_jobs(p)
        elif name == "sweep":
            p.add_argument(
                "experiment",
                nargs="?",
                default=None,
                choices=("sssp", "beam", "placement"),
                help="which workload's parameter grid to sweep",
            )
            p.add_argument(
                "--placement",
                action="store_true",
                help="shorthand for the placement experiment "
                "(policy x topology x nodes grid)",
            )
            p.add_argument(
                "--nodes",
                type=str,
                default="2,4,8",
                help="comma-separated processor counts (default 2,4,8)",
            )
            p.add_argument(
                "--copies",
                type=str,
                default="1,2",
                help="sssp: comma-separated replication degrees "
                "(default 1,2)",
            )
            p.add_argument(
                "--vertices",
                type=int,
                default=800,
                help="sssp: graph size (default 800)",
            )
            p.add_argument(
                "--modes",
                type=str,
                default=",".join(workloads.BEAM_MODES),
                help="beam: comma-separated sync styles",
            )
            p.add_argument(
                "--beam",
                type=int,
                default=60,
                help="beam: beam width (default 60)",
            )
            p.add_argument(
                "--policies",
                type=str,
                default="static,replicate,migrate",
                help="placement: comma-separated policies "
                "(default static,replicate,migrate)",
            )
            p.add_argument(
                "--topologies",
                type=str,
                default="mesh,torus",
                help="placement: comma-separated topologies "
                "(default mesh,torus)",
            )
            p.add_argument(
                "--pages",
                type=int,
                default=128,
                help="placement: hot (celebrity) page pool size "
                "(default 128)",
            )
            p.add_argument(
                "--requests",
                type=int,
                default=120,
                help="placement: accesses issued per node (default 120)",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=0,
                help="placement: access-stream seed (default 0)",
            )
            add_jobs(p, shard=True)
        elif name == "check":
            p.add_argument(
                "--seeds",
                type=int,
                default=50,
                help="number of consecutive seeds to run (default 50)",
            )
            p.add_argument(
                "--base-seed",
                type=int,
                default=0,
                help="first seed of the range",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="reproduce a single seed instead of a range",
            )
            p.add_argument(
                "--inject-bug",
                action="store_true",
                help="plant the skip-last-hop protocol bug; exit 0 only "
                "if every mutated run is caught",
            )
            p.add_argument(
                "--keep-going",
                action="store_true",
                help="do not stop at the first failing seed",
            )
            p.add_argument(
                "--verbose",
                action="store_true",
                help="print every seed's outcome, not just failures",
            )
            p.add_argument(
                "--faults",
                action="store_true",
                help="run each seed on an unreliable mesh (seeded drop/"
                "dup/reorder/outage plan) and require every check to "
                "still pass; fails if no retransmission ever happened",
            )
            p.add_argument(
                "--drop-prob",
                type=float,
                default=None,
                help="pin the per-send drop probability (implies faults)",
            )
            p.add_argument(
                "--dup-prob",
                type=float,
                default=None,
                help="pin the per-send duplication probability "
                "(implies faults)",
            )
            p.add_argument(
                "--fault-jitter",
                type=int,
                default=None,
                help="pin the wire reordering amplitude in cycles "
                "(implies faults)",
            )
            p.add_argument(
                "--outage-rate",
                type=float,
                default=None,
                help="pin the per-cycle link outage rate (implies faults)",
            )
            p.add_argument(
                "--outage-cycles",
                type=int,
                default=None,
                help="pin the length of each link outage window "
                "(implies faults)",
            )
            p.add_argument(
                "--chaos",
                action="store_true",
                help="also crash and restart nodes: each seed derives a "
                "crash rate, down window and durability mode on top of "
                "the wire faults; fails if no recovery ever happened",
            )
            p.add_argument(
                "--crash-rate",
                type=float,
                default=None,
                help="pin the per-cycle node crash rate; 0 strips the "
                "crash schedule from --chaos, leaving a wire-fault-only "
                "plan",
            )
            p.add_argument(
                "--transcript",
                type=str,
                default=None,
                help="write failing seeds' transcripts to this file "
                "(CI artifact)",
            )
            add_jobs(p, shard=True)
        elif name == "ledger":
            p.add_argument(
                "--seeds",
                type=int,
                default=50,
                help="number of consecutive seeds to run (default 50)",
            )
            p.add_argument(
                "--base-seed",
                type=int,
                default=1,
                help="first seed of the range (default 1)",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="reproduce a single seed instead of a range",
            )
            p.add_argument(
                "--participants",
                type=int,
                default=2,
                help="participant (shard) nodes besides the "
                "coordinator (default 2)",
            )
            p.add_argument(
                "--txns",
                type=int,
                default=24,
                help="two-phase transfers per seed (default 24)",
            )
            p.add_argument(
                "--keep-going",
                action="store_true",
                help="do not stop at the first failing seed",
            )
            p.add_argument(
                "--verbose",
                action="store_true",
                help="print every seed's outcome, not just failures",
            )
            p.add_argument(
                "--transcript",
                type=str,
                default=None,
                help="write failing seeds' transcripts (with crash "
                "events) to this file (CI artifact)",
            )
            add_jobs(p)
        elif name == "serve":
            p.add_argument(
                "--host",
                type=str,
                default="127.0.0.1",
                help="TCP bind address (default 127.0.0.1)",
            )
            p.add_argument(
                "--port",
                type=int,
                default=0,
                help="TCP port (default 0 = OS-assigned, printed at boot)",
            )
            p.add_argument(
                "--socket",
                type=str,
                default=None,
                metavar="PATH",
                help="serve on a unix socket instead of TCP",
            )
            p.add_argument(
                "--jobs",
                type=int,
                default=0,
                metavar="N",
                help="warm worker processes (default 0 = one per core)",
            )
            p.add_argument(
                "--cache-size",
                type=int,
                default=128,
                help="LRU result-cache capacity (default 128)",
            )
            p.add_argument(
                "--cache-file",
                type=str,
                default=None,
                metavar="PATH",
                help="persist the result cache to this JSON file: "
                "loaded at boot, rewritten atomically after each "
                "insert, keyed by the protocol schema version",
            )
            p.add_argument(
                "--max-pending",
                type=int,
                default=32,
                help="admission queue bound: concurrent dispatched "
                "requests before 'overloaded' (default 32)",
            )
            p.add_argument(
                "--quota",
                type=int,
                default=4,
                help="per-client in-flight request quota (default 4)",
            )
            p.add_argument(
                "--log",
                type=str,
                default=None,
                metavar="PATH",
                help="append daemon log lines here (default stderr)",
            )
        elif name == "submit":
            p.add_argument(
                "--op",
                type=str,
                required=True,
                help="request op: simulate, check, sweep, bench, status",
            )
            p.add_argument(
                "--host", type=str, default="127.0.0.1", help="daemon host"
            )
            p.add_argument(
                "--port", type=int, default=None, help="daemon TCP port"
            )
            p.add_argument(
                "--socket",
                type=str,
                default=None,
                metavar="PATH",
                help="daemon unix socket path",
            )
            p.add_argument(
                "--param",
                action="append",
                metavar="K=V",
                help="op parameter (repeatable); values parse as JSON, "
                "bare words as strings",
            )
            p.add_argument(
                "--result-only",
                action="store_true",
                help="print only the result payload, canonical JSON "
                "(byte-comparable across submits)",
            )
        elif name == "profile":
            p.add_argument(
                "workload",
                choices=("sssp", "beam", "check", "placement"),
                help="which workload to run under cProfile",
            )
            p.add_argument(
                "--top",
                type=int,
                default=25,
                metavar="N",
                help="functions to show/record, by cumulative time "
                "(default 25)",
            )
            p.add_argument(
                "--smoke",
                action="store_true",
                help="CI-sized workload (sssp 200 vertices, beam 6x48)",
            )
            p.add_argument(
                "--seeds",
                type=int,
                default=25,
                help="check: number of stress seeds to profile "
                "(default 25)",
            )
            p.add_argument(
                "--out",
                type=str,
                default="PROFILE.json",
                metavar="PATH",
                help="JSON artifact path (default PROFILE.json)",
            )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name, (_fn, help_) in COMMANDS.items():
            print(f"  {name:<12} {help_}")
        return 0
    fn, _help = COMMANDS[args.command]
    return fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
