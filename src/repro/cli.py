"""Command-line interface.

::

    repro-race list
    repro-race run --workload pbzip2 --detector dynamic [--scale 1.0]
    repro-race run -w pbzip2 -d dynamic --checkpoint-every 5000
    repro-race run -w pbzip2 -d dynamic --resume-from latest
    repro-race table 1 [--scale 0.5] [--workloads ferret,pbzip2]
    repro-race fuzz --workload ffmpeg --trials 50
    repro-race fuzz -w ffmpeg --faults --max-events 3000 --trial-timeout 10 \
        --quarantine-dir .repro-race/quarantine --checkpoint fuzz.json --resume
    repro-race fuzz -w ffmpeg --trials 20 --detector-checkpoints 1000
    repro-race quarantine list
    repro-race quarantine shrink ffmpeg-seed3
    repro-race stats --workload pbzip2
    repro-race hbgraph trace.npz -o hb.dot
    repro-race compare -w x264 -d fasttrack-byte,dynamic,drd
    repro-race replay trace.npz --detector fasttrack-byte
    repro-race record --workload ferret --out trace.npz
    repro-race shrink --workload ffmpeg --out minimal.npz
    repro-race conform --workload streamcluster --seeds 3
    repro-race golden regen
    repro-race golden verify
    repro-race sampling [--out BENCH_sampling.json]
    repro-race serve [--port 7432] [--checkpoint-root DIR]
    repro-race loadgen --quick [--connect HOST:PORT] [-o BENCH_server.json]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.quarantine import DEFAULT_QUARANTINE_DIR
from repro.detectors.guards import GuardedDetector, UnenforceableBudgetError
from repro.detectors.registry import (
    ALIASES,
    SAMPLER_NAMES,
    available_detectors,
    create_detector,
    is_detector,
)
from repro.runtime.faults import FAULT_KINDS
from repro.runtime.trace import Trace
from repro.runtime.vm import bare_replay, replay
from repro.workloads.base import default_suppression
from repro.workloads.embedded import embedded_scenarios, get_scenario
from repro.workloads.registry import get_workload, workload_names


def _all_runnable():
    "Benchmarks plus embedded scenarios (tables use benchmarks only)."
    return workload_names() + sorted(embedded_scenarios())


def _resolve(name: str):
    "Look a name up in either catalogue."
    if name in embedded_scenarios():
        return get_scenario(name)
    return get_workload(name)


def _detector_arg(name: str) -> str:
    "argparse type= validator accepting colon-composed sampler names."
    if not is_detector(name):
        raise argparse.ArgumentTypeError(
            f"unknown detector {name!r} (choose from "
            f"{', '.join(available_detectors())}; aliases "
            f"{', '.join(ALIASES)}; samplers "
            f"{'/'.join(SAMPLER_NAMES)} compose as 'sampler:inner')"
        )
    return name


#: Table number -> title; ``_cmd_table`` resolves ``tables.table<N>``.
TABLES = {
    "1": "Overall results (slowdown / memory / races)",
    "2": "Memory overhead breakdown (hash / VC / bitmap)",
    "3": "Maximum number of vector clocks",
    "4": "Same-epoch access percentages",
    "5": "State-machine configurations (ablation)",
    "6": "Comparison with DRD / Inspector stand-ins",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description="Dynamic-granularity data race detection "
        "(IPDPS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and detectors")

    run = sub.add_parser("run", help="run a detector on a workload")
    run.add_argument("--workload", "-w", required=True, choices=_all_runnable())
    run.add_argument(
        "--detector", "-d", default="dynamic", type=_detector_arg
    )
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--no-suppress",
        action="store_true",
        help="report races from modeled system libraries too",
    )
    run.add_argument("--max-races", type=int, default=20)
    run.add_argument(
        "--shadow-budget",
        type=int,
        help="cap live shadow clock groups; the detector degrades "
        "precision instead of growing past the cap",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        help="run as a crash-consistent session, checkpointing detector "
        "state every N events (see docs/ALGORITHM.md §10)",
    )
    run.add_argument(
        "--checkpoint-dir",
        help="checkpoint directory (default: "
        ".repro-race/checkpoints/<workload>-<detector>)",
    )
    run.add_argument(
        "--resume-from",
        help="resume from a checkpoint: a path, or 'latest' for the "
        "newest good one in the checkpoint directory",
    )

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=sorted(TABLES))
    table.add_argument("--scale", type=float, default=1.0)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument(
        "--workloads",
        help="comma-separated subset (default: all 11 benchmarks)",
    )

    record = sub.add_parser("record", help="schedule a workload to a trace file")
    record.add_argument("--workload", "-w", required=True, choices=_all_runnable())
    record.add_argument("--scale", type=float, default=1.0)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--out", "-o", required=True)

    stats = sub.add_parser(
        "stats", help="access-pattern statistics of a workload trace"
    )
    stats.add_argument("--workload", "-w", required=True, choices=_all_runnable())
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--seed", type=int, default=0)

    fuzz = sub.add_parser(
        "fuzz", help="explore schedules: how often do races manifest?"
    )
    fuzz.add_argument("--workload", "-w", required=True, choices=_all_runnable())
    fuzz.add_argument(
        "--detector", "-d", default="fasttrack-byte",
        type=_detector_arg,
    )
    fuzz.add_argument("--trials", type=int, default=30)
    fuzz.add_argument("--scale", type=float, default=0.3)
    fuzz.add_argument(
        "--faults",
        action="store_true",
        help="arm a deterministic per-seed fault plan "
        "(thread kills, acquire/malloc failures)",
    )
    fuzz.add_argument(
        "--fault-kinds",
        help="comma-separated subset of: " + ",".join(FAULT_KINDS),
    )
    fuzz.add_argument(
        "--max-events", type=int, help="event budget per trial"
    )
    fuzz.add_argument(
        "--trial-timeout",
        type=float,
        help="wall-clock budget per trial in seconds (SIGALRM)",
    )
    fuzz.add_argument(
        "--shadow-budget",
        type=int,
        help="cap live shadow clock groups per trial",
    )
    fuzz.add_argument(
        "--quarantine-dir",
        help="quarantine detector-crashing traces here "
        f"(e.g. {DEFAULT_QUARANTINE_DIR})",
    )
    fuzz.add_argument(
        "--checkpoint", help="JSON campaign checkpoint, updated per trial"
    )
    fuzz.add_argument(
        "--resume",
        action="store_true",
        help="skip seeds the checkpoint already completed",
    )
    fuzz.add_argument(
        "--detector-checkpoints",
        type=int,
        help="exercise crash/resume per trial: replay each clean trial "
        "through a checkpointed session (every N events) with injected "
        "detector kills and supervised resume; exits 1 on any "
        "race-report divergence",
    )
    fuzz.add_argument(
        "--recovery-dir",
        help="keep per-seed session checkpoints here instead of a "
        "temp dir (postmortem)",
    )

    quar = sub.add_parser(
        "quarantine", help="inspect and shrink crash-quarantined traces"
    )
    quar.add_argument("action", choices=("list", "shrink"))
    quar.add_argument(
        "entry", nargs="?", help="entry id (required for shrink)"
    )
    quar.add_argument(
        "--dir",
        default=DEFAULT_QUARANTINE_DIR,
        help=f"quarantine directory (default: {DEFAULT_QUARANTINE_DIR})",
    )
    quar.add_argument("--max-evals", type=int, default=500)
    quar.add_argument(
        "--detector",
        "-d",
        type=_detector_arg,
        help="override the detector recorded in the entry metadata",
    )

    comp = sub.add_parser(
        "compare", help="agreement study: several detectors, one trace"
    )
    comp.add_argument("--workload", "-w", required=True, choices=_all_runnable())
    comp.add_argument(
        "--detectors",
        "-d",
        default="fasttrack-byte,dynamic,drd,inspector",
        help="comma-separated detector names",
    )
    comp.add_argument("--scale", type=float, default=1.0)
    comp.add_argument("--seed", type=int, default=0)

    hb = sub.add_parser(
        "hbgraph", help="export a trace's happens-before graph as DOT"
    )
    hb.add_argument("trace")
    hb.add_argument("--out", "-o", help="output .dot path (default stdout)")

    rep = sub.add_parser("replay", help="replay a recorded trace")
    rep.add_argument("trace")
    rep.add_argument(
        "--detector", "-d", default="dynamic", type=_detector_arg
    )
    rep.add_argument("--max-races", type=int, default=20)

    shrink = sub.add_parser(
        "shrink",
        help="delta-debug a racy workload/trace to a minimal reproducer",
    )
    src = shrink.add_mutually_exclusive_group(required=True)
    src.add_argument("--workload", "-w", choices=_all_runnable())
    src.add_argument("--trace", help="a recorded .npz trace instead")
    shrink.add_argument(
        "--detector", "-d", default="fasttrack-byte",
        type=_detector_arg,
        help="detector whose races must keep manifesting",
    )
    shrink.add_argument("--scale", type=float, default=0.3)
    shrink.add_argument("--seed", type=int, default=1)
    shrink.add_argument(
        "--addr",
        action="append",
        help="racy address to preserve (hex ok; repeatable; "
        "default: every racy address)",
    )
    shrink.add_argument("--max-evals", type=int, default=5000)
    shrink.add_argument("--out", "-o", help="save the minimized trace here")

    conform = sub.add_parser(
        "conform",
        help="differential oracle: dynamic granularity vs byte FastTrack",
    )
    conform.add_argument("--workload", "-w", required=True,
                         choices=_all_runnable())
    conform.add_argument(
        "--seeds", type=int, default=3, help="check schedules 0..N-1"
    )
    conform.add_argument("--scale", type=float, default=0.3)

    golden = sub.add_parser(
        "golden", help="manage the golden-trace regression corpus"
    )
    golden.add_argument("action", choices=("regen", "verify"))
    golden.add_argument(
        "--dir", help="corpus directory (default: tests/golden)"
    )

    sampling = sub.add_parser(
        "sampling",
        help="sampling recall grid: every sampling policy x rate x inner "
        "detector over the golden corpus; fails when a rate-1.0 cell "
        "differs from the bare inner or a mean recall is below the floor",
    )
    sampling.add_argument(
        "--out", "-o", default="BENCH_sampling.json",
        help="result JSON path (default: BENCH_sampling.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant detection daemon "
        "(see docs/ALGORITHM.md §13)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address; anything but loopback requires --keys",
    )
    serve.add_argument(
        "--port", type=int, default=7432, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--checkpoint-root",
        default=".repro-race/server-ckpts",
        help="per-tenant checkpoint directories live under here",
    )
    serve.add_argument(
        "--detector",
        default="fasttrack-byte",
        type=_detector_arg,
        help="default detector for sessions that don't name one",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=2000,
        help="checkpoint cadence in events per tenant",
    )
    serve.add_argument(
        "--shadow-budget", type=int,
        help="default per-tenant shadow-clock budget (GuardedDetector)",
    )
    serve.add_argument(
        "--high-watermark", type=int, default=1 << 20,
        help="pause a tenant's socket above this many queued bytes",
    )
    serve.add_argument(
        "--low-watermark", type=int, default=1 << 18,
        help="resume reading below this many queued bytes",
    )
    serve.add_argument(
        "--shed-after", type=float, default=5.0,
        help="shed (typed OVERLOADED) a tenant paused this long",
    )
    serve.add_argument(
        "--watchdog-timeout", type=float, default=10.0,
        help="kill + migrate a dispatch slice wedged this long",
    )
    serve.add_argument(
        "--idle-timeout", type=float,
        help="shed mid-stream clients silent this long (default: never)",
    )
    serve.add_argument(
        "--peer",
        help="HOST:PORT of a peer daemon; SIGTERM drain live-migrates "
        "tenants there instead of parking them locally",
    )
    serve.add_argument(
        "--keys",
        help="enable HMAC wire auth: inline JSON tenant→key map "
        '(e.g. \'{"*": "<hex>"}\'; "*" is the fleet default) or @FILE',
    )
    serve.add_argument(
        "--keep-checkpoints", type=int, default=3,
        help="checkpoint generations kept per tenant; older ones are "
        "GC'd after each commit (min 2)",
    )
    serve.add_argument(
        "--migrate-timeout", type=float, default=15.0,
        help="deadline for one cross-host migration round trip",
    )

    mig = sub.add_parser(
        "migrate",
        help="live-migrate one tenant session to a peer daemon",
    )
    mig.add_argument(
        "address", help="HOST:PORT of the daemon currently holding the tenant"
    )
    mig.add_argument("tenant")
    mig.add_argument(
        "--peer",
        help="HOST:PORT destination (default: the source daemon's "
        "configured --peer; required when --key is given)",
    )
    mig.add_argument(
        "--key",
        help="tenant auth key authorizing the export on a keyed daemon",
    )
    mig.add_argument("--timeout", type=float, default=30.0)

    lg = sub.add_parser(
        "loadgen",
        help="multi-tenant load + fault campaign against the daemon; "
        "writes BENCH_server.json and fails on any recovery divergence "
        "or recovery failure",
    )
    lg.add_argument(
        "--connect",
        help="HOST:PORT of a running daemon (default: in-process server)",
    )
    lg.add_argument("--tenants", type=int, default=4)
    lg.add_argument(
        "--workload", "-w", default="pbzip2", choices=_all_runnable()
    )
    lg.add_argument("--scale", type=float, default=0.3)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--detector", "-d", default="fasttrack")
    lg.add_argument("--batch-events", type=int, default=2048)
    lg.add_argument(
        "--no-faults",
        action="store_true",
        help="clean throughput run: skip the fault campaign",
    )
    lg.add_argument(
        "--quick", action="store_true", help="CI smoke scale"
    )
    lg.add_argument(
        "--out", "-o", default="BENCH_server.json",
        help="result JSON path (default: BENCH_server.json)",
    )
    lg.add_argument(
        "--soak", type=float, metavar="SECONDS",
        help="chaos soak: run tenants for SECONDS against an "
        "authenticated daemon pair while a controller live-migrates, "
        "hard-kills and drain-evacuates them (ignores --connect)",
    )
    lg.add_argument(
        "--chaos-interval", type=float,
        help="seconds between soak chaos actions (default: SECONDS/12)",
    )

    return parser


def _cmd_list() -> int:
    print("paper benchmarks:")
    for name in workload_names():
        w = get_workload(name)
        print(f"  {name:14s} {w.threads:2d} threads  {w.description}")
    print("embedded scenarios:")
    for name in sorted(embedded_scenarios()):
        w = get_scenario(name)
        print(f"  {name:14s} {w.threads:2d} threads  {w.description}")
    print("detectors:")
    for name in available_detectors():
        print(f"  {name}")
    return 0


def _budget_refused(args) -> bool:
    "Report a ``--shadow-budget`` that the guard cannot enforce on ``-d``."
    if args.shadow_budget is None:
        return False
    try:
        GuardedDetector(create_detector(args.detector), args.shadow_budget)
    except UnenforceableBudgetError as err:
        print(f"cannot run: {err}")
        return True
    return False


def _cmd_run(args) -> int:
    from repro.analysis.metrics import measurement_of
    from repro.analysis.report import format_races, summarize_races

    if _budget_refused(args):
        return 2
    workload = _resolve(args.workload)
    trace = workload.trace(scale=args.scale, seed=args.seed)
    print(
        f"workload {workload.name}: {len(trace)} events, "
        f"{trace.n_threads} threads, {trace.shared_accesses} shared accesses"
    )
    if args.checkpoint_every is not None or args.resume_from is not None:
        return _run_session(args, workload, trace)
    suppress = None if args.no_suppress else default_suppression
    det = create_detector(args.detector, suppress=suppress)
    if args.shadow_budget is not None:
        det = GuardedDetector(det, shadow_budget=args.shadow_budget)
    # One replay gives the races and the timing and memory line alike.
    result = replay(trace, det)
    m = measurement_of(trace, args.detector, result)
    print(
        f"{args.detector}: slowdown {m.slowdown:.2f}x, "
        f"memory overhead {m.memory_overhead:.2f}x"
    )
    if args.shadow_budget is not None:
        guard = det.statistics()["guard"]
        print(
            f"shadow budget {args.shadow_budget}: "
            f"peak {guard['peak_live_clocks']} live clocks, "
            f"{guard['degradations']} degradation(s), "
            f"{guard['forced_merges']} forced merge(s), "
            f"{guard['evicted_groups']} eviction(s)"
        )
    print(format_races(result.races, limit=args.max_races))
    summary = summarize_races(result.races)
    print(f"summary: {summary}")
    return 0


def _run_session(args, workload, trace) -> int:
    """A crash-consistent ``run``: checkpointed replay, optional resume.

    A single attempt (no supervisor): an interrupted invocation is
    simply rerun with ``--resume-from latest``, which is the manual
    workflow the checkpoints exist for.
    """
    import os

    from repro.analysis.report import format_races, summarize_races
    from repro.recovery import CheckpointError, DetectionSession

    suppress = None if args.no_suppress else default_suppression
    ckpt_dir = args.checkpoint_dir or os.path.join(
        ".repro-race", "checkpoints", f"{workload.name}-{args.detector}"
    )
    session = DetectionSession(
        trace,
        args.detector,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=args.checkpoint_every or 5000,
        suppress=suppress,
        shadow_budget=args.shadow_budget,
    )
    try:
        result = session.run(resume=args.resume_from)
    except CheckpointError as err:
        print(f"cannot resume: {err}")
        return 1
    rec = result.stats["recovery"]
    resumed = (
        f"resumed from event {rec['last_resume_event']}"
        if rec["resumes"]
        else "started fresh"
    )
    print(
        f"session: {resumed}, {rec['checkpoints_written']} checkpoint(s) "
        f"written to {ckpt_dir}"
    )
    print(format_races(result.races, limit=args.max_races))
    summary = summarize_races(result.races)
    print(f"summary: {summary}")
    return 0


def _cmd_table(args) -> int:
    from repro.analysis import tables

    fn = getattr(tables, f"table{args.number}")
    workloads = args.workloads.split(",") if args.workloads else None
    rows = fn(scale=args.scale, seed=args.seed, workloads=workloads)
    title = f"Table {args.number}: {TABLES[args.number]}"
    print(tables.format_table(rows, title))
    return 0


def _cmd_record(args) -> int:
    trace = _resolve(args.workload).trace(scale=args.scale, seed=args.seed)
    trace.save(args.out)
    print(f"saved {len(trace)} events to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    from repro.analysis.tracestats import compute_stats, format_stats

    trace = _resolve(args.workload).trace(scale=args.scale, seed=args.seed)
    print(format_stats(compute_stats(trace), args.workload))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.analysis.fuzz import format_fuzz_result, fuzz_schedules
    from repro.runtime.faults import DEFAULT_KINDS

    if _budget_refused(args):
        return 2
    workload = _resolve(args.workload)

    def factory():
        return workload.build(scale=args.scale, seed=0)

    if args.fault_kinds:
        kinds = tuple(
            k.strip() for k in args.fault_kinds.split(",") if k.strip()
        )
        bad = [k for k in kinds if k not in FAULT_KINDS]
        if bad:
            print(f"unknown fault kind(s): {', '.join(bad)} "
                  f"(choose from {', '.join(FAULT_KINDS)})")
            return 2
    else:
        kinds = DEFAULT_KINDS

    result = fuzz_schedules(
        factory,
        detector=args.detector,
        trials=args.trials,
        max_events=args.max_events,
        trial_timeout=args.trial_timeout,
        faults=args.faults,
        fault_kinds=kinds,
        shadow_budget=args.shadow_budget,
        quarantine_dir=args.quarantine_dir,
        checkpoint=args.checkpoint,
        resume=args.resume,
        detector_checkpoints=args.detector_checkpoints,
        recovery_dir=args.recovery_dir,
    )
    print(format_fuzz_result(result))
    if result.recovery_divergences:
        print(
            f"FAIL: {result.recovery_divergences} killed-and-resumed "
            "session(s) diverged from the straight run"
        )
        return 1
    return 0


def _cmd_quarantine(args) -> int:
    from repro.analysis.quarantine import QuarantineStore, format_entries

    store = QuarantineStore(args.dir)
    if args.action == "list":
        print(format_entries(store.entries()))
        return 0
    if not args.entry:
        print("quarantine shrink needs an entry id (see `quarantine list`)")
        return 2
    try:
        make = (
            (lambda: create_detector(args.detector))
            if args.detector
            else None
        )
        result = store.shrink(
            args.entry, make_detector=make, max_evals=args.max_evals
        )
    except KeyError as err:
        print(err.args[0])
        return 1
    print(result.format())
    meta = store.meta(args.entry)
    print(f"saved crashing reproducer: {meta['shrunk']['trace']}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.compare import compare_detectors, format_comparison

    names = [n.strip() for n in args.detectors.split(",") if n.strip()]
    for name in names:
        if not is_detector(name):
            print(f"unknown detector {name!r}")
            return 2
    trace = _resolve(args.workload).trace(scale=args.scale, seed=args.seed)
    print(format_comparison(compare_detectors(trace, names)))
    return 0


def _cmd_hbgraph(args) -> int:
    from repro.analysis.hbgraph import build_hb_graph, to_dot

    trace = Trace.load(args.trace)
    dot = to_dot(build_hb_graph(trace), trace)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.out} ({trace.name}, {len(trace)} events)")
    else:
        print(dot)
    return 0


def _cmd_replay(args) -> int:
    from repro.analysis.report import format_races

    trace = Trace.load(args.trace)
    base = bare_replay(trace)
    det = create_detector(args.detector, suppress=default_suppression)
    result = replay(trace, det)
    print(
        f"{args.detector} on {trace.name}: {result.events} events, "
        f"slowdown {result.wall_time / base:.2f}x"
    )
    print(format_races(result.races, limit=args.max_races))
    return 0


def _is_int_literal(text: str) -> bool:
    try:
        int(text, 0)
        return True
    except ValueError:
        return False


def _cmd_shrink(args) -> int:
    from repro.testing.shrink import racy_at, shrink_trace

    if args.trace:
        trace = Trace.load(args.trace)
    else:
        trace = _resolve(args.workload).trace(scale=args.scale, seed=args.seed)
    det = create_detector(args.detector, suppress=default_suppression)
    racy = sorted({r.addr for r in replay(trace, det).races})
    if args.addr:
        try:
            target = [int(a, 0) for a in args.addr]
        except ValueError:
            bad = [a for a in args.addr if not _is_int_literal(a)]
            print(f"bad --addr value(s): {', '.join(bad)} "
                  "(expected hex like 0x1000 or decimal)")
            return 2
        missing = [a for a in target if a not in racy]
        if missing:
            print(
                f"{args.detector} reports no race at "
                f"{', '.join(hex(a) for a in missing)}"
            )
            return 1
    else:
        target = racy
    if not target:
        print(f"{args.detector} found no races on {trace.name}; "
              "nothing to shrink")
        return 1
    result = shrink_trace(
        trace,
        racy_at(target, detector=args.detector),
        max_evals=args.max_evals,
    )
    print(result.format())
    print(
        f"preserved racy address(es): {', '.join(hex(a) for a in target)}"
    )
    if args.out:
        result.minimized.save(args.out)
        print(f"saved {len(result.minimized)} events to {args.out}")
    return 0


def _cmd_conform(args) -> int:
    from repro.testing.oracle import differential_check

    workload = _resolve(args.workload)
    unexplained = 0
    for seed in range(args.seeds):
        trace = workload.trace(scale=args.scale, seed=seed)
        report = differential_check(trace)
        print(f"seed {seed}:")
        print("  " + report.format().replace("\n", "\n  "))
        unexplained += len(report.unexplained)
    if unexplained:
        print(f"FAIL: {unexplained} unexplained divergence(s)")
        return 1
    print(f"OK: {args.seeds} schedule(s), every divergence explained")
    return 0


def _cmd_golden(args) -> int:
    from repro.testing import golden

    corpus_dir = args.dir or golden.default_corpus_dir()
    if args.action == "regen":
        manifest = golden.regenerate(corpus_dir)
        for name, record in sorted(manifest.items()):
            races = {d: len(a) for d, a in record["races"].items()}
            print(f"  {name:22s} {record['events']:6d} events, races {races}")
        print(f"regenerated {len(manifest)} entries in {corpus_dir}")
        return 0
    problems = golden.verify(corpus_dir)
    if problems:
        for p in problems:
            print(f"  {p}")
        print(f"FAIL: {len(problems)} problem(s) in {corpus_dir}")
        return 1
    print(f"OK: golden corpus in {corpus_dir} verified")
    return 0


def _cmd_sampling(args) -> int:
    from repro.perf.sampling import (
        format_report,
        sampling_report,
        write_report,
    )

    report = sampling_report()
    write_report(report, args.out)
    print(format_report(report))
    print(f"wrote {args.out}")
    failed = False
    if not report["identity"]["ok"]:
        print("FAIL: rate-1.0 sampling cells diverged from the bare inner")
        failed = True
    if not report["recall_floor"]["ok"]:
        print("FAIL: a sampling mean recall is below the floor")
        failed = True
    return 1 if failed else 0


def _parse_hostport(text: str, flag: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad {flag} value {text!r} (want HOST:PORT)")
    return (host, int(port))


def _parse_keys(spec: str):
    """--keys: inline JSON tenant→key map, or @FILE holding one."""
    import json as _json

    text = spec
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            text = fh.read()
    try:
        keys = _json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"bad --keys value: {exc}")
    if not isinstance(keys, dict) or not keys:
        raise SystemExit("--keys must be a non-empty JSON object")
    return keys


def _is_loopback(host: str) -> bool:
    import ipaddress

    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.server.daemon import RaceServer, ServerConfig

    if not args.keys and not _is_loopback(args.host):
        # An unkeyed daemon accepts MIGRATE_IMPORT from any client, and
        # restoring an imported checkpoint can unpickle the sender's
        # bytes (docs/ALGORITHM.md §15.2).
        print(
            f"repro-race serve: refusing --host {args.host} without "
            f"--keys: only a loopback address may serve unauthenticated",
            file=sys.stderr,
        )
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        checkpoint_root=args.checkpoint_root,
        detector=args.detector,
        checkpoint_every=args.checkpoint_every,
        shadow_budget=args.shadow_budget,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        shed_after=args.shed_after,
        watchdog_timeout=args.watchdog_timeout,
        idle_timeout=args.idle_timeout,
        peer=_parse_hostport(args.peer, "--peer") if args.peer else None,
        auth_keys=_parse_keys(args.keys) if args.keys else None,
        keep_checkpoints=args.keep_checkpoints,
        migrate_timeout=args.migrate_timeout,
    )
    server = RaceServer(config)

    async def _run() -> None:
        await server.start()
        extras = []
        if config.auth_keys:
            extras.append("auth required")
        if config.peer:
            extras.append(f"peer {config.peer[0]}:{config.peer[1]}")
        print(
            f"repro-race serve: listening on {config.host}:{server.port} "
            f"(default detector {config.detector}, "
            f"checkpoints under {config.checkpoint_root}"
            + ("".join(", " + e for e in extras))
            + ")",
            flush=True,  # scripts wait for this line on a pipe or file
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("repro-race serve: draining...")
        await server.shutdown()
        print(
            f"repro-race serve: drained "
            f"{server.stats['drained_tenants']} live tenant(s), "
            f"evacuated {server.stats['evacuations']} to the peer, bye"
        )

    asyncio.run(_run())
    return 0


def _cmd_loadgen(args) -> int:
    from repro.server.loadgen import (
        format_loadgen,
        format_soak,
        run_loadgen,
        run_soak,
    )

    if args.soak is not None:
        body = run_soak(
            seconds=args.soak,
            tenants=args.tenants,
            workload=args.workload,
            scale=args.scale,
            seed=args.seed,
            detector=args.detector,
            batch_events=args.batch_events,
            quick=args.quick,
            chaos_interval=args.chaos_interval,
            out=args.out,
        )
        print(format_soak(body))
    else:
        address = None
        if args.connect:
            address = _parse_hostport(args.connect, "--connect")
        body = run_loadgen(
            address,
            tenants=args.tenants,
            workload=args.workload,
            scale=args.scale,
            seed=args.seed,
            detector=args.detector,
            batch_events=args.batch_events,
            faults=not args.no_faults,
            quick=args.quick,
            out=args.out,
        )
        print(format_loadgen(body))
    print(f"wrote {args.out}")

    failed = False
    if body["recovery_divergences"]:
        print(
            f"FAIL: {body['recovery_divergences']} session(s) "
            "diverged from their uninterrupted twin"
        )
        failed = True
    errors = body.get("soak", {}).get("tenant_error_count", 0)
    if errors:
        print(f"FAIL: {errors} tenant cycle(s) errored during the soak")
        failed = True
    recovery_failures = body["server"].get("recovery_failures", 0)
    if recovery_failures:
        print(
            f"FAIL: the daemon gave up on {recovery_failures} session(s) "
            "(recovery_failures)"
        )
        failed = True
    return 1 if failed else 0


def _cmd_migrate(args) -> int:
    from repro.server.client import migrate_tenant
    from repro.server.protocol import ServerError

    address = _parse_hostport(args.address, "address")
    peer = _parse_hostport(args.peer, "--peer") if args.peer else None
    try:
        ack = migrate_tenant(
            address,
            args.tenant,
            peer=peer,
            key=args.key,
            timeout=args.timeout,
        )
    except (ServerError, ValueError, OSError, TimeoutError) as exc:
        print(f"migrate failed: {exc}")
        return 1
    print(
        f"migrated {args.tenant!r}: {ack.get('events_done')} events, "
        f"{ack.get('races_sent')} race(s) already reported"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-race`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "quarantine":
        return _cmd_quarantine(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "hbgraph":
        return _cmd_hbgraph(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "shrink":
        return _cmd_shrink(args)
    if args.command == "conform":
        return _cmd_conform(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "sampling":
        return _cmd_sampling(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "migrate":
        return _cmd_migrate(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
