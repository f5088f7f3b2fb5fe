"""Benchmark of the race-detection pipeline: offline analysis and
streamed service ingest, with an output check in every run.

    python3 perfbench/run.py --workload offline-sweep --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` also records spans around every call
into the program and prints the per-layer metrics instead.  The last
line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: end-to-end metric -> unit (reported with ``--trace 0``).  Every
#: timing is a slowdown against a benchmark-owned reference loop timed
#: next to it (see README.md), because absolute seconds on a shared
#: machine drift by more than a regression bound between runs.
END_TO_END = {
    "setup_s": "s",
    "slowdown": "x",
    "slowdown_unbatched": "x",
    "slowdown_word": "x",
    "shadow_peak_bytes": "bytes",
    "rss_peak_bytes": "bytes",
    "ingest_slowdown": "x",
    "ack_p50_slowdown": "x",
    "ack_p95_slowdown": "x",
}

#: the same measurements in absolute units, printed with every run and
#: reported as per-layer metrics with ``--trace 1``
ABSOLUTE = {
    "abs.analyze_s": "s",
    "abs.analyze_unbatched_s": "s",
    "abs.analyze_word_s": "s",
    "abs.ref_ns_per_event": "ns",
    "abs.ingest_events_per_s": "1/s",
    "abs.ack_p50_ms": "ms",
    "abs.ack_p95_ms": "ms",
    "abs.bare_events_per_s": "1/s",
}

_DETECTOR_KINDS = ("read", "write", "read_batch", "write_batch", "sync", "heap", "finish")

#: per-layer metric -> unit (reported with ``--trace 1``)
PER_LAYER = {
    "workloads.build_s": "s",
    "runtime.schedule_s": "s",
    "runtime.events": "count",
    "batch.coalesce_s": "s",
    "batch.feed_items": "count",
    "batch.compression_pct": "%",
    "vm.dispatch_self_s": "s",
    "vm.dispatched": "count",
    **{f"detector.{k}_s": "s" for k in _DETECTOR_KINDS},
    **{f"detector.{k}_calls": "count" for k in _DETECTOR_KINDS},
    "core.same_epoch_hits": "count",
    "core.fast_path_ratio": "ratio",
    "core.groups_created": "count",
    "core.merges": "count",
    "core.splits": "count",
    "shadow.locations": "count",
    "shadow.hash_peak_bytes": "bytes",
    "shadow.bitmap_peak_bytes": "bytes",
    "clocks.max_vectors": "count",
    "clocks.vc_peak_bytes": "bytes",
    "recovery.checkpoint_s": "s",
    "recovery.checkpoints": "count",
    "recovery.checkpoint_bytes": "bytes",
    "protocol.encode_s": "s",
    "protocol.seal_s": "s",
    "protocol.unseal_s": "s",
    "protocol.decode_s": "s",
    "protocol.wire_bytes": "bytes",
    "tenant.dispatch_s": "s",
    "tenant.commit_s": "s",
    "tenant.finish_s": "s",
    "daemon.ack_p50_ms": "ms",
    "daemon.inproc_batch_ms": "ms",
    "daemon.overhead_ms": "ms",
    "daemon.sheds": "count",
    "daemon.retries": "count",
    "client.reconnects": "count",
    "client.ack_samples": "count",
    "trace.overhead_pct": "%",
    "trace.service_overhead_pct": "%",
    **ABSOLUTE,
}


@dataclass(frozen=True)
class WorkloadSpec:
    #: "offline" or "service": the path whose set-up, shadow memory and
    #: peak RSS the workload reports
    primary: str
    offline: Tuple[str, float]  # (workload, scale) analyzed offline
    service: Tuple[str, float]  # (workload, scale) of each streamed session
    offline_share: float  # share of the measuring time spent offline


WORKLOADS: Dict[str, WorkloadSpec] = {
    "offline-sweep": WorkloadSpec("offline", ("pbzip2", 1.5), ("pbzip2", 0.5), 0.7),
    "offline-scatter": WorkloadSpec("offline", ("canneal", 4.0), ("canneal", 2.0), 0.7),
    "service-stream": WorkloadSpec("service", ("streamcluster", 4.0), ("streamcluster", 1.0), 0.4),
}
SETUP_PROBES = 7
MIN_ROUNDS = 6
OFFLINE_TRACES = 5
TRACED_ROUNDS = 3
TRACES_PER_TENANT = 4
#: the whole run must end well inside the 180 s a run is given
ALARM_S = 170


O = S = Tracer = None  # the benchmark modules, imported by main()


def _import_bench() -> None:
    """Import the modules that need the program on ``sys.path``."""
    global O, S, Tracer
    import offline
    import service
    from spans import Tracer as _Tracer

    O, S, Tracer = offline, service, _Tracer


class Interrupted(BaseException):
    pass


def _interrupt(signum, _frame):
    raise Interrupted(f"signal {signum}")


def derived_seed(seed: int, *salt) -> int:
    return random.Random(":".join(map(str, (seed,) + salt))).randrange(1 << 31)


def offline_seeds(seed: int) -> List[int]:
    """The benchmark seed itself, then derived ones."""
    return [seed] + [derived_seed(seed, "offline", k) for k in range(1, OFFLINE_TRACES)]


def measure(spec: WorkloadSpec, seed: int, seconds: float, workdir: str):
    """Interleave set-up probes, offline rounds and service slices over
    ``seconds``, so that every metric samples the whole run."""
    cpu = S.pin_cpu()
    keys = S.tenant_keys(seed)
    svc_wl, svc_scale = spec.service
    svc_traces = {
        t: [O.build_trace(svc_wl, svc_scale, derived_seed(seed, t, k)).events
            for k in range(TRACES_PER_TENANT)]
        for t in S.TENANTS
    }
    off_wl, off_scale = spec.offline
    off_traces = [O.build_trace(off_wl, off_scale, s).events
                  for s in offline_seeds(seed)]
    events = off_traces[0]
    off = O.OfflineRun(off_traces)
    daemon = S.Daemon(ROOT, os.path.join(workdir, "daemon"), keys, cpu)
    daemon.start()
    bare = S.echo_server(workdir, cpu)
    svc = S.ServiceRun(daemon, bare.start(), svc_traces)

    setup_times: List[float] = []
    setup_checks = [0, []]  # attempted, failures

    def probe() -> None:
        if spec.primary == "offline":
            # the set-up of an offline run: building all of its traces
            took = 0.0
            for s, want in zip(offline_seeds(seed), off_traces):
                t, trace = O.setup_probe(off_wl, off_scale, s)
                took += t
                setup_checks[0] += 1
                if trace.events != want:
                    setup_checks[1].append("Workload.trace is not deterministic")
        else:
            took = S.setup_probe(ROOT, os.path.join(workdir, f"probe-{len(setup_times)}"),
                                 keys, cpu)
        setup_times.append(took)

    spent = {"offline": 0.0, "service": 0.0}
    share = {"offline": spec.offline_share, "service": 1 - spec.offline_share}
    step = {"offline": off.round, "service": svc.slice}
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        if len(setup_times) < SETUP_PROBES and now >= len(setup_times) * seconds / SETUP_PROBES:
            probe()
            continue
        if (now >= seconds and off.rounds >= MIN_ROUNDS
                and len(svc.latencies()) >= S.MIN_ACK_SAMPLES
                and len(setup_times) == SETUP_PROBES):
            break
        if len(svc.latencies()) < S.MIN_ACK_SAMPLES and now >= seconds:
            phase = "service"
        elif off.rounds < MIN_ROUNDS and now >= seconds:
            phase = "offline"
        else:
            phase = min(spent, key=lambda k: spent[k] / share[k])
        t0 = time.perf_counter()
        step[phase]()
        spent[phase] += time.perf_counter() - t0

    svc.daemon_stats()
    daemon.stop()
    bare.stop()
    off.check_word()
    svc.check()

    e2e = {"setup_s": O.median(setup_times)}
    e2e.update(off.metrics())
    if spec.primary == "offline":
        e2e["shadow_peak_bytes"] = off.shadow_peak()
        e2e["rss_peak_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    else:
        e2e["shadow_peak_bytes"] = svc.shadow_peak()
        e2e["rss_peak_bytes"] = svc.rss
    e2e.update(svc.metrics())
    counts = {
        "offline.events": sum(len(t) for t in off_traces),
        "offline.rounds": off.rounds,
        "service.sessions": len(svc.sessions),
        "service.events": svc.events(),
        "service.ack_samples": len(svc.latencies()),
        "setup.probes": len(setup_times),
    }
    return {
        "e2e": e2e,
        "counts": counts,
        "attempted": off.attempted + svc.attempted + setup_checks[0],
        "failures": off.failures + svc.failures + setup_checks[1],
        "events": events,
        "svc": svc,
        "off": off,
        "keys": keys,
        "svc_traces": svc_traces,
    }


def traced(spec: WorkloadSpec, seed: int, run: dict, workdir: str, spans_path: str):
    """The per-layer breakdown: the same calls again, under spans."""
    off_wl, off_scale = spec.offline
    events, svc, keys, off = run["events"], run["svc"], run["keys"], run["off"]
    # the untraced dynamic batched calls on the same trace
    untraced_slowdown = O.median(off.slowdowns["analyze"][::len(off.traces)])
    tracer = Tracer()
    if O.traced_setup(tracer, off_wl, off_scale, seed).events != events:
        run["failures"].append("traced set-up built a different trace")
    run["attempted"] += 1
    oc = O.traced_rounds(tracer, events, TRACED_ROUNDS)
    layers = O.offline_layers(tracer, TRACED_ROUNDS, oc, len(events),
                              untraced_slowdown, off.dynamic_stats[0])
    untraced = Tracer()
    refs = {"untraced": [], "traced": []}
    for t in S.TENANTS:
        trace0 = run["svc_traces"][t][0]
        want = S.local_result(trace0)
        for label, tr, on in (("untraced", untraced, False), ("traced", tracer, True)):
            refs[label] += [O.reference_loop(trace0), O.reference_loop(trace0)]
            got = S.inprocess_feed(tr, t, keys[t], trace0,
                                   os.path.join(workdir, f"inproc-{label}-{t}"), on)
            refs[label] += [O.reference_loop(trace0), O.reference_loop(trace0)]
            run["attempted"] += 1
            if got != want:
                run["failures"].append(f"{t}: in-process {label} result differs from a local run")
    layers.update(S.service_layers(
        tracer, untraced, O.median(refs["untraced"]) / O.median(refs["traced"]),
        run["e2e"]["abs.ack_p50_ms"], svc.stats, svc.reconnects(),
        len(svc.latencies()),
    ))
    layers.update({k: run["e2e"][k] for k in ABSOLUTE})
    tracer.dump(spans_path)
    run["counts"]["trace.spans"] = len(tracer.spans)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where --trace 1 writes its spans "
                    "(default: .bench_build/perfbench/spans-WORKLOAD.json)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _import_bench()

    build = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    spans_path = args.spans or os.path.join(build, f"spans-{args.workload}.json")
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, _interrupt)
    signal.alarm(ALARM_S)
    spec = WORKLOADS[args.workload]
    try:
        run = measure(spec, args.seed, args.seconds, workdir)
        metrics = run["e2e"]
        if args.trace:
            metrics = traced(spec, args.seed, run, workdir, spans_path)
    except (Exception, Interrupted):  # noqa: BLE001 - reported, exit 1
        print(f"perfbench: {args.workload} failed", file=sys.stderr)
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        S.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    shown = units if args.trace else {**END_TO_END, **ABSOLUTE}
    for name, unit in shown.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    for name, value in run["counts"].items():
        print(f"{name:28s} {value:>16} count")
    failures = run["failures"]
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
