"""Schedule exploration: how often does a race actually manifest?

The paper's opening motivation — "a data race may only occur in a
particular execution of the program" — is directly measurable with a
deterministic scheduler: run many seeds, detect on each interleaving,
and report the manifestation statistics.  This is the practical
debugging loop behind ``repro-race fuzz``.

Long campaigns need supervision, which this module layers on top of the
basic loop:

* **per-trial budgets** — ``max_events`` caps each schedule's length
  and ``trial_timeout`` caps its wall-clock via ``SIGALRM``, so one
  pathological interleaving cannot stall the campaign;
* **fault injection** — ``faults=True`` arms a per-seed deterministic
  :class:`~repro.runtime.faults.FaultPlan` (thread kills, acquire and
  malloc failures), with bounded retry for runs an injected fault made
  unexecutable and a final fault-free attempt;
* **crash isolation** — every trial's detector runs inside a
  :class:`~repro.detectors.guards.GuardedDetector`; a detector crash is
  counted, its trace quarantined to disk and auto-shrunk to a minimal
  crashing reproducer, and the campaign continues;
* **checkpoint/resume** — the aggregate result (including which seeds
  completed) round-trips through JSON, so an interrupted campaign
  restarts where it stopped (``repro-race fuzz --resume``);
* **crash-consistency exercise** — ``detector_checkpoints=N`` replays
  every clean trial a second time through a checkpointed
  :class:`~repro.recovery.session.DetectionSession` with injected
  ``kill-detector-at-event`` faults and supervised resume, counting any
  race-report divergence (``repro-race fuzz --detector-checkpoints``).
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.detectors.guards import GuardedDetector
from repro.detectors.registry import create_detector
from repro.runtime.faults import DEFAULT_KINDS, KILL_DETECTOR, FaultPlan
from repro.runtime.memory import HeapError
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler, SchedulerError
from repro.runtime.sync import SyncError
from repro.runtime.vm import replay
from repro.workloads.base import default_suppression


class TrialTimeout(Exception):
    """A single fuzz trial exceeded its wall-clock budget."""


@contextmanager
def _time_limit(seconds: Optional[float]):
    """Raise :class:`TrialTimeout` in the block after ``seconds``.

    Uses ``SIGALRM``, so it only engages on the main thread of the main
    interpreter; elsewhere (or with no limit) it is a no-op — the event
    budget (``max_events``) is the portable backstop.
    """
    if (
        not seconds
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s")

    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


@dataclass
class FuzzResult:
    """Aggregate outcome of a schedule-exploration campaign."""

    trials: int
    racy_runs: int
    deadlocked_runs: int
    #: deadlocked runs that raced before blocking (subset of both
    #: ``racy_runs`` and ``deadlocked_runs``)
    racy_deadlocked_runs: int = 0
    #: trials whose detector crashed (the trace was quarantined if a
    #: quarantine directory was configured)
    crashed_runs: int = 0
    #: trials killed by the wall-clock budget
    timeout_runs: int = 0
    #: trials whose executed schedule carried at least one injected fault
    faulted_runs: int = 0
    #: extra scheduler attempts spent retrying fault-broken runs
    retried_runs: int = 0
    #: trials whose killed-and-resumed detection session finished with
    #: race reports byte-identical to the straight run
    recovered_runs: int = 0
    #: trials where the resumed session's reports diverged (an invariant
    #: violation — CI fails on any nonzero value)
    recovery_divergences: int = 0
    #: injected kill-detector-at-event faults that actually fired
    detector_kills: int = 0
    #: quarantine entry ids produced by this campaign
    quarantined: List[str] = field(default_factory=list)
    #: seeds whose trial ran to an outcome (drives ``--resume``)
    completed_seeds: List[int] = field(default_factory=list)
    #: racy byte address -> number of seeds it manifested under
    address_hits: Dict[int, int] = field(default_factory=dict)
    #: (site, prev_site) -> hits, for triage
    site_pair_hits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: first seed that exposed each address (for record/replay)
    first_seed: Dict[int, int] = field(default_factory=dict)

    @property
    def manifestation_rate(self) -> float:
        """Fraction of schedules under which at least one race fired.

        A deadlocked schedule still executed its prefix, and a race in
        that prefix manifested — so every trial counts in the
        denominator and racy-then-deadlocked runs count in the
        numerator.
        """
        return self.racy_runs / self.trials if self.trials else 0.0

    def flakiest_addresses(self, n: int = 5) -> List[Tuple[int, int]]:
        """Addresses that raced under the *fewest* schedules — the
        hardest bugs to reproduce, most worth recording."""
        return sorted(self.address_hits.items(), key=lambda kv: kv[1])[:n]

    # -- checkpoint serialization ---------------------------------------
    def to_json(self) -> str:
        """JSON checkpoint (int dict keys become strings, tuple keys
        become triples — both restored by :meth:`from_json`)."""
        return json.dumps(
            {
                "trials": self.trials,
                "racy_runs": self.racy_runs,
                "deadlocked_runs": self.deadlocked_runs,
                "racy_deadlocked_runs": self.racy_deadlocked_runs,
                "crashed_runs": self.crashed_runs,
                "timeout_runs": self.timeout_runs,
                "faulted_runs": self.faulted_runs,
                "retried_runs": self.retried_runs,
                "recovered_runs": self.recovered_runs,
                "recovery_divergences": self.recovery_divergences,
                "detector_kills": self.detector_kills,
                "quarantined": list(self.quarantined),
                "completed_seeds": list(self.completed_seeds),
                "address_hits": {
                    str(a): n for a, n in self.address_hits.items()
                },
                "site_pair_hits": [
                    [s, p, n] for (s, p), n in self.site_pair_hits.items()
                ],
                "first_seed": {str(a): s for a, s in self.first_seed.items()},
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FuzzResult":
        data = json.loads(text)
        return cls(
            trials=data["trials"],
            racy_runs=data["racy_runs"],
            deadlocked_runs=data["deadlocked_runs"],
            racy_deadlocked_runs=data.get("racy_deadlocked_runs", 0),
            crashed_runs=data.get("crashed_runs", 0),
            timeout_runs=data.get("timeout_runs", 0),
            faulted_runs=data.get("faulted_runs", 0),
            retried_runs=data.get("retried_runs", 0),
            recovered_runs=data.get("recovered_runs", 0),
            recovery_divergences=data.get("recovery_divergences", 0),
            detector_kills=data.get("detector_kills", 0),
            quarantined=list(data.get("quarantined", [])),
            completed_seeds=list(data.get("completed_seeds", [])),
            address_hits={
                int(a): n for a, n in data.get("address_hits", {}).items()
            },
            site_pair_hits={
                (s, p): n for s, p, n in data.get("site_pair_hits", [])
            },
            first_seed={
                int(a): s for a, s in data.get("first_seed", {}).items()
            },
        )

    def save(self, path: str) -> None:
        """Atomically write the checkpoint (write-then-rename, so an
        interrupt mid-save never corrupts an existing checkpoint)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "FuzzResult":
        with open(path) as fh:
            return cls.from_json(fh.read())


#: Salt decorrelating retry fault plans from the trial seed sequence.
_RETRY_SALT = 0x9E3779B1


def fuzz_schedules(
    program_factory: Callable[[], Program],
    detector: Union[str, Callable[[], object]] = "fasttrack-byte",
    trials: int = 50,
    seeds: Optional[Sequence[int]] = None,
    quantum: Tuple[int, int] = (1, 16),
    suppress_libraries: bool = True,
    policy: str = "random",
    depth: int = 3,
    max_events: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    faults: bool = False,
    fault_kinds: Sequence[str] = DEFAULT_KINDS,
    max_faults: int = 2,
    fault_retries: int = 2,
    shadow_budget: Optional[int] = None,
    quarantine_dir: Optional[str] = None,
    shrink_quarantined: bool = True,
    shrink_max_evals: int = 300,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    detector_checkpoints: Optional[int] = None,
    recovery_dir: Optional[str] = None,
) -> FuzzResult:
    """Run ``trials`` different interleavings of the program and
    aggregate which races manifested under which schedules.

    ``program_factory`` is called per trial (bodies are generators and
    cannot be rerun).  A small scheduling quantum maximizes observed
    interleavings; ``policy="pct"`` switches to Probabilistic
    Concurrency Testing priorities (better at surfacing rare orderings
    of known depth).  Deadlocking schedules are counted, not fatal —
    and a run that raced *before* deadlocking still counts as racy
    (its executed prefix is detected on).

    ``detector`` is a registry name or a zero-argument factory; either
    way each trial gets a fresh instance wrapped in a
    :class:`~repro.detectors.guards.GuardedDetector` (crash isolation,
    and the ``shadow_budget`` cap when given).  With ``faults=True``
    every trial arms a fault plan derived deterministically from its
    seed; a run an injected fault made unexecutable (``SyncError`` /
    ``HeapError`` / a deadlock that lost its partial trace) is retried
    up to ``fault_retries`` times with a re-salted plan, then once
    fault-free.  ``checkpoint`` names a JSON file updated after every
    trial; with ``resume=True`` an existing checkpoint's completed
    seeds are skipped instead of rerun.

    ``detector_checkpoints`` (an event interval) additionally exercises
    the crash/resume path on every non-crashing trial: the same trace
    is replayed a second time through a supervised
    :class:`~repro.recovery.session.DetectionSession` with seeded
    ``kill-detector-at-event`` faults, and its resumed race reports are
    compared against the straight run.  Any mismatch is counted in
    ``recovery_divergences`` — an invariant violation, never expected.
    Checkpoints land in a temp dir unless ``recovery_dir`` is given
    (then ``recovery_dir/seed-N``, kept for postmortem).
    """
    seed_list = list(seeds) if seeds is not None else list(range(trials))
    suppress = default_suppression if suppress_libraries else None

    if callable(detector):
        base_factory = detector
        detector_label = getattr(detector, "__name__", repr(detector))
    else:
        detector_label = detector
        base_factory = lambda: create_detector(  # noqa: E731
            detector, suppress=suppress
        )

    result = FuzzResult(trials=0, racy_runs=0, deadlocked_runs=0)
    if resume and checkpoint and os.path.exists(checkpoint):
        result = FuzzResult.load(checkpoint)
    done = set(result.completed_seeds)

    store = None
    if quarantine_dir is not None:
        from repro.analysis.quarantine import QuarantineStore

        store = QuarantineStore(quarantine_dir)

    def exercise_recovery(trace, seed, straight_races) -> None:
        """Replay the trial again through a supervised killed-and-resumed
        session; a report mismatch versus the straight run falsifies the
        crash-consistency invariant and is counted as a divergence."""
        from repro.recovery.session import (
            DetectionSession,
            Supervisor,
            SupervisorError,
        )

        kills = FaultPlan.generate(
            seed ^ _RETRY_SALT,
            max_faults=2,
            kinds=(KILL_DETECTOR,),
            horizon=max(len(trace), 2),
            always=True,
        )
        if recovery_dir is not None:
            ckpt_dir = os.path.join(recovery_dir, f"seed-{seed}")
            cleanup = None
        else:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-recovery-")
            ckpt_dir = cleanup.name
        try:
            session = DetectionSession(
                trace,
                base_factory,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=detector_checkpoints,
                shadow_budget=shadow_budget,
                kills=kills,
            )
            try:
                resumed = Supervisor(session).run()
            except SupervisorError:
                result.recovery_divergences += 1
                return
            result.detector_kills += session.recovery["kills_fired"]
            want = [r.as_list() for r in straight_races]
            got = [r.as_list() for r in resumed.races]
            if got == want:
                result.recovered_runs += 1
            else:
                result.recovery_divergences += 1
        finally:
            if cleanup is not None:
                cleanup.cleanup()

    def detect(trace, seed) -> bool:
        """Replay under a guarded detector; quarantine on crash.

        Pre-crash races still count — a detector that died at event k
        validly reported everything before k.
        """
        guarded = GuardedDetector(base_factory(), shadow_budget=shadow_budget)
        replay(trace, guarded)
        if guarded.crash is not None:
            result.crashed_runs += 1
            if store is not None:
                entry = store.quarantine(
                    trace,
                    seed=seed,
                    detector=detector_label,
                    error=guarded.crash.as_dict(),
                )
                result.quarantined.append(entry)
                if shrink_quarantined:
                    store.shrink(
                        entry,
                        make_detector=base_factory,
                        max_evals=shrink_max_evals,
                    )
        for race in guarded.races:
            result.address_hits[race.addr] = (
                result.address_hits.get(race.addr, 0) + 1
            )
            result.first_seed.setdefault(race.addr, seed)
            pair = (min(race.site, race.prev_site),
                    max(race.site, race.prev_site))
            result.site_pair_hits[pair] = (
                result.site_pair_hits.get(pair, 0) + 1
            )
        if detector_checkpoints and guarded.crash is None:
            exercise_recovery(trace, seed, guarded.races)
        return bool(guarded.races)

    def schedule(seed: int) -> Tuple[object, bool, bool]:
        """One supervised schedule: returns (trace, deadlocked, faulted).

        Injected faults can make a run unexecutable in ways that are
        *artifacts* of the plan, not of the schedule (e.g. a heap error
        after a failed malloc the workload does not check).  Those are
        retried with a re-salted plan; the last attempt runs fault-free
        so every seed produces a trace.
        """
        attempts = (fault_retries + 1) if faults else 1
        for attempt in range(attempts):
            fault_free = faults and attempts > 1 and attempt == attempts - 1
            plan = None
            if faults and not fault_free:
                plan = FaultPlan.generate(
                    seed + attempt * _RETRY_SALT,
                    max_faults=max_faults,
                    kinds=fault_kinds,
                    horizon=max_events or 2000,
                )
            try:
                trace = Scheduler(
                    seed=seed, quantum=quantum, policy=policy, depth=depth
                ).run(
                    program_factory(), max_events=max_events, faults=plan
                )
            except SchedulerError as err:
                if err.partial_trace is not None:
                    return (
                        err.partial_trace,
                        True,
                        bool(err.partial_trace.faults),
                    )
                if plan is not None and attempt < attempts - 1:
                    result.retried_runs += 1
                    continue
                raise
            except (SyncError, HeapError):
                if plan is not None and attempt < attempts - 1:
                    result.retried_runs += 1
                    continue
                raise
            return trace, False, bool(trace.faults)
        raise AssertionError("unreachable: final attempt returns or raises")

    for seed in seed_list:
        if seed in done:
            continue
        try:
            with _time_limit(trial_timeout):
                trace, deadlocked, faulted = schedule(seed)
                racy = detect(trace, seed)
        except TrialTimeout:
            result.timeout_runs += 1
            result.trials += 1
            result.completed_seeds.append(seed)
            if checkpoint:
                result.save(checkpoint)
            continue
        if faulted:
            result.faulted_runs += 1
        if deadlocked:
            result.deadlocked_runs += 1
            if racy:
                result.racy_deadlocked_runs += 1
        if racy:
            result.racy_runs += 1
        result.trials += 1
        result.completed_seeds.append(seed)
        if checkpoint:
            result.save(checkpoint)
    return result


#: Campaign-flavoured alias (the CLI and docs call the supervised loop
#: a fuzz *run*; same function, the supervision is in the keywords).
run_fuzz = fuzz_schedules


def format_fuzz_result(result: FuzzResult, limit: int = 8) -> str:
    """Human-readable campaign summary."""
    deadlocked = f"{result.deadlocked_runs} deadlocked"
    if result.racy_deadlocked_runs:
        deadlocked += f" ({result.racy_deadlocked_runs} racy before blocking)"
    lines = [
        f"{result.trials} schedules explored: "
        f"{result.racy_runs} racy, {deadlocked} "
        f"(manifestation rate {result.manifestation_rate:.0%})"
    ]
    extras = []
    if result.crashed_runs:
        extras.append(f"{result.crashed_runs} detector crash(es)")
    if result.timeout_runs:
        extras.append(f"{result.timeout_runs} timed out")
    if result.faulted_runs:
        extras.append(f"{result.faulted_runs} ran with injected faults")
    if result.retried_runs:
        extras.append(f"{result.retried_runs} fault retries")
    if result.recovered_runs or result.recovery_divergences:
        extras.append(
            f"{result.recovered_runs} killed-and-resumed sessions identical"
            f" ({result.detector_kills} detector kills, "
            f"{result.recovery_divergences} divergences)"
        )
    if extras:
        lines.append("supervision: " + ", ".join(extras))
    if result.quarantined:
        lines.append(
            f"quarantined traces: {', '.join(result.quarantined)}"
        )
    if result.address_hits:
        lines.append("racy addresses (address: schedules hit, first seed):")
        ranked = sorted(
            result.address_hits.items(), key=lambda kv: -kv[1]
        )[:limit]
        for addr, hits in ranked:
            lines.append(
                f"  0x{addr:x}: {hits}/{result.trials} "
                f"(first seed {result.first_seed[addr]})"
            )
        if len(result.address_hits) > limit:
            lines.append(f"  ... and {len(result.address_hits) - limit} more")
    return "\n".join(lines)
