"""Fault-injected server soak: misbehaving tenants, correct answers.

Drives the load generator's full fault campaign (every kind in
:data:`repro.runtime.faults.SERVER_KINDS`, plus an injected detector
kill and a backpressure flood) against an in-process daemon and checks
the two service-level guarantees:

* **no cross-tenant contamination** — every tenant's result is
  byte-identical to a local uninterrupted run of its own events, no
  matter what the neighbours did on the wire;
* **full recovery accounting** — every injected fault shows up in the
  daemon's counters (kills, reconnects, protocol errors, idle sheds),
  and no recovery attempt failed.
"""

import pytest

from repro.runtime.faults import (
    CORRUPT_FRAME,
    DROP_CONNECTION,
    SERVER_KINDS,
    STALL_CLIENT,
    FaultPlan,
    FaultSpec,
)
from repro.server.loadgen import _FAULT_CYCLE, run_loadgen


def test_fault_cycle_covers_all_server_kinds():
    """The campaign acts out every SERVER_KINDS fault."""
    assert set(SERVER_KINDS) <= set(_FAULT_CYCLE)


def test_fault_plan_carries_server_specs():
    plan = FaultPlan(
        [
            FaultSpec(DROP_CONNECTION, 100),
            FaultSpec("kill-thread", 50),
            FaultSpec(CORRUPT_FRAME, 200),
            FaultSpec(STALL_CLIENT, 300),
        ]
    )
    kinds = [s.kind for s in plan.server_specs()]
    assert kinds == [DROP_CONNECTION, CORRUPT_FRAME, STALL_CLIENT]
    # The scheduler-side view is disjoint: wire faults never perturb
    # trace generation.
    assert all(
        s.kind not in SERVER_KINDS for s in plan.scheduler_specs().specs
    )


def test_soak_no_cross_contamination(tmp_path):
    """Six tenants — clean, killed, dropped, flooding, corrupting,
    stalling — all finish byte-identical to their uninterrupted twins."""
    body = run_loadgen(
        None,
        tenants=6,
        workload="streamcluster",
        scale=0.05,
        seed=0,
        detector="fasttrack",
        batch_events=512,
        faults=True,
        out=str(tmp_path / "BENCH_server.json"),
    )

    # Guarantee 1: byte-identity for every tenant, faulted or not.
    assert body["recovery_divergences"] == 0
    for tenant in body["tenants"]:
        assert tenant["divergent"] is False, tenant
        assert tenant["races"] is not None

    # Guarantee 2: every injected fault is accounted for.
    srv = body["server"]
    injected = body["faults_injected"]
    assert injected["kill"] == 1
    assert injected[DROP_CONNECTION] == 1
    assert injected[CORRUPT_FRAME] == 1
    assert injected[STALL_CLIENT] == 1
    assert srv["kills"] >= 1  # the injected detector kill fired
    assert srv["resumes"] + srv["cold_restarts"] >= 1
    assert srv["protocol_errors"] >= 1  # the corrupt frame was typed
    assert srv["idle_sheds"] >= 1  # the stalling client was shed
    assert srv["reconnects"] >= 3  # drop + corrupt + stall all resumed
    assert srv["recovery_failures"] == 0
    assert srv["sessions_finished"] == 6

    # The bench body records the latency distribution the CI job uploads.
    assert body["latency_ms"]["samples"] > 0
    assert body["latency_ms"]["p99"] >= body["latency_ms"]["p50"]
    assert (tmp_path / "BENCH_server.json").exists()


def test_soak_clean_run_has_no_recovery_noise(tmp_path):
    """With faults disabled, the campaign is recovery-silent."""
    body = run_loadgen(
        None,
        tenants=2,
        workload="raytrace",
        scale=0.2,
        seed=3,
        detector="fasttrack",
        batch_events=128,
        faults=False,
        out=None,
    )
    srv = body["server"]
    assert body["recovery_divergences"] == 0
    assert srv["kills"] == 0
    assert srv["protocol_errors"] == 0
    assert srv["recovery_failures"] == 0
    assert srv["sessions_finished"] == 2
    assert body["faults_injected"] == {}


def test_in_process_daemon_leaves_no_checkpoints_behind(tmp_path, monkeypatch):
    """Without a server config the throwaway daemon checkpoints into a
    temporary directory that teardown removes — nothing lands under the
    working directory."""
    import tempfile

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.chdir(tmp_path)
    body = run_loadgen(
        None,
        tenants=1,
        workload="streamcluster",
        scale=0.05,
        detector="fasttrack",
        batch_events=128,
        faults=False,
        out=None,
    )
    assert body["recovery_divergences"] == 0
    assert body["server"]["sessions_finished"] == 1
    assert not (tmp_path / ".repro-race").exists()
    assert list(scratch.iterdir()) == []


class TestChaosSoak:
    def test_mini_soak_survives_chaos(self, tmp_path):
        """A short fully-loaded soak against the daemon pair: live
        migrations, a hard kill, a drain — zero divergences, zero
        tenant errors, and a body the SLO gate can consume."""
        from repro.runtime.faults import KILL_DAEMON, MIGRATE_TENANT
        from repro.server.loadgen import run_soak

        body = run_soak(
            seconds=6.0,
            quick=True,
            chaos_interval=1.0,
            checkpoint_root=str(tmp_path / "soak-ckpts"),
            out=str(tmp_path / "BENCH_server.json"),
        )
        soak = body["soak"]
        assert body["recovery_divergences"] == 0, soak["divergence_notes"]
        assert soak["tenant_error_count"] == 0, soak["tenant_errors"]
        assert soak["chaos_errors"] == []
        assert soak["cycles"] >= 1
        assert soak["migrations_live"] >= 1
        assert soak["chaos"][MIGRATE_TENANT] + soak["chaos"][KILL_DAEMON] >= 1
        # Latency sampled per sync on the monotonic clock, with p99.9.
        lat = body["latency_ms"]
        assert lat["samples"] > 0
        assert lat["p999"] >= lat["p99"] >= lat["p50"] > 0
        srv = body["server"]
        assert srv["recovery_failures"] == 0
        assert srv["auth_challenges"] >= 1  # the soak wire is keyed


class TestServerSLOGate:
    def _body(self, p99=5.0, p999=9.0, recovery_failures=0, **config):
        cfg = {
            "tenants": 4, "workload": "pbzip2", "scale": 0.08, "seed": 0,
            "detector": "fasttrack", "batch_events": 512, "quick": True,
        }
        cfg.update(config)
        return {
            "config": cfg,
            "latency_ms": {
                "p50": 1.0, "p99": p99, "p999": p999, "samples": 50,
            },
            "throughput_eps": 5000.0,
            "server": {"recovery_failures": recovery_failures},
            "soak": {"seconds": 10, "cycles": 3, "chaos": {}},
            "recovery_divergences": 0,
        }

    def test_history_roundtrip_and_pass(self, tmp_path):
        from repro.server import slo

        path = str(tmp_path / "hist.jsonl")
        first = slo.append_server_history(self._body(), path)
        assert slo.check_server_slo(first, []) == []  # vacuous baseline
        priors = slo.load_server_history(path)
        assert len(priors) == 1
        # Slightly slower but inside the threshold: still a pass.
        ok = slo.server_history_line(self._body(p99=6.0, p999=10.0))
        assert slo.check_server_slo(ok, priors) == []
        assert slo.comparable_server_runs(ok, priors) == 1

    def test_gate_fails_on_injected_latency_regression(self, tmp_path):
        """The negative test the acceptance criteria demand: a p99 blown
        past best*(1+threshold) is reported as a latency regression."""
        from repro.server import slo

        path = str(tmp_path / "hist.jsonl")
        slo.append_server_history(self._body(p99=5.0), path)
        priors = slo.load_server_history(path)
        bad = slo.server_history_line(self._body(p99=5.0 * 2))
        regressions = slo.check_server_slo(bad, priors)
        assert [r["metric"] for r in regressions] == ["p99"]
        assert regressions[0]["kind"] == "latency"
        text = slo.format_server_slo(regressions, 1)
        assert "REGRESSION" in text

    def test_gate_fails_on_recovery_counter_regression(self, tmp_path):
        """recovery_failures must never exceed the best prior value —
        latency headroom does not excuse losing a session."""
        from repro.server import slo

        path = str(tmp_path / "hist.jsonl")
        slo.append_server_history(self._body(), path)
        priors = slo.load_server_history(path)
        bad = slo.server_history_line(self._body(recovery_failures=1))
        regressions = slo.check_server_slo(bad, priors)
        assert [r["metric"] for r in regressions] == ["recovery_failures"]
        assert regressions[0]["kind"] == "counter"

    def test_divergent_priors_never_become_baselines(self, tmp_path):
        from repro.server import slo

        body = self._body(p99=0.5)
        body["recovery_divergences"] = 2  # tainted run: absurdly fast
        line = slo.server_history_line(body)
        current = slo.server_history_line(self._body(p99=5.0))
        assert slo.check_server_slo(current, [line]) == []
        assert slo.comparable_server_runs(current, [line]) == 0

    def test_different_config_never_compared(self, tmp_path):
        from repro.server import slo

        prior = slo.server_history_line(self._body(p99=0.5, tenants=32))
        current = slo.server_history_line(self._body(p99=50.0))
        assert slo.check_server_slo(current, [prior]) == []
