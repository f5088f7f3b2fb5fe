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


def test_tenant_driver_closes_its_client_when_a_cycle_raises(monkeypatch):
    """A cycle that raises is recorded, and its client is still closed
    (no leaked socket)."""
    from repro.server import loadgen

    closed = []

    class _Broken:
        reconnects = sheds_seen = migrations_seen = failovers = 0

        def __init__(self, *args, **kwargs):
            pass

        def feed(self, events):
            raise OSError("wire cut")

        def close(self):
            closed.append(True)

    monkeypatch.setattr(loadgen, "Detector", _Broken)
    monkeypatch.setattr(loadgen, "_baseline", lambda detector, events: {})
    driver = loadgen._TenantDriver(
        0,
        "t",
        [("127.0.0.1", 1)],
        [(0, 0, 0, 0, 0)] * 4,
        detector="fasttrack",
        batch_events=2,
        faults=False,
    )
    driver.run()
    assert closed == [True]
    assert driver.cycles == 0
    assert len(driver.errors) == 1 and "wire cut" in driver.errors[0]


class TestChaosSoak:
    def test_mini_soak_survives_chaos(self, tmp_path, monkeypatch):
        """A short fully-loaded soak against the daemon pair: live
        migrations, a hard kill, a drain — zero divergences, zero
        tenant errors, and nothing left behind but the result file."""
        import tempfile

        from repro.runtime.faults import KILL_DAEMON, MIGRATE_TENANT
        from repro.server.loadgen import run_soak

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(tmp_path)
        body = run_soak(
            seconds=6.0,
            quick=True,
            chaos_interval=1.0,
            out="BENCH_server.json",
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_server.json",
            "tmp",
        ]
        assert list(scratch.iterdir()) == []
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


class TestLoadgenGate:
    """``repro-race loadgen`` fails on its run's own exact counts."""

    def _main(self, monkeypatch, tmp_path, **body):
        from repro.cli import main
        from repro.server import loadgen

        full = {"recovery_divergences": 0, "server": {"recovery_failures": 0}}
        full.update(body)
        monkeypatch.setattr(loadgen, "run_loadgen", lambda *a, **k: full)
        monkeypatch.setattr(loadgen, "format_loadgen", lambda b: "")
        return main(["loadgen", "--out", str(tmp_path / "B.json")])

    def test_exits_1_on_recovery_failures(self, monkeypatch, tmp_path, capsys):
        assert self._main(monkeypatch, tmp_path) == 0
        failed = self._main(
            monkeypatch, tmp_path, server={"recovery_failures": 1}
        )
        assert failed == 1
        assert "recovery_failures" in capsys.readouterr().out
