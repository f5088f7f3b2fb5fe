"""Client survivability: circuit breaker, failover, jittered retries.

The client half of the availability story: an ordered host list with a
per-host circuit breaker (consecutive connect failures open the
circuit and the host is skipped while peers remain), decorrelated
jitter between reconnect attempts, and host demotion on shedding
errors — so a dead or drowning daemon costs latency once, not on every
retry.
"""

import socket
import time

import pytest

from repro.server import protocol as P
from repro.server.client import CircuitBreaker, Detector, migrate_tenant
from repro.server.daemon import ServerConfig, ServerThread
from repro.workloads.registry import build_trace


def _events(name="streamcluster", scale=0.05, seed=0):
    return [tuple(ev) for ev in build_trace(name, scale=scale, seed=seed).events]


def _body(result):
    return P.dumps_canonical(
        {"races": result["races"], "stats": result["stats"]}
    )


def _server(tmp_path, tag="a", **overrides):
    overrides.setdefault("checkpoint_root", str(tmp_path / f"ckpts-{tag}"))
    overrides.setdefault("checkpoint_every", 400)
    return ServerThread(ServerConfig(**overrides))


def _dead_port():
    """A port nothing listens on (bound then released)."""
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return ("127.0.0.1", port)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        br = CircuitBreaker(threshold=3, cooldown=60.0)
        br.record_failure()
        br.record_failure()
        assert not br.open
        br.record_failure()
        assert br.open
        assert br.trips == 1
        assert br.failures == 0  # counting restarts after a trip

    def test_cooldown_expires(self):
        br = CircuitBreaker(threshold=1, cooldown=0.05)
        br.record_failure()
        assert br.open
        time.sleep(0.08)
        assert not br.open

    def test_success_resets(self):
        br = CircuitBreaker(threshold=2, cooldown=60.0)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert not br.open  # the streak broke; one failure is not two


class TestFailover:
    def test_dead_first_host_fails_over(self, tmp_path, local_baseline):
        events = _events()
        dead = _dead_port()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack",
                addresses=[dead, h.address],
                batch_events=256,
            )
            assert det.address == h.address
            assert det.breakers[dead].failures == 1
            det.feed(events)
            result = det.finish()
        assert _body(result) == P.dumps_canonical(local_baseline(events))

    def test_open_circuit_skips_dead_host(self, tmp_path):
        """Once the dead host's breaker is open, reconnects go straight
        to the live host without paying the connect timeout again."""
        dead = _dead_port()
        with _server(tmp_path, detach_ttl=30.0) as h:
            det = Detector(
                "fasttrack",
                addresses=[dead, h.address],
                tenant="skipper",
                batch_events=256,
                breaker_threshold=2,
                breaker_cooldown=60.0,
            )
            det.feed(_events()[:400])
            det.sync()
            # Two more dropped connections trip the dead host's breaker.
            det._close_socket()
            det._reconnect()
            det._close_socket()
            det._reconnect()
            assert det.breakers[dead].open
            t0 = time.monotonic()
            det._close_socket()
            det._reconnect()
            # Straight to the live host: no multi-second connect stall.
            assert time.monotonic() - t0 < 2.0
            assert det.address == h.address
            det.finish()

    def test_all_circuits_open_still_tries(self, tmp_path):
        """Open breakers everywhere must not strand the client: every
        host is tried anyway (failing fast helps nobody)."""
        with _server(tmp_path, detach_ttl=30.0) as h:
            det = Detector(
                "fasttrack",
                addresses=[h.address],
                tenant="lastditch",
                batch_events=256,
                breaker_threshold=1,
                breaker_cooldown=60.0,
            )
            det.feed(_events()[:400])
            det.sync()
            det.breakers[h.address].record_failure()
            assert det.breakers[h.address].open
            det._close_socket()
            det._reconnect()  # succeeds despite the open circuit
            assert det.breakers[h.address].failures == 0
            assert not det.breakers[h.address].open
            det.finish()

    def test_exhausted_retries_raise(self, tmp_path):
        dead = _dead_port()
        with pytest.raises((ConnectionError, OSError)):
            Detector(
                "fasttrack",
                addresses=[dead],
                max_reconnects=0,
                timeout=2.0,
            )

    def test_migrated_peer_moves_to_front(self, tmp_path, local_baseline):
        """After MIGRATED, the new host leads the client's list — a
        later reconnect prefers where the session actually lives."""
        events = _events()
        half = len(events) // 2
        with _server(tmp_path, "a") as a, _server(tmp_path, "b") as b:
            det = Detector(
                "fasttrack",
                addresses=[a.address, b.address],
                tenant="mover",
                batch_events=256,
            )
            assert det.addresses[0] == a.address
            det.feed(events[:half])
            det.sync()
            migrate_tenant(a.address, "mover", peer=b.address)
            det.feed(events[half:])
            result = det.finish()
            assert det.migrations_seen == 1
            assert det.addresses[0] == b.address
        assert _body(result) == P.dumps_canonical(local_baseline(events))


class TestBackoff:
    def test_jitter_stays_within_cap(self, tmp_path, monkeypatch):
        """The decorrelated-jitter sleeps are bounded by backoff_cap
        and never below backoff_base."""
        sleeps = []
        dead = _dead_port()
        with _server(tmp_path) as h:
            det = Detector(
                "fasttrack",
                addresses=[h.address],
                max_reconnects=8,
                timeout=0.5,
                backoff_base=0.01,
                backoff_cap=0.25,
            )
            # The whole fleet goes away; every retry must be jittered.
            det.addresses = [dead]
            det.breakers[dead] = CircuitBreaker()
            det._close_socket()
            monkeypatch.setattr(time, "sleep", sleeps.append)
            with pytest.raises(P.ServerError) as err:
                det._reconnect()
            assert err.value.code == P.E_INTERNAL
        assert len(sleeps) >= 7  # attempts after the first all slept
        assert all(0.01 <= s <= 0.25 for s in sleeps)
        # Jitter, not a fixed schedule: the sleeps are not all equal.
        assert len(set(sleeps)) > 1
