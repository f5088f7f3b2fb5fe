"""Detection as a service: the multi-tenant race-detection daemon.

The in-process pipeline (:mod:`repro.runtime` → :mod:`repro.detectors`)
assumes one program, one trace, one detector.  This package serves the
same detectors over a socket so many instrumented programs can stream
events concurrently to one long-lived analysis process — the deployment
shape a PIN-tool frontend actually wants.

Layers (see docs/ALGORITHM.md §13):

:mod:`~repro.server.protocol`
    Length-prefixed binary framing; EVENTS payloads are raw binlog
    rows.  Typed :class:`~repro.server.protocol.ProtocolError` codes.
:mod:`~repro.server.tenant`
    One tenant's streaming, checkpointed detector session — the
    kill-and-resume byte-identity invariant lives here.
:mod:`~repro.server.daemon`
    The asyncio server: per-tenant ingest queues with watermark
    backpressure + shedding, the monotonic-deadline watchdog for wedged
    dispatches, session migration with bounded backoff, SIGTERM drain.
:mod:`~repro.server.client`
    dracepy-shaped client (``Detector('fasttrack')`` / ``fork`` /
    ``write`` / ``on_race``) with reconnect-resume.
:mod:`~repro.server.loadgen`
    Multi-tenant load generator + fault campaign; writes
    ``BENCH_server.json``.

The package imports none of its submodules: import the one you need,
so that reading the wire format (``protocol``) loads no daemon.
"""
