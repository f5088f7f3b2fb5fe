"""Load-generator latency summaries: numpy's percentiles, stdlib only.

``_latency_summary`` reports p50/p99/p99.9 with numpy's default
("linear") interpolation, computed with the standard library so that
``repro-race loadgen`` and the soak load no numpy.  The expected values
below were computed with ``numpy.percentile`` on the same inputs.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.server.loadgen import _latency_summary, _percentile

#: data -> numpy.percentile(data, q) for q = 50, 99, 99.9
CASES = [
    ([7.5], (7.5, 7.5, 7.5)),
    # p50 falls halfway between ranks: numpy interpolates from above.
    ([3.0, 1.0, 4.0, 1.5], (2.25, 3.9699999999999998, 3.9970000000000003)),
    (
        [0.25 * k * k for k in range(11)],
        (6.25, 24.525000000000002, 24.952500000000008),
    ),
    (
        [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0,
         37.0, 41.0],
        (17.0, 40.519999999999996, 40.952000000000005),
    ),
]


@pytest.mark.parametrize("data,expected", CASES)
def test_percentile_matches_numpy_linear(data, expected):
    ordered = sorted(data)
    assert tuple(_percentile(ordered, q) for q in (50, 99, 99.9)) == expected


def test_latency_summary_on_fixed_latencies():
    latencies_ns = [1_000_000 + 7919 * k * k for k in range(1, 1002)]
    assert _latency_summary(latencies_ns) == {
        "p50": 1988.677,
        "p99": 7778.099,
        "p999": 7920.0,
        "mean": 2649.913,
        "max": 7935.846,
        "samples": 1001,
    }
    assert _latency_summary([]) == {"samples": 0}


def test_loadgen_imports_without_numpy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro.server.loadgen; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
