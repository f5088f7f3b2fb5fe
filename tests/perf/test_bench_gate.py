"""Unit tests for the bench trend gate (``bench --check-history``)."""

import json

import pytest

from repro.perf.bench import (
    GATE_THRESHOLD,
    HISTORY_SCHEMA,
    check_history,
    comparable_runs,
    format_regressions,
    load_history,
)

CONFIG = {
    "workloads": ["streamcluster", "pbzip2"],
    "detectors": ["fasttrack-byte"],
    "scale": 0.3,
    "seed": 1,
    "repeats": 3,
    "batch_span": 4096,
}


def _line(eps, eps_batched=None, config=None, quick=True, divergences=0):
    rows = [
        {
            "workload": "streamcluster",
            "detector": "fasttrack-byte",
            "events": 5948,
            "events_per_sec": eps,
            "events_per_sec_batched": (
                eps_batched if eps_batched is not None else eps
            ),
            "slowdown": 40.0,
            "slowdown_batched": 55.0,
        }
    ]
    return {
        "schema": HISTORY_SCHEMA,
        "git_rev": "abc1234",
        "timestamp": "2026-01-01T00:00:00Z",
        "quick": quick,
        "config": dict(config if config is not None else CONFIG),
        "divergences": divergences,
        "rows": rows,
    }


def test_no_history_passes_vacuously():
    line = _line(100_000.0)
    assert check_history(line, []) == []
    assert comparable_runs(line, []) == 0


def test_within_threshold_passes():
    prior = [_line(100_000.0)]
    # 20% drop exactly on the floor still passes (strictly-below fails)
    line = _line(100_000.0 * (1.0 - GATE_THRESHOLD))
    assert check_history(line, prior) == []
    assert comparable_runs(line, prior) == 1


def test_regression_detected_per_metric():
    prior = [_line(100_000.0, eps_batched=200_000.0)]
    line = _line(50_000.0, eps_batched=190_000.0)
    regs = check_history(line, prior)
    assert len(regs) == 1
    reg = regs[0]
    assert reg["metric"] == "events_per_sec"
    assert reg["workload"] == "streamcluster"
    assert reg["best"] == 100_000.0
    assert reg["current"] == 50_000.0
    assert reg["drop_pct"] == pytest.approx(50.0)


def test_gate_compares_against_best_prior_not_latest():
    prior = [_line(100_000.0), _line(60_000.0)]
    # within 20% of the *best* (100k), even though above the latest
    assert check_history(_line(85_000.0), prior) == []
    # 70k is within 20% of 60k but not of 100k: still a regression
    regs = check_history(_line(70_000.0), prior)
    assert [r["metric"] for r in regs] == [
        "events_per_sec",
        "events_per_sec_batched",
    ]


def test_different_config_is_not_comparable():
    other = dict(CONFIG, scale=0.5)
    prior = [_line(100_000.0, config=other)]
    line = _line(10_000.0)
    assert check_history(line, prior) == []
    assert comparable_runs(line, prior) == 0


def test_prior_line_with_shard_request_still_gates():
    # Lines written while the bench could also time sharded replay
    # carry "shards" in their config; their row metrics are plain
    # single-detector figures, so they stay comparable.
    prior = [_line(100_000.0, config=dict(CONFIG, shards=4))]
    line = _line(50_000.0)
    assert "shards" not in line["config"]
    assert comparable_runs(line, prior) == 1
    regs = check_history(line, prior)
    assert [r["metric"] for r in regs] == [
        "events_per_sec",
        "events_per_sec_batched",
    ]
    assert check_history(_line(95_000.0), prior) == []


def test_quick_and_full_runs_do_not_compare():
    prior = [_line(100_000.0, quick=False)]
    assert check_history(_line(10_000.0, quick=True), prior) == []


def test_diverged_prior_runs_are_ignored():
    prior = [_line(100_000.0, divergences=2), _line(40_000.0)]
    # best *clean* prior is 40k, so 35k is within threshold
    assert check_history(_line(35_000.0), prior) == []
    assert comparable_runs(_line(35_000.0), prior) == 1


def test_new_row_without_prior_baseline_passes():
    prior = [_line(100_000.0)]
    line = _line(90_000.0)
    line["rows"].append(
        {
            "workload": "pbzip2",
            "detector": "fasttrack-byte",
            "events": 13418,
            "events_per_sec": 1.0,
            "events_per_sec_batched": 1.0,
        }
    )
    assert check_history(line, prior) == []


def test_custom_threshold():
    prior = [_line(100_000.0)]
    assert check_history(_line(95_000.0), prior, threshold=0.02)
    assert not check_history(_line(99_000.0), prior, threshold=0.02)


def test_load_history_skips_corrupt_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    good = _line(100_000.0)
    path.write_text(
        json.dumps(good)
        + "\n"
        + "{truncated...\n"
        + "\n"
        + json.dumps({"schema": "other/v9", "rows": []})
        + "\n"
        + json.dumps(_line(90_000.0))
        + "\n"
    )
    lines = load_history(str(path))
    assert len(lines) == 2
    assert all(line["schema"] == HISTORY_SCHEMA for line in lines)


def test_load_history_missing_file(tmp_path):
    assert load_history(str(tmp_path / "nope.jsonl")) == []


def test_format_regressions_report():
    assert "baseline" in format_regressions([], 0)
    assert "ok" in format_regressions([], 3)
    prior = [_line(100_000.0)]
    regs = check_history(_line(50_000.0), prior)
    report = format_regressions(regs, 1)
    assert "REGRESSION" in report
    assert "streamcluster/fasttrack-byte" in report


def test_cli_check_history_gates(tmp_path, capsys):
    """End-to-end: a fabricated unbeatable prior line makes the next
    bench invocation fail the gate with exit code 1."""
    from repro import cli

    out = tmp_path / "b.json"
    hist = tmp_path / "h.jsonl"
    argv = [
        "bench",
        "--quick",
        "--workloads",
        "streamcluster",
        "--detectors",
        "fasttrack-byte",
        "--scale",
        "0.05",
        "--repeats",
        "1",
        "--out",
        str(out),
        "--history",
        str(hist),
        "--check-history",
    ]
    # first run: no history, gate passes and records the baseline
    assert cli.main(argv) == 0
    capsys.readouterr()
    # fabricate a prior run 100x faster than anything achievable
    lines = load_history(str(hist))
    assert len(lines) == 1
    impossible = dict(lines[0])
    impossible["rows"] = [
        dict(
            row,
            events_per_sec=row["events_per_sec"] * 100.0,
            events_per_sec_batched=row["events_per_sec_batched"] * 100.0,
        )
        for row in impossible["rows"]
    ]
    with open(hist, "a") as fh:
        fh.write(json.dumps(impossible) + "\n")
    assert cli.main(argv) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_history_line_shape(tmp_path):
    from repro.perf.bench import append_history, run_bench

    result = run_bench(
        workloads=["streamcluster"],
        detectors=["fasttrack-byte"],
        scale=0.1,
        repeats=1,
    )
    path = tmp_path / "hist.jsonl"
    line = append_history(result, str(path))
    assert line["schema"] == HISTORY_SCHEMA
    assert line["git_rev"]
    assert line["divergences"] == 0
    (row,) = line["rows"]
    assert row["workload"] == "streamcluster"
    assert row["events_per_sec"] > 0
    assert path.read_text().count("\n") == 1
    assert load_history(str(path)) == [line]
