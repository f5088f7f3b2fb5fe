"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pbzip2" in out
    assert "fasttrack-dynamic" in out


def test_run_command_reports_races(capsys):
    assert main(["run", "-w", "ffmpeg", "-d", "dynamic", "--scale", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "slowdown" in out
    assert "data race(s) detected" in out


def test_run_no_suppress_flag(capsys):
    assert (
        main(
            ["run", "-w", "raytrace", "-d", "fasttrack-byte",
             "--scale", "0.3", "--no-suppress"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "library_races" in out


def test_table_command(capsys):
    assert (
        main(["table", "3", "--scale", "0.2", "--workloads", "hmmsearch"])
        == 0
    )
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "hmmsearch" in out


def test_record_and_replay_roundtrip(tmp_path, capsys):
    path = os.path.join(tmp_path, "t.npz")
    assert main(["record", "-w", "ffmpeg", "--scale", "0.2", "-o", path]) == 0
    assert os.path.exists(path)
    assert main(["replay", path, "-d", "dynamic"]) == 0
    out = capsys.readouterr().out
    assert "saved" in out
    assert "slowdown" in out


def test_unknown_detector_rejected():
    with pytest.raises(SystemExit):
        main(["run", "-w", "ffmpeg", "-d", "bogus"])


def test_colon_sampler_names_accepted(capsys):
    """-d takes sampler compositions: 'sampler:inner' colon names."""
    assert (
        main(["run", "-w", "ffmpeg", "-d", "o1:dynamic", "--scale", "0.2"])
        == 0
    )
    assert "o1:dynamic" in capsys.readouterr().out


def test_colon_name_with_unknown_part_rejected():
    with pytest.raises(SystemExit):
        main(["run", "-w", "ffmpeg", "-d", "bogus:dynamic"])
    with pytest.raises(SystemExit):
        main(["run", "-w", "ffmpeg", "-d", "pacer:bogus"])


def test_unknown_table_rejected():
    with pytest.raises(SystemExit):
        main(["table", "9"])


def test_hbgraph_command(tmp_path, capsys):
    import os

    trace_path = os.path.join(tmp_path, "t.npz")
    dot_path = os.path.join(tmp_path, "t.dot")
    assert main(["record", "-w", "ffmpeg", "--scale", "0.1",
                 "-o", trace_path]) == 0
    assert main(["hbgraph", trace_path, "-o", dot_path]) == 0
    content = open(dot_path).read()
    assert content.startswith("digraph hb {")
    out = capsys.readouterr().out
    assert "wrote" in out


def test_hbgraph_to_stdout(tmp_path, capsys):
    import os

    trace_path = os.path.join(tmp_path, "t.npz")
    main(["record", "-w", "hmmsearch", "--scale", "0.1", "-o", trace_path])
    capsys.readouterr()
    assert main(["hbgraph", trace_path]) == 0
    assert "digraph hb {" in capsys.readouterr().out


def test_stats_command(capsys):
    assert main(["stats", "-w", "pbzip2", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "sharing potential" in out


def test_run_accepts_embedded_scenarios(capsys):
    assert main(["run", "-w", "packet-router", "-d", "fasttrack-byte",
                 "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "data race" in out


def test_list_shows_scenarios(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "sensor-fusion" in out
    assert "embedded scenarios" in out


def test_shrink_cli_reduces_and_saves(tmp_path, capsys):
    out_path = str(tmp_path / "min.npz")
    assert (
        main(["shrink", "-w", "ffmpeg", "--scale", "0.2", "--seed", "1",
              "--out", out_path])
        == 0
    )
    out = capsys.readouterr().out
    assert "shrunk" in out
    assert "preserved racy address(es)" in out
    assert os.path.exists(out_path)
    from repro.runtime.trace import Trace

    minimized = Trace.load(out_path)
    assert 0 < len(minimized)


def test_shrink_cli_race_free_workload_fails(capsys):
    assert main(["shrink", "-w", "pbzip2", "--scale", "0.2"]) == 1
    assert "no races" in capsys.readouterr().out


def test_shrink_cli_rejects_non_racy_address(capsys):
    assert (
        main(["shrink", "-w", "ffmpeg", "--scale", "0.2",
              "--addr", "0xdeadbeef"])
        == 1
    )
    assert "no race at 0xdeadbeef" in capsys.readouterr().out


def test_conform_cli_explains_divergences(capsys):
    assert (
        main(["conform", "-w", "hmmsearch", "--seeds", "2",
              "--scale", "0.2"])
        == 0
    )
    out = capsys.readouterr().out
    assert "every divergence explained" in out
    assert "verdict: CONFORMS" in out


def test_golden_cli_regen_is_idempotent(tmp_path, monkeypatch, capsys):
    from repro.testing import golden

    monkeypatch.setattr(
        golden,
        "DEFAULT_ENTRIES",
        (golden.GoldenEntry("shrunk-ffmpeg", "ffmpeg", 0.2, 1, shrunk=True),),
    )
    corpus = str(tmp_path / "golden")
    assert main(["golden", "regen", "--dir", corpus]) == 0
    manifest_path = os.path.join(corpus, "manifest.json")
    with open(manifest_path, "rb") as fh:
        first = fh.read()
    assert main(["golden", "regen", "--dir", corpus]) == 0
    with open(manifest_path, "rb") as fh:
        assert fh.read() == first  # regeneration is deterministic
    assert main(["golden", "verify", "--dir", corpus]) == 0
    assert "verified" in capsys.readouterr().out


def test_golden_cli_verify_flags_problems(tmp_path, capsys):
    corpus = str(tmp_path / "empty")
    assert main(["golden", "verify", "--dir", corpus]) == 1
    assert "no manifest" in capsys.readouterr().out


def test_bench_command_writes_json(tmp_path, capsys):
    import json

    out = str(tmp_path / "BENCH_slowdown.json")
    history = tmp_path / "BENCH_history.jsonl"
    rc = main(
        [
            "bench", "--out", out, "--history", str(history),
            "--workloads", "pbzip2",
            "--detectors", "fasttrack-word",
            "--scale", "0.2", "--repeats", "1",
        ]
    )
    assert rc == 0
    with open(out) as fh:
        result = json.load(fh)
    assert result["schema"] == "repro-race-bench/v1"
    assert result["conformance"]["divergences"] == 0
    row = result["workloads"]["pbzip2"]["detectors"]["fasttrack-word"]
    assert row["conforms"]
    assert row["batched"]["events_per_sec"] > 0
    (line,) = [json.loads(raw) for raw in history.read_text().splitlines()]
    assert line["config"]["workloads"] == ["pbzip2"]
    assert [r["detector"] for r in line["rows"]] == ["fasttrack-word"]
    captured = capsys.readouterr().out
    assert "pbzip2" in captured
    assert "conformance" in captured
    assert f"appended run summary to {history}" in captured


def test_bench_rejects_unknown_names(capsys):
    assert main(["bench", "--workloads", "nope"]) == 2
    assert main(["bench", "--detectors", "bogus"]) == 2
    out = capsys.readouterr().out
    assert "unknown workload" in out
    assert "unknown detector" in out
