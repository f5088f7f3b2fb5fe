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


@pytest.mark.parametrize("extra", [[], ["--shadow-budget", "64"]],
                         ids=["plain", "budget"])
def test_run_replays_the_trace_once(monkeypatch, capsys, extra):
    """The printed races and the slowdown/memory line come from one
    detector replay (plus the bare replay that times the base)."""
    from repro.runtime import vm

    replays = []
    drive = vm.drive

    def counting(events, table):
        if table is not vm.NULL_HANDLERS:
            replays.append(len(events))
        return drive(events, table)

    monkeypatch.setattr(vm, "drive", counting)
    argv = ["run", "-w", "ffmpeg", "-d", "dynamic", "--scale", "0.2"]
    assert main(argv + extra) == 0
    out = capsys.readouterr().out
    assert "slowdown" in out and "data race(s) detected" in out
    assert len(replays) == 1


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


def test_detector_aliases_accepted(capsys):
    assert main(
        ["run", "-w", "ffmpeg", "-d", "fasttrack", "--scale", "0.2"]
    ) == 0
    assert "fasttrack: slowdown" in capsys.readouterr().out


def test_shadow_budget_over_a_sampler_refused(capsys):
    for cmd in ("run", "fuzz"):
        assert main(
            [cmd, "-w", "ffmpeg", "-d", "pacer:dynamic", "--scale", "0.2",
             "--shadow-budget", "32"]
        ) == 2
        out = capsys.readouterr().out
        assert "cannot run: shadow_budget cannot be enforced" in out
        assert "workload" not in out


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


_COLD_START = """
import sys

sys.modules["networkx"] = None  # any import of either now fails
sys.modules["numpy"] = None

from repro.cli import _build_parser, main
import repro.server.daemon

_build_parser()
assert main(["list"]) == 0

del sys.modules["numpy"]  # reading the .npz trace needs it
try:
    main(["hbgraph", sys.argv[1]])
except ImportError as err:
    print("hbgraph failed:", err)
else:
    raise AssertionError("hbgraph ran without networkx")
"""


def test_commands_import_only_what_they_run(tmp_path):
    """A fresh interpreter that can import neither numpy nor networkx
    still parses every command, lists, and imports the daemon; only the
    command that draws a graph asks for networkx."""
    import subprocess
    import sys

    import repro

    trace_path = os.path.join(tmp_path, "t.npz")
    assert main(["record", "-w", "ffmpeg", "--scale", "0.1",
                 "-o", trace_path]) == 0
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, trace_path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fasttrack-dynamic" in proc.stdout
    assert "hbgraph failed:" in proc.stdout
    assert "networkx" in proc.stdout.split("hbgraph failed:")[1]


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


def _grid_row(rate, recall=1.0, identical=None):
    return {
        "trace": "t",
        "inner": "fasttrack-byte",
        "sampler": "pacer",
        "rate": rate,
        "recall": recall,
        "effective_rate": rate,
        "identical": identical,
    }


@pytest.mark.parametrize(
    "rows, rc",
    [
        ([_grid_row(0.25, 0.9), _grid_row(1.0, identical=True)], 0),
        ([_grid_row(0.25, 0.9), _grid_row(1.0, identical=False)], 1),
        ([_grid_row(0.25, 0.5), _grid_row(1.0, identical=True)], 1),
    ],
    ids=["ok", "identity", "floor"],
)
def test_sampling_command_gates(rows, rc, tmp_path, monkeypatch, capsys):
    import json

    from repro.perf import sampling

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sampling, "grid_rows", lambda *a, **k: rows)
    out = "grid.json"
    assert main(["sampling", "--out", out]) == rc
    with open(out) as fh:
        report = json.load(fh)
    assert report["schema"] == sampling.SAMPLING_SCHEMA
    assert report["rows"] == rows
    assert ("FAIL" in capsys.readouterr().out) == bool(rc)
    # The result file is the only thing a sampling run writes.
    assert [p.name for p in tmp_path.iterdir()] == [out]


def test_bench_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--quick"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def _checkpointed_run(ckpts, *extra):
    return main(
        ["run", "-w", "ffmpeg", "-d", "dynamic", "--scale", "0.3",
         "--checkpoint-dir", ckpts, *extra]
    )


def test_resume_latest_skips_a_corrupt_newest_checkpoint(tmp_path, capsys):
    ckpts = str(tmp_path / "ckpts")
    assert _checkpointed_run(ckpts, "--checkpoint-every", "1000") == 0
    found = sorted(os.listdir(ckpts))
    assert len(found) >= 2
    with open(os.path.join(ckpts, found[-1]), "wb") as fh:
        fh.write(b"garbage")
    capsys.readouterr()
    assert _checkpointed_run(ckpts, "--resume-from", "latest") == 0
    previous = int(found[-2][len("ckpt-"):-len(".ckpt")])
    assert f"resumed from event {previous}," in capsys.readouterr().out


def test_resume_from_a_corrupt_path_fails_typed(tmp_path, capsys):
    ckpts = str(tmp_path / "ckpts")
    assert _checkpointed_run(ckpts, "--checkpoint-every", "1000") == 0
    newest = os.path.join(ckpts, sorted(os.listdir(ckpts))[-1])
    with open(newest, "wb") as fh:
        fh.write(b"garbage")
    capsys.readouterr()
    assert _checkpointed_run(ckpts, "--resume-from", newest) == 1
    out = capsys.readouterr().out
    assert f"cannot resume: {newest}: not a checkpoint file (bad magic)" in out


@pytest.mark.parametrize("host", ["0.0.0.0", "::", "example.org"])
def test_serve_refuses_non_loopback_host_without_keys(
    host, tmp_path, monkeypatch, capsys
):
    import repro.server.daemon as daemon

    def never(*_a, **_k):
        raise AssertionError("serve built a server for an unkeyed host")

    monkeypatch.setattr(daemon, "RaceServer", never)
    rc = main(["serve", "--host", host, "--port", "0",
               "--checkpoint-root", str(tmp_path)])
    assert rc == 2
    assert "without --keys" in capsys.readouterr().err
