"""Tests for the golden-trace corpus: the checked-in corpus must stay
green, and regeneration must reproduce pinned race sets exactly."""

import json
import os

from repro.testing.golden import (
    DEFAULT_ENTRIES,
    MANIFEST,
    PINNED_DETECTORS,
    GoldenEntry,
    default_corpus_dir,
    load_manifest,
    regenerate,
    verify,
)

SMALL_ENTRIES = (
    GoldenEntry("full-hmmsearch", "hmmsearch", 0.2, 1),
    GoldenEntry("shrunk-ffmpeg", "ffmpeg", 0.2, 1, shrunk=True),
)


def test_checked_in_corpus_verifies():
    problems = verify()
    assert problems == [], "\n".join(problems)


def test_checked_in_corpus_is_complete_and_explained():
    manifest = load_manifest()
    assert set(manifest) == {e.name for e in DEFAULT_ENTRIES}
    for name, record in manifest.items():
        # satellite: zero unexplained divergences across the corpus
        assert record["oracle"]["unexplained"] == 0, name
        assert set(record["races"]) == set(PINNED_DETECTORS), name
        assert set(record["counters"]) == set(PINNED_DETECTORS), name
        assert record["events"] <= record["original_events"], name


def test_corpus_has_both_flavours_and_a_race_free_entry():
    manifest = load_manifest()
    shrunk = [n for n, r in manifest.items() if r["shrunk"]]
    full = [n for n, r in manifest.items() if not r["shrunk"]]
    assert shrunk and full
    # shrunk entries pin minimal reproducers: tiny versus the original
    for name in shrunk:
        record = manifest[name]
        assert record["events"] <= record["original_events"] * 0.25, name
        assert record["races"]["fasttrack-byte"], name
    # at least one full entry is race-free on purpose (zero stays zero)
    assert any(
        not manifest[n]["races"]["fasttrack-byte"] for n in full
    )


def test_regeneration_roundtrip(tmp_path):
    corpus = str(tmp_path / "golden")
    manifest = regenerate(corpus, entries=SMALL_ENTRIES)
    assert set(manifest) == {e.name for e in SMALL_ENTRIES}
    for entry in SMALL_ENTRIES:
        assert os.path.exists(os.path.join(corpus, f"{entry.name}.npz"))
    assert verify(corpus) == []
    # regeneration is deterministic: the manifest is byte-identical
    with open(os.path.join(corpus, MANIFEST), "rb") as fh:
        first = fh.read()
    regenerate(corpus, entries=SMALL_ENTRIES)
    with open(os.path.join(corpus, MANIFEST), "rb") as fh:
        assert fh.read() == first


def test_verify_flags_tampered_manifest(tmp_path):
    corpus = str(tmp_path / "golden")
    regenerate(corpus, entries=SMALL_ENTRIES)
    manifest = load_manifest(corpus)
    manifest["full-hmmsearch"]["races"]["fasttrack-byte"].append(0xDEAD)
    with open(os.path.join(corpus, MANIFEST), "w") as fh:
        json.dump(manifest, fh)
    problems = verify(corpus)
    assert any("racy addresses changed" in p for p in problems)


def test_verify_flags_exactly_the_changed_counter(tmp_path):
    """A bumped counter fails verify for that entry and detector only,
    in both dispatch modes."""
    from repro.cli import main

    corpus = tmp_path / "golden"
    corpus.mkdir()
    manifest = load_manifest()
    names = ("shrunk-x264", "shrunk-raytrace")
    for name in names:
        src = os.path.join(default_corpus_dir(), f"{name}.npz")
        with open(src, "rb") as fh:
            (corpus / f"{name}.npz").write_bytes(fh.read())
    subset = {name: manifest[name] for name in names}
    pinned = subset["shrunk-x264"]["counters"]["dynamic"]["checked_accesses"]
    subset["shrunk-x264"]["counters"]["dynamic"]["checked_accesses"] += 1
    (corpus / MANIFEST).write_text(json.dumps(subset))
    assert verify(str(corpus)) == [
        f"shrunk-x264: {label} counted work changed "
        f"(checked_accesses {pinned + 1} -> {pinned})"
        for label in ("dynamic", "dynamic (batched)")
    ]
    assert main(["golden", "verify", "--dir", str(corpus)]) == 1


def test_verify_flags_batched_drift(tmp_path, monkeypatch):
    """verify also replays batched: a ranged shortcut that counts a run
    as one access fails it, in the batched mode only."""
    from repro.core.detector import DynamicGranularityDetector

    corpus = tmp_path / "golden"
    corpus.mkdir()
    name = "full-pbzip2"
    with open(os.path.join(default_corpus_dir(), f"{name}.npz"), "rb") as fh:
        (corpus / f"{name}.npz").write_bytes(fh.read())
    (corpus / MANIFEST).write_text(json.dumps({name: load_manifest()[name]}))
    assert verify(str(corpus)) == []
    monkeypatch.setattr(
        DynamicGranularityDetector,
        "on_write_batch",
        lambda self, tid, addr, size, width, site=0: self.on_write(
            tid, addr, size, site
        ),
    )
    problems = verify(str(corpus))
    assert problems
    assert all(p.startswith(f"{name}: dynamic (batched) ") for p in problems)


def test_verify_flags_missing_trace_and_event_drift(tmp_path):
    corpus = str(tmp_path / "golden")
    regenerate(corpus, entries=SMALL_ENTRIES)
    os.remove(os.path.join(corpus, "shrunk-ffmpeg.npz"))
    manifest = load_manifest(corpus)
    manifest["full-hmmsearch"]["events"] += 1
    with open(os.path.join(corpus, MANIFEST), "w") as fh:
        json.dump(manifest, fh)
    problems = verify(corpus)
    assert any("trace file missing" in p for p in problems)
    assert any("events on disk" in p for p in problems)


def test_verify_without_manifest(tmp_path):
    problems = verify(str(tmp_path / "nowhere"))
    assert len(problems) == 1
    assert "no manifest" in problems[0]


def test_default_corpus_dir_points_at_checkout():
    d = default_corpus_dir()
    assert os.path.isdir(d)
    assert os.path.exists(os.path.join(d, MANIFEST))
