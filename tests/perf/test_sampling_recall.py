"""Sampling recall grid: identity at rate 1.0, honesty below it.

The grid (repro.perf.sampling) measures what the sampling wrappers
actually deliver — recall against each inner detector's full race set
and the exact share of accesses they analyse — for every {policy} ×
{rate} × {inner} cell over the frozen golden corpus.  Contracts pinned
here:

* the grid really is a grid: ≥3 policies × ≥4 inner detectors × the
  rate ladder, one row per (trace, inner, sampler, rate) cell;
* every rate-1.0 cell is byte-identical to the bare inner detector
  (so any recall below 1.0 in the report is the sampling policy's
  doing, not a wrapper bug);
* the report's numbers are internally consistent (recall within
  [0, 1], found ≤ full, effective rate matches the sampled/skipped
  counters) and the summary aggregates match the rows;
* no sub-1.0 (policy, rate) mean recall falls below ``RECALL_FLOOR``.
"""

import pytest

from repro.perf.sampling import (
    DEFAULT_INNERS,
    DEFAULT_RATES,
    RECALL_FLOOR,
    SAMPLERS,
    SAMPLING_SCHEMA,
    floor_failures,
    identity_failures,
    sampling_report,
    summarize,
)
from repro.testing.golden import load_manifest

GOLDEN = sorted(load_manifest())

# One grid computation for the whole module — the rows are
# deterministic, so every test can assert against the same sweep.


@pytest.fixture(scope="module")
def report():
    return sampling_report()


@pytest.fixture(scope="module")
def rows(report):
    return report["rows"]


def test_grid_dimensions(rows):
    assert len(SAMPLERS) >= 3
    assert len(DEFAULT_INNERS) >= 4
    assert len(rows) == (
        len(GOLDEN) * len(DEFAULT_INNERS) * len(SAMPLERS) * len(DEFAULT_RATES)
    )
    assert {r["sampler"] for r in rows} == set(SAMPLERS)
    assert {r["inner"] for r in rows} == set(DEFAULT_INNERS)
    assert {r["rate"] for r in rows} == set(DEFAULT_RATES)


def test_full_rate_cells_identical_to_bare_inner(rows):
    """Every rate-1.0 cell must be byte-identical (races + inner
    statistics) to the unsampled inner detector."""
    full = [r for r in rows if r["rate"] >= 1.0]
    assert len(full) == len(GOLDEN) * len(DEFAULT_INNERS) * len(SAMPLERS)
    assert all(r["identical"] is True for r in full)
    assert identity_failures(rows) == []
    for r in full:
        assert r["recall"] == 1.0
        assert r["skipped_accesses"] == 0
        assert r["effective_rate"] == 1.0
        # lazy timestamping must be off at rate 1.0: no deferrals
        assert r["deferred_epochs"] == 0


def test_grid_rows_are_consistent(rows):
    for row in rows:
        assert 0.0 <= row["recall"] <= 1.0
        assert row["found_races"] <= row["full_races"]
        if row["full_races"]:
            assert row["recall"] == row["found_races"] / row["full_races"]
        else:
            assert row["recall"] == 1.0
        assert 0.0 <= row["effective_rate"] <= 1.0
        total = row["sampled_accesses"] + row["skipped_accesses"]
        if total:
            assert row["effective_rate"] == pytest.approx(
                row["sampled_accesses"] / total
            )
        if row["rate"] < 1.0:
            assert row["identical"] is None


def test_samplers_actually_sample(rows):
    """Sub-1.0 rates must skip a nonzero fraction of accesses on at
    least one cell per sampler — otherwise the recall column
    measures nothing."""
    for sampler in SAMPLERS:
        skipped = sum(
            r["skipped_accesses"]
            for r in rows
            if r["sampler"] == sampler and r["rate"] < 1.0
        )
        assert skipped > 0, f"{sampler} never skipped an access"


def test_check_only_paths_exercised(rows):
    """Pacer and o1 run the check-only protocol on skipped accesses;
    every default inner supports it, so checks must be nonzero."""
    for sampler in ("pacer", "o1"):
        group = [
            r for r in rows if r["sampler"] == sampler and r["rate"] < 1.0
        ]
        assert all(r["check_supported"] for r in group)
        assert sum(r["check_only_accesses"] for r in group) > 0


def test_lazy_timestamping_defers_epochs(rows):
    """Sub-1.0 cells over lazy-capable inners must actually collapse
    some access-free epochs on the bigger traces."""
    deferred = sum(
        r["deferred_epochs"] for r in rows if r["rate"] < 1.0
    )
    assert deferred > 0


def test_summary_aggregates(rows):
    summary = summarize(rows)
    assert len(summary) == len(SAMPLERS) * len(DEFAULT_RATES)
    for srow in summary:
        group = [
            r
            for r in rows
            if r["sampler"] == srow["sampler"] and r["rate"] == srow["rate"]
        ]
        assert srow["cells"] == len(group)
        assert srow["inners"] == len(DEFAULT_INNERS)
        assert srow["traces"] == len(GOLDEN)
        assert srow["mean_recall"] == pytest.approx(
            sum(r["recall"] for r in group) / len(group)
        )
        assert srow["min_recall"] == min(r["recall"] for r in group)
        assert 0.0 <= srow["mean_effective_rate"] <= 1.0


def test_recall_floor_holds(rows):
    """Every sub-1.0 (policy, rate) mean recall stays at or above the
    floor that ``repro-race sampling`` gates on."""
    summary = summarize(rows)
    assert floor_failures(summary) == []
    assert min(
        s["mean_recall"] for s in summary if s["rate"] < 1.0
    ) >= RECALL_FLOOR


def test_sampling_report_shape(report):
    assert report["schema"] == SAMPLING_SCHEMA
    assert report["samplers"] == list(SAMPLERS)
    assert report["inners"] == list(DEFAULT_INNERS)
    assert report["rates"] == list(DEFAULT_RATES)
    assert report["summary"] == summarize(report["rows"])
    assert report["identity"]["ok"]
    assert report["identity"]["cells"] == (
        len(GOLDEN) * len(DEFAULT_INNERS) * len(SAMPLERS)
    )
    assert report["recall_floor"] == {
        "floor": RECALL_FLOOR,
        "failures": [],
        "ok": True,
    }
    assert all("speedup_vs_full" not in r for r in report["rows"])
