"""Tests for the table regeneration functions (small workload subsets
keep these fast; the paper's claims over the full suite are asserted on
counted quantities in test_paper_claims.py)."""

from repro.analysis.tables import (
    format_table,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)

SUBSET = ["hmmsearch", "ffmpeg"]
KW = dict(scale=0.25, seed=1, workloads=SUBSET)


def test_table1_columns_and_order():
    rows = table1(**KW)
    assert [r["program"] for r in rows] == SUBSET
    for r in rows:
        assert r["slowdown_byte"] > 1
        assert r["mem_overhead_dynamic"] >= 1
        assert r["races_byte"] >= 0


def test_table2_breakdown_bounds():
    """Per-category peaks occur at different instants, so their sum
    bounds the true total peak from above (the paper notes the same
    timing subtlety for dedup)."""
    rows = table2(**KW)
    for r in rows:
        for tag in ("byte", "word", "dynamic"):
            parts = (r[f"hash_{tag}"], r[f"vc_{tag}"], r[f"bitmap_{tag}"])
            assert max(parts) <= r[f"total_{tag}"] <= sum(parts)


def test_table3_dynamic_fewest_clocks():
    rows = table3(**KW)
    for r in rows:
        assert r["max_vectors_dynamic"] <= r["max_vectors_byte"]
        assert r["avg_sharing_dynamic"] >= 1.0


def test_table4_percentages_in_range():
    rows = table4(**KW)
    for r in rows:
        for tag in ("byte", "word", "dynamic"):
            assert 0.0 <= r[f"same_epoch_{tag}"] <= 100.0


def test_table5_init_state_columns():
    rows = table5(**KW)
    for r in rows:
        assert r["mem_sharing_at_init"] <= r["mem_no_sharing_at_init"]
        assert r["races_with_init_state"] <= r["races_no_init_state"]


def test_table6_tool_columns():
    rows = table6(**KW)
    for r in rows:
        assert r["slowdown_drd"] > 0
        assert r["slowdown_inspector"] > 0
        assert r["races_dynamic"] >= 0


def test_format_table_renders_average_row():
    rows = table3(**KW)
    text = format_table(rows, "T3")
    assert "T3" in text
    assert "Average" in text
    assert "hmmsearch" in text


def test_format_table_empty():
    assert format_table([]) == "(no rows)"
