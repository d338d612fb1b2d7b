"""Tests for the strategy-selector layer of repro.core.strategy.

``plan()``'s dispatch is a selector (``fixed`` / ``feature_rules`` /
``table``) ranking the registered chain; these tests pin the registry
surface, the :class:`SelectionReport` attached to every plan, the calibrated
table's loading/fallback behavior, and the bypass rules (pinned orders,
single-strategy chains).  The bit-identity of
``selector="fixed"`` with the historical chain is pinned separately in
``test_strategy.py``.
"""

import pytest

from repro.core.strategy import (
    DEFAULT_SELECTOR,
    SELECTION_TABLE_PATH,
    PlanConfig,
    Score,
    SelectionReport,
    clear_selection_table_cache,
    get_selector,
    get_strategy,
    load_selection_table,
    plan,
    selector_names,
    strategy_names,
)
from repro.workloads.examples import example3_loop, figure1_loop, figure2_loop


@pytest.fixture(autouse=True)
def fresh_table_cache():
    clear_selection_table_cache()
    yield
    clear_selection_table_cache()


class TestRegistry:
    def test_registered_selectors(self):
        assert selector_names() == ("fixed", "feature_rules", "table")
        assert DEFAULT_SELECTOR == "table"
        assert PlanConfig().selector == "table"

    def test_get_selector(self):
        sel = get_selector("feature_rules")
        assert sel.name == "feature_rules" and callable(sel.rank)
        with pytest.raises(KeyError, match="unknown selector 'banana'"):
            get_selector("banana")

    def test_planconfig_rejects_unknown_selector(self):
        with pytest.raises(ValueError, match="unknown selector"):
            PlanConfig(selector="banana")

    def test_every_strategy_has_a_score_hook(self):
        from repro.analysis.features import program_features

        features = program_features(figure1_loop(6, 6), cache=False)
        for name in strategy_names():
            s = get_strategy(name).score(features)
            assert isinstance(s, Score)
            assert 0.0 <= s.value <= 1.0 and s.reason


class TestSelectionReports:
    def test_table_selector_on_calibrated_bucket(self):
        p = plan(figure1_loop(10, 10), cache=False)
        sel = p.selection
        assert isinstance(sel, SelectionReport)
        assert sel.selector == "table"
        assert sel.source == "calibrated workload table"
        assert sel.bucket == "perfect|1cp|coupled|nonuniform|rect|d2|dep"
        assert sel.order[0] == "recurrence-chains"
        assert p.strategy == "recurrence-chains"
        # scores cover the whole chain, calibrated entries first
        assert [name for name, _, _ in sel.scores] == list(sel.order)
        assert "calibrated" in sel.scores[0][2]

    def test_table_falls_back_on_uncalibrated_bucket(self):
        # example3's bucket is not in the corpus-derived table
        p = plan(example3_loop(8), cache=False)
        sel = p.selection
        assert sel.selector == "table"
        assert sel.source == "bucket not calibrated; feature-rule fallback"
        assert sel.scores and sel.features is not None
        assert sel.bucket not in load_selection_table()["buckets"]

    def test_feature_rules_selector(self):
        p = plan(
            figure1_loop(10, 10),
            config=PlanConfig(selector="feature_rules"), cache=False,
        )
        sel = p.selection
        assert sel.selector == "feature_rules"
        assert sel.order[0] == "recurrence-chains"  # non-uniform single pair
        # scores are sorted descending and cover every registered strategy
        values = [v for _, v, _ in sel.scores]
        assert values == sorted(values, reverse=True)
        assert set(sel.order) == set(strategy_names())

    def test_selectors_only_reorder_the_chain(self):
        for name in selector_names():
            p = plan(
                figure2_loop(12),
                config=PlanConfig(selector=name), cache=False,
            )
            assert sorted(p.selection.order) == sorted(strategy_names())

    def test_pinned_order_skips_selection(self):
        p = plan(
            figure1_loop(8, 8),
            config=PlanConfig(strategies=("dataflow", "doacross")),
            cache=False,
        )
        sel = p.selection
        assert sel.source == "pinned order (PlanConfig.strategies)"
        assert sel.order == ("dataflow", "doacross")
        assert sel.scores == () and sel.features is None

    def test_explain_shows_scores_for_ranked_plans_only(self):
        ranked = plan(figure1_loop(10, 10), cache=False).explain()
        assert "selector 'table'" in ranked or "selector" in ranked
        assert "- score recurrence-chains" in ranked
        assert "features:" in ranked and "bucket:" in ranked

        fixed = plan(
            figure1_loop(10, 10),
            config=PlanConfig(selector="fixed"), cache=False,
        ).explain()
        assert "- score" not in fixed and "features:" not in fixed


class TestSelectionTable:
    def test_checked_in_table_loads_and_is_cached(self):
        table = load_selection_table()
        assert table["version"] == 1 and table["processors"] == 4
        assert table["buckets"] and table["families"]
        for entries in table["buckets"].values():
            assert entries[0]["rel_time"] == 1.0  # normalized to the best
            names = [e["strategy"] for e in entries]
            assert set(names) <= set(strategy_names())
        assert load_selection_table() is table  # per-path cache

    def test_missing_table_yields_empty(self, tmp_path):
        table = load_selection_table(tmp_path / "nope.json")
        assert table == {"version": 0, "buckets": {}, "families": {}}

    def test_missing_table_behaves_like_feature_rules(self, tmp_path, monkeypatch):
        import repro.core.strategy as strategy_mod

        monkeypatch.setattr(
            strategy_mod, "SELECTION_TABLE_PATH", tmp_path / "absent.json"
        )
        clear_selection_table_cache()
        p = plan(figure1_loop(10, 10), cache=False)
        assert p.selection.selector == "table"
        assert p.selection.source == "bucket not calibrated; feature-rule fallback"
        assert p.strategy == "recurrence-chains"  # the rules agree here

    def test_checked_in_path_is_packaged_beside_the_module(self):
        assert SELECTION_TABLE_PATH.name == "selection_table.json"
        assert SELECTION_TABLE_PATH.exists()
