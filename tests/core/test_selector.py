"""Tests for the selection policy of repro.core.strategy.

``plan()`` orders the registered chain with one policy: a pinned
``PlanConfig.strategies`` is walked literally; otherwise the feature bucket's
calibrated strategies (``selection_table.json``) come first and the rest
follow in registry order, so an uncalibrated bucket walks Algorithm 1's
registry chain.  These tests pin the :class:`SelectionReport` attached to
every plan, the calibrated table's loading and its fallback, and a guard that
no benchmarked program is decided by the fallback.  The bit-identity of
``PlanConfig(strategies=strategy_names())`` with the historical chain is
pinned separately in ``test_strategy.py``.
"""

import pytest

import oracle
from repro.analysis.features import program_features
from repro.core.strategy import (
    SELECTION_TABLE_PATH,
    PlanConfig,
    SelectionReport,
    clear_selection_table_cache,
    load_selection_table,
    plan,
    strategy_names,
)
from repro.workloads.corpus import selection_corpus
from repro.workloads.examples import example3_loop, figure1_loop, figure2_loop

SMALL_CORPUS = selection_corpus(size="small")


@pytest.fixture(autouse=True)
def fresh_table_cache():
    clear_selection_table_cache()
    yield
    clear_selection_table_cache()


class TestRegistry:
    def test_planconfig_rejects_unknown_selector(self):
        # The selector knob is retired: any value is refused, not ignored.
        with pytest.raises(TypeError, match="selector"):
            PlanConfig(selector="banana")


class TestSelectionReports:
    def test_table_selector_on_calibrated_bucket(self):
        p = plan(figure1_loop(10, 10), cache=False)
        sel = p.selection
        assert isinstance(sel, SelectionReport)
        assert sel.source == "calibrated workload table"
        assert sel.bucket == "perfect|1cp|coupled|nonuniform|rect|d2|dep"
        assert sel.order[0] == "recurrence-chains"
        assert p.strategy == "recurrence-chains"
        # scores cover the whole chain, calibrated entries first
        assert [name for name, _, _ in sel.scores] == list(sel.order)
        assert "calibrated" in sel.scores[0][2]

    def test_selectors_only_reorder_the_chain(self):
        for config in (PlanConfig(), PlanConfig(strategies=strategy_names())):
            p = plan(figure2_loop(12), config=config, cache=False)
            assert sorted(p.selection.order) == sorted(strategy_names())

    def test_table_falls_back_on_uncalibrated_bucket(self):
        # Example 3's bucket is not in the corpus-derived table, so the
        # table's fallback walks the registry chain.
        p = plan(example3_loop(8), cache=False)
        sel = p.selection
        assert sel.bucket not in load_selection_table()["buckets"]
        assert sel.source == "bucket not calibrated; registry order"
        assert sel.order == strategy_names()
        assert sel.scores == () and sel.features is not None
        assert p.strategy == "dataflow"
        chain = plan(
            example3_loop(8),
            config=PlanConfig(strategies=strategy_names()), cache=False,
        )
        assert chain.strategy == p.strategy
        assert oracle.schedule_phases(p.schedule) == oracle.schedule_phases(chain.schedule)

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
        assert "selection: calibrated workload table" in ranked
        assert "- score recurrence-chains" in ranked
        assert "features:" in ranked and "bucket:" in ranked

        pinned = plan(
            figure1_loop(10, 10),
            config=PlanConfig(strategies=strategy_names()), cache=False,
        ).explain()
        assert "- score" not in pinned and "features:" not in pinned


class TestRegistryFallback:
    """An uncalibrated bucket walks the registry chain, and no benchmarked
    program depends on that fallback."""

    @pytest.mark.parametrize(
        "entry", SMALL_CORPUS, ids=[e.name for e in SMALL_CORPUS]
    )
    def test_every_corpus_bucket_is_calibrated(self, entry):
        bucket = program_features(entry.program, entry.params, cache=False).bucket()
        assert bucket in load_selection_table()["buckets"]

    def test_explain_shows_features_without_scores(self):
        text = plan(example3_loop(8), cache=False).explain()
        assert "selection: bucket not calibrated; registry order" in text
        assert "features:" in text and "bucket:" in text
        assert "- score" not in text


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
        """Without a table, Figure 1 still gets the plan the retired feature
        rules gave it, now because recurrence chains head the registry chain."""
        import repro.core.strategy as strategy_mod

        monkeypatch.setattr(
            strategy_mod, "SELECTION_TABLE_PATH", tmp_path / "absent.json"
        )
        clear_selection_table_cache()
        p = plan(figure1_loop(10, 10), cache=False)
        assert p.selection.source == "bucket not calibrated; registry order"
        assert p.selection.order == strategy_names()
        assert p.strategy == "recurrence-chains"  # the chain's head applies

    def test_checked_in_path_is_packaged_beside_the_module(self):
        assert SELECTION_TABLE_PATH.name == "selection_table.json"
        assert SELECTION_TABLE_PATH.exists()
