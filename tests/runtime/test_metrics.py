"""Tests for repro.runtime.metrics: speedup tables and scheme comparison."""

import pytest

from repro.baselines import pdm_schedule, pl_schedule
from repro.core import PlanConfig, plan
from repro.dependence import DependenceAnalysis
from repro.runtime.metrics import (
    SpeedupTable,
    compare_schemes,
    crossover_points,
    schedule_parallelism,
)
from repro.runtime.simulator import CostModel
from repro.workloads.examples import figure1_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


class TestScheduleParallelism:
    def test_figure1(self):
        result = plan(figure1_loop(10, 10), config=ALGORITHM1, cache=False)
        metrics = schedule_parallelism(result.schedule)
        assert metrics["work"] == 100.0
        assert metrics["phases"] == 3.0
        assert metrics["average_parallelism"] > 10

    def test_empty_schedule_reports_zero_not_nan(self):
        from repro.core.schedule import Schedule

        metrics = schedule_parallelism(Schedule.from_phases("empty", []))
        assert metrics["work"] == 0.0
        assert metrics["span"] == 0.0
        assert metrics["average_parallelism"] == 0.0  # not NaN


class TestCompareSchemes:
    def make_table(self):
        prog = figure1_loop(20, 30)
        analysis = DependenceAnalysis(prog, {})
        schedules = {
            "REC": plan(prog, config=ALGORITHM1, cache=False).schedule,
            "PDM": pdm_schedule(prog, {}, analysis),
            "PL": pl_schedule(prog, {}, analysis),
        }
        return compare_schemes(schedules, (1, 2, 3, 4))

    def test_table_shape(self):
        table = self.make_table()
        assert table.processors == (1, 2, 3, 4)
        assert set(table.series) == {"REC", "PDM", "PL"}
        assert len(table.row("REC")) == 4

    def test_winner(self):
        table = self.make_table()
        assert table.winner(4) in {"REC", "PDM", "PL"}

    def test_winner_with_missing_entries(self):
        # B has no entry at p=2: it counts as 0.0 speedup, no KeyError
        table = SpeedupTable(
            (1, 2), {"A": {1: 1.0, 2: 3.0}, "B": {1: 2.0}}
        )
        assert table.winner(1) == "B"
        assert table.winner(2) == "A"

    def test_winner_all_missing(self):
        table = SpeedupTable((1,), {"A": {}, "B": {}})
        assert table.winner(1) in {"A", "B"}

    def test_format_contains_all_schemes(self):
        text = self.make_table().format()
        for name in ("REC", "PDM", "PL", "p=1", "p=4"):
            assert name in text

    def test_per_scheme_cost_models(self):
        prog = figure1_loop(20, 30)
        rec = plan(prog, config=ALGORITHM1, cache=False).schedule
        cheap = CostModel(instance_cost_factor=0.5)
        table = compare_schemes({"REC": rec}, (1, 2), {"REC": cheap})
        assert table.series["REC"][1] > 1.5  # super-linear due to cost factor


class TestCrossover:
    def test_no_crossover(self):
        table = SpeedupTable(
            (1, 2, 3, 4),
            {"A": {1: 1, 2: 2, 3: 3, 4: 4}, "B": {1: 0.5, 2: 1, 3: 1.5, 4: 2}},
        )
        assert crossover_points(table, "A", "B") == []

    def test_single_crossover(self):
        table = SpeedupTable(
            (1, 2, 3, 4),
            {"A": {1: 2, 2: 2.5, 3: 2.8, 4: 2.9}, "B": {1: 1, 2: 2, 3: 3, 4: 3.8}},
        )
        assert crossover_points(table, "A", "B") == [3]
