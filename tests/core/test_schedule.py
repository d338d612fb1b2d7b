"""Tests for repro.core.schedule: the schedule representation and safety checks."""

import pytest

from repro.core.schedule import ExecutionUnit, ParallelPhase, Schedule
from repro.isl.relations import FiniteRelation


def two_phase_schedule():
    p1 = ParallelPhase(
        "first", (ExecutionUnit.single("s", (1,)), ExecutionUnit.single("s", (2,)))
    )
    p2 = ParallelPhase(
        "second", (ExecutionUnit.chain("s", [(3,), (4,)]),)
    )
    return Schedule.from_phases("test", [p1, p2])


class TestStructure:
    def test_unit_constructors(self):
        assert ExecutionUnit.single("s", (1, 2)).instances == (("s", (1, 2)),)
        assert ExecutionUnit.chain("s", [(1,), (2,)]).kind == "chain"
        assert ExecutionUnit.block([("a", (1,)), ("b", (2,))]).work == 2

    def test_counts(self):
        sched = two_phase_schedule()
        assert sched.num_phases == 2
        assert sched.total_work == 4
        assert sched.span == 1 + 2
        assert sched.max_parallelism == 2
        assert sched.ideal_speedup() == pytest.approx(4 / 3)
        assert sched.instance_counts() == {"first": 2, "second": 2}

    def test_empty_phases_dropped(self):
        sched = Schedule.from_phases(
            "t", [ParallelPhase("empty", ()), ParallelPhase("x", (ExecutionUnit.single("s", (1,)),))]
        )
        assert sched.num_phases == 1

    def test_sequential_factory(self):
        sched = Schedule.sequential("seq", [("s", (1,)), ("s", (2,))])
        assert sched.num_phases == 1
        assert sched.span == 2
        assert sched.max_parallelism == 1

    def test_phase_metrics(self):
        phase = ParallelPhase("p", (ExecutionUnit.chain("s", [(1,), (2,), (3,)]), ExecutionUnit.single("s", (9,))))
        assert phase.work == 4
        assert phase.span == 3
        assert len(phase.instances()) == 4


class TestCoverage:
    def test_covers(self):
        sched = two_phase_schedule()
        assert sched.covers([("s", (i,)) for i in (1, 2, 3, 4)])
        assert not sched.covers([("s", (i,)) for i in (1, 2, 3)])
        assert not sched.covers([("s", (i,)) for i in (1, 2, 3, 4, 5)])

    def test_duplicate_instance_fails_coverage(self):
        p = ParallelPhase(
            "p", (ExecutionUnit.single("s", (1,)), ExecutionUnit.single("s", (1,)))
        )
        sched = Schedule.from_phases("dup", [p])
        assert not sched.covers([("s", (1,))])

    def test_execution_index(self):
        sched = two_phase_schedule()
        index = sched.execution_index()
        assert index[("s", (1,))][0] == 0
        assert index[("s", (4,))] == (1, 0, 1)


class TestDependenceSafety:
    def test_respects_cross_phase(self):
        sched = two_phase_schedule()
        deps = FiniteRelation.from_pairs([((1,), (3,)), ((2,), (4,))])
        assert sched.respects(deps)
        assert sched.violations(deps) == []

    def test_respects_within_unit_order(self):
        sched = two_phase_schedule()
        deps = FiniteRelation.from_pairs([((3,), (4,))])
        assert sched.respects(deps)

    def test_violation_within_phase_across_units(self):
        sched = two_phase_schedule()
        deps = FiniteRelation.from_pairs([((1,), (2,))])
        assert not sched.respects(deps)
        assert len(sched.violations(deps)) == 1

    def test_violation_backwards_phases(self):
        sched = two_phase_schedule()
        deps = FiniteRelation.from_pairs([((3,), (1,))])
        assert not sched.respects(deps)

    def test_violation_wrong_order_inside_unit(self):
        sched = two_phase_schedule()
        deps = FiniteRelation.from_pairs([((4,), (3,))])
        assert not sched.respects(deps)

    def test_label_filter(self):
        p = ParallelPhase(
            "p", (ExecutionUnit.single("a", (1,)), ExecutionUnit.single("b", (2,)))
        )
        sched = Schedule.from_phases("t", [p])
        deps = FiniteRelation.from_pairs([((1,), (2,))])
        # with the label filter, only same-label instances are constrained
        assert sched.respects(deps, label="a")
        assert not sched.respects(deps)

    def test_key_maps_instances_into_the_relation_space(self):
        """A relation over another point space (here: label-tagged vectors)
        is matched through ``key``; under the default key it matches
        nothing, so it could not catch the race."""
        p = ParallelPhase(
            "p", (ExecutionUnit.single("a", (1,)), ExecutionUnit.single("b", (1,)))
        )
        sched = Schedule.from_phases("t", [p])
        deps = FiniteRelation.from_pairs([((0, 1), (1, 1))])
        key = lambda label, it: ({"a": 0, "b": 1}[label],) + tuple(it)  # noqa: E731
        assert sched.violations(deps) == []
        assert sched.violations(deps, key=key) == [(("a", (1,)), ("b", (1,)))]
        assert not sched.respects(deps, key=key)

    def test_summary_keys(self):
        summary = two_phase_schedule().summary()
        assert {"name", "phases", "work", "span", "max_parallelism", "phase_sizes"} <= set(summary)
