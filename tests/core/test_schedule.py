"""Tests for repro.core.schedule: the schedule representation and safety checks."""

import numpy as np
import pytest

from repro.core.schedule import Phase, Schedule
from repro.isl.relations import FiniteRelation


def phase(name, *units, labels=("s",)):
    """A :class:`Phase` from units given as ``(label, point)`` instance lists."""
    instances = [inst for unit in units for inst in unit]
    offsets = np.cumsum([0] + [len(u) for u in units])
    return Phase(
        name,
        [labels.index(label) for label, _ in instances],
        np.array([p for _, p in instances], dtype=np.int64).reshape(len(instances), -1),
        offsets,
    )


def schedule(name, *phases, labels=("s",)):
    return Schedule.from_phases(name, phases, labels, (1,) * len(labels))


def two_phase_schedule():
    p1 = phase("first", [("s", (1,))], [("s", (2,))])
    p2 = phase("second", [("s", (3,)), ("s", (4,))])
    return schedule("test", p1, p2)


class TestStructure:
    def test_counts(self):
        sched = two_phase_schedule()
        assert sched.num_phases == 2
        assert sched.total_work == 4
        assert sched.span == 1 + 2
        assert sched.max_parallelism == 2
        assert sched.ideal_speedup() == pytest.approx(4 / 3)

    def test_empty_phases_dropped(self):
        empty = Phase("empty", np.zeros(0, dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
        sched = schedule("t", empty, phase("x", [("s", (1,))]))
        assert sched.num_phases == 1

    def test_phase_metrics(self):
        p = phase("p", [("s", (1,)), ("s", (2,)), ("s", (3,))], [("s", (9,))])
        assert len(p) == 2
        assert p.work == 4
        assert p.span == 3
        assert p.unit_lengths().tolist() == [3, 1]
        assert len(schedule("t", p).phase_instances(p)) == 4

    def test_single_instance_units_normalise_to_none(self):
        """Offsets that give every instance its own unit are stored as
        ``None``, so both spellings of a DOALL phase compare equal."""
        explicit = Phase("p", [0, 0], [[1], [2]], [0, 1, 2])
        implicit = Phase("p", [0, 0], [[1], [2]])
        assert explicit.unit_offsets is None
        assert explicit == implicit
        assert explicit != Phase("p", [0, 0], [[1], [2]], [0, 2])

    def test_invalid_offsets_rejected(self):
        for offsets in ([0, 1], [1, 2], [0, 0, 2], [0, 2, 1, 2]):
            with pytest.raises(ValueError):
                Phase("p", [0, 0], [[1], [2]], offsets)
        with pytest.raises(ValueError):
            Phase("p", [0], [[1], [2]])

    def test_arrays_are_read_only(self):
        p = phase("p", [("s", (1,)), ("s", (2,))])
        with pytest.raises(ValueError):
            p.iters[0, 0] = 7
        with pytest.raises(ValueError):
            p.unit_offsets[0] = 1

    def test_instances_trim_padding_to_statement_depth(self):
        p = Phase("p", [0, 1], [[1, 0], [1, 2]])
        sched = Schedule.from_phases("t", [p], ("a", "b"), (1, 2))
        assert sched.instances() == [("a", (1,)), ("b", (1, 2))]


class TestCoverage:
    def test_covers(self):
        sched = two_phase_schedule()
        assert sched.covers([("s", (i,)) for i in (1, 2, 3, 4)])
        assert not sched.covers([("s", (i,)) for i in (1, 2, 3)])
        assert not sched.covers([("s", (i,)) for i in (1, 2, 3, 4, 5)])

    def test_duplicate_instance_fails_coverage(self):
        sched = schedule("dup", phase("p", [("s", (1,))], [("s", (1,))]))
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
        labels = ("a", "b")
        p = phase("p", [("a", (1,))], [("b", (2,))], labels=labels)
        sched = schedule("t", p, labels=labels)
        deps = FiniteRelation.from_pairs([((1,), (2,))])
        # with the label filter, only same-label instances are constrained
        assert sched.respects(deps, label="a")
        assert not sched.respects(deps)

    def test_key_maps_instances_into_the_relation_space(self):
        """A relation over another point space (here: label-tagged vectors)
        is matched through ``key``; under the default key it matches
        nothing, so it could not catch the race."""
        labels = ("a", "b")
        p = phase("p", [("a", (1,))], [("b", (1,))], labels=labels)
        sched = schedule("t", p, labels=labels)
        deps = FiniteRelation.from_pairs([((0, 1), (1, 1))])
        key = lambda label, it: ({"a": 0, "b": 1}[label],) + tuple(it)  # noqa: E731
        assert sched.violations(deps) == []
        assert sched.violations(deps, key=key) == [(("a", (1,)), ("b", (1,)))]
        assert not sched.respects(deps, key=key)

    def test_summary_keys(self):
        summary = two_phase_schedule().summary()
        assert {"name", "phases", "work", "span", "max_parallelism", "phase_sizes"} <= set(summary)
