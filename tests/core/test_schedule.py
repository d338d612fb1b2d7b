"""Tests for repro.core.schedule: the schedule representation and safety checks."""

import itertools

import numpy as np
import pytest

import oracle
from repro.core.schedule import Phase, Schedule
from repro.core.statement import build_statement_space
from repro.ir.builder import aref, assign, loop, program


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


def line_space(n):
    """The statement space of one statement ``s`` over ``I = 1..n``."""
    prog = program(
        "line", loop("I", 1, n, assign("s", aref("y", "I"), [])), array_shapes={"y": (n + 1,)}
    )
    return build_statement_space(prog, {})


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
        assert len(oracle.phase_instances(schedule("t", p), p)) == 4

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
        assert oracle.instances(sched) == [("a", (1,)), ("b", (1, 2))]


class TestCoverage:
    def test_covers(self):
        sched = two_phase_schedule()
        assert sched.covers(line_space(4))
        assert not sched.covers(line_space(3))  # (4,) is not an instance
        assert not sched.covers(line_space(5))  # (5,) is never run

    def test_duplicate_instance_fails_coverage(self):
        sched = schedule("dup", phase("p", [("s", (1,))], [("s", (1,))]))
        assert not sched.covers(line_space(1))
        twice = schedule("dup", phase("p", [("s", (1,))]), phase("q", [("s", (1,))]))
        assert not twice.covers(line_space(1))

    def test_foreign_statement_fails_coverage(self):
        labels = ("s", "t")
        sched = schedule(
            "t", phase("p", [("s", (1,))], [("t", (2,))], labels=labels), labels=labels
        )
        assert not sched.covers(line_space(2))

    def test_empty_schedule_covers_only_the_empty_space(self):
        empty = Schedule.from_phases("t", [], ("s",), (1,))
        assert empty.covers(line_space(0))
        assert not empty.covers(line_space(1))


class TestDependenceSafety:
    def test_respects_cross_phase(self):
        sched = two_phase_schedule()
        deps = oracle.relation([((1,), (3,)), ((2,), (4,))])
        assert sched.respects(deps)
        assert sched.violations(deps) == []

    def test_respects_within_unit_order(self):
        sched = two_phase_schedule()
        deps = oracle.relation([((3,), (4,))])
        assert sched.respects(deps)

    def test_violation_within_phase_across_units(self):
        sched = two_phase_schedule()
        deps = oracle.relation([((1,), (2,))])
        assert not sched.respects(deps)
        assert sched.violations(deps) == [(("s", (1,)), ("s", (2,)))]

    def test_violation_backwards_phases(self):
        sched = two_phase_schedule()
        deps = oracle.relation([((3,), (1,))])
        assert not sched.respects(deps)

    def test_violation_wrong_order_inside_unit(self):
        sched = two_phase_schedule()
        deps = oracle.relation([((4,), (3,))])
        assert not sched.respects(deps)

    def test_violations_match_the_oracle_walk(self):
        """Every ordered pair of instances (self-pairs too), alone and all
        together: the positions the codec-key check compares are the
        oracle's."""
        sched = two_phase_schedule()
        every = [((a,), (b,)) for a, b in itertools.product((1, 2, 3, 4), repeat=2)]
        for deps in [oracle.relation([pair]) for pair in every] + [oracle.relation(every)]:
            assert sorted(sched.violations(deps)) == sorted(oracle.violations(sched, deps))
            assert sched.respects(deps) == (not oracle.violations(sched, deps))

    def test_unscheduled_ends_are_left_to_coverage(self):
        sched = two_phase_schedule()
        assert sched.respects(oracle.relation([((9,), (1,)), ((4,), (9,))]))

    def test_bare_relation_refused_for_several_statements(self):
        labels = ("a", "b")
        sched = schedule("t", phase("p", [("a", (1,))], labels=labels), labels=labels)
        with pytest.raises(ValueError):
            sched.respects(oracle.relation([((1,), (2,))]))

    def test_key_maps_instances_into_the_relation_space(self):
        """Given the statement space, each instance is keyed by its unified
        vector, so two statements that share an iteration vector are told
        apart and a race between them is caught."""
        prog = program(
            "two-statements",
            loop(
                "I", 1, 2,
                assign("a", aref("y", "I"), []),
                assign("b", aref("z", "I"), [aref("y", "I")]),
            ),
            array_shapes={"y": (4,), "z": (4,)},
        )
        space = build_statement_space(prog, {})
        labels = ("a", "b")
        racy = schedule(
            "t", phase("p", [("a", (1,))], [("b", (1,))], labels=labels), labels=labels
        )
        assert racy.violations(space) == [(("a", (1,)), ("b", (1,)))]
        assert not racy.respects(space)
        ordered = schedule(
            "t", phase("p", [("a", (1,)), ("b", (1,))], labels=labels), labels=labels
        )
        assert ordered.respects(space)

    def test_summary_keys(self):
        summary = two_phase_schedule().summary()
        assert {"name", "phases", "work", "span", "max_parallelism", "phase_sizes"} <= set(summary)
