"""Tests for repro.ir.program: traversal, statement domains, sequential order."""

import pytest

from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import example3_loop, figure1_loop


def perfect_2d(n1=4, n2=3):
    body = assign("s", aref("a", "I1", "I2"), [aref("a", "I1", "I2")])
    return program(
        "p", loop("I1", 1, n1, loop("I2", 1, n2, body)), array_shapes={"a": (10, 10)}
    )


def imperfect():
    s1 = assign("s1", aref("a", "I"), [])
    s2 = assign("s2", aref("b", "I", "J"), [])
    return program(
        "q",
        loop("I", 1, 3, s1, loop("J", 1, 2, s2)),
        array_shapes={"a": (10,), "b": (10, 10)},
    )


class TestTraversal:
    def test_statement_contexts(self):
        prog = imperfect()
        contexts = prog.statement_contexts()
        assert [c.statement.label for c in contexts] == ["s1", "s2"]
        assert contexts[0].index_names == ("I",)
        assert contexts[1].index_names == ("I", "J")
        assert contexts[0].depth == 1 and contexts[1].depth == 2

    def test_positions_are_distinct(self):
        prog = imperfect()
        positions = [c.position for c in prog.statement_contexts()]
        assert len(set(positions)) == len(positions)

    def test_context_of(self):
        prog = imperfect()
        assert prog.context_of("s2").statement.label == "s2"
        with pytest.raises(KeyError):
            prog.context_of("missing")

    def test_loops_and_arrays(self):
        prog = imperfect()
        assert [l.index for l in prog.loops()] == ["I", "J"]
        assert prog.arrays() == ("a", "b")


class TestShapeQueries:
    def test_perfect_nest_detection(self):
        assert perfect_2d().is_perfect_nest()
        assert not imperfect().is_perfect_nest()
        assert figure1_loop(5, 5).is_perfect_nest()
        assert not example3_loop(5).is_perfect_nest()

    def test_perfect_nest_loops(self):
        assert [l.index for l in perfect_2d().perfect_nest_loops()] == ["I1", "I2"]
        with pytest.raises(ValueError):
            imperfect().perfect_nest_loops()

    def test_index_names(self):
        assert perfect_2d().index_names() == ("I1", "I2")


class TestIterationSpace:
    def test_statement_domain_box(self):
        domain = perfect_2d(4, 3).statement_contexts()[0].domain()
        assert domain.contains((1, 1)) and domain.contains((4, 3))
        assert not domain.contains((5, 1)) and not domain.contains((0, 1))

    def test_statement_domain_parametric(self):
        prog = figure1_loop()
        domain = prog.statement_contexts()[0].domain(prog.parameters)
        assert domain.parameters == ("N1", "N2")
        assert domain.contains((3, 3), params={"N1": 5, "N2": 5})
        assert not domain.contains((3, 3), params={"N1": 2, "N2": 2})
        bound = domain.bind_parameters({"N1": 5, "N2": 5})
        assert bound.parameters == ()
        assert bound.contains((5, 5)) and not bound.contains((6, 5))

    def test_statement_domain_triangular(self):
        prog = example3_loop(6)
        ctx = prog.context_of("s1")
        domain = ctx.domain()
        assert domain.contains((3, 2, 2))
        assert not domain.contains((3, 2, 1))  # K >= J violated
        assert not domain.contains((3, 4, 4))  # J <= I violated


class TestSequentialOrder:
    def test_rectangular_order(self):
        prog = perfect_2d(2, 2)
        seq = prog.sequential_iterations({})
        assert seq == [
            ("s", (1, 1)),
            ("s", (1, 2)),
            ("s", (2, 1)),
            ("s", (2, 2)),
        ]

    def test_imperfect_order(self):
        prog = imperfect()
        seq = prog.sequential_iterations({})
        assert seq[:4] == [
            ("s1", (1,)),
            ("s2", (1, 1)),
            ("s2", (1, 2)),
            ("s1", (2,)),
        ]

    def test_triangular_counts(self):
        prog = example3_loop(5)
        seq = prog.sequential_iterations({})
        s1_count = sum(1 for label, _ in seq if label == "s1")
        s2_count = sum(1 for label, _ in seq if label == "s2")
        # s1: sum over I of sum over J<=I of (I-J+1); s2: sum over I of I
        assert s2_count == 15
        assert s1_count == sum(
            (i - j + 1) for i in range(1, 6) for j in range(1, i + 1)
        )

    def test_parameters_required(self):
        prog = figure1_loop()
        with pytest.raises(KeyError):
            prog.sequential_iterations({})

    def test_reference_pairs_include_write_read(self):
        prog = figure1_loop(4, 4)
        pairs = prog.reference_pairs()
        # single statement, one write and one read to 'a': write-read and write-write(self excluded)
        arrays = {(r1.array, r2.array) for _, r1, _, r2 in pairs}
        assert arrays == {("a", "a")}
        assert len(pairs) >= 1
