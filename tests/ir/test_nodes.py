"""Tests for repro.ir.nodes: array references, statements, loops."""

from fractions import Fraction

import pytest

from repro.ir.builder import E, aref, assign, loop
from repro.ir.nodes import ArrayRef, Loop, Statement


class TestArrayRef:
    def test_coefficient_matrix_figure1_write(self):
        ref = aref("a", "3*I1+1", "2*I1+I2-1")
        A, a = ref.coefficient_matrix(["I1", "I2"])
        assert A == [[Fraction(3), Fraction(2)], [Fraction(0), Fraction(1)]]
        assert a == [Fraction(1), Fraction(-1)]

    def test_coefficient_matrix_figure1_read(self):
        ref = aref("a", "I1+3", "I2+1")
        B, b = ref.coefficient_matrix(["I1", "I2"])
        assert B == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert b == [Fraction(3), Fraction(1)]

    def test_coefficient_matrix_rejects_foreign_symbols(self):
        ref = aref("a", "I1+N")
        with pytest.raises(ValueError):
            ref.coefficient_matrix(["I1"])

    def test_evaluate(self):
        ref = aref("a", "3*I1+1", "2*I1+I2-1")
        assert ref.evaluate({"I1": 2, "I2": 5}) == (7, 8)

    def test_rank_and_variables(self):
        ref = aref("a", "I+J", "K")
        assert ref.rank == 2
        assert ref.variables() == ("I", "J", "K")

    def test_make_coerces(self):
        ref = ArrayRef.make("a", ["I", 3])
        assert str(ref) == "a(I, 3)"


class TestStatement:
    def test_assign_factory(self):
        s = assign("s", aref("a", "I"), [aref("a", "I+1"), aref("b", "I")])
        assert s.label == "s"
        assert len(s.writes) == 1 and len(s.reads) == 2
        assert s.arrays() == ("a", "b")
        assert len(s.references()) == 3

    def test_equality_ignores_semantics(self):
        fn = lambda arrays, env, reads: 1
        s1 = Statement("s", (aref("a", "I"),), (), fn)
        s2 = Statement("s", (aref("a", "I"),), (), None)
        assert s1 == s2


class TestLoop:
    def test_single_bounds(self):
        l = loop("I", 1, "N")
        assert l.lower == (E(1),)
        assert l.upper == (E("N"),)
        assert l.stride == 1

    def test_multi_bounds_max_min(self):
        l = loop("I", ["-4", "-J"], [-1, "K"])
        assert len(l.lower) == 2 and len(l.upper) == 2
        assert l.evaluate_bounds({"J": 2, "K": 5}) == (-2, -1)
        assert l.evaluate_bounds({"J": 10, "K": -3}) == (-4, -3)

    def test_evaluate_bounds_single(self):
        l = loop("I", 1, "N")
        assert l.evaluate_bounds({"N": 7}) == (1, 7)

    def test_statements_and_inner_loops(self):
        inner = loop("J", 1, 3, assign("s", aref("a", "J")))
        outer = loop("I", 1, 2, inner, assign("t", aref("b", "I")))
        assert [s.label for s in outer.statements()] == ["s", "t"]
        assert [l.index for l in outer.inner_loops()] == ["J"]

    def test_str_rendering(self):
        assert str(loop("I", 1, "N")) == "DO I = 1, N"
        assert "MAX" in str(loop("I", [1, "J"], "N"))
        assert "MIN" in str(loop("I", 1, ["N", "M"]))
        assert str(loop("I", 10, 1, stride=-1)).endswith(", -1")

    def test_empty_bound_tuple_rejected(self):
        with pytest.raises(ValueError):
            Loop.make("I", [], 5)
