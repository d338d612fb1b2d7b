"""Tests for repro.dependence.pair: matrices, recurrence form, classification."""

from fractions import Fraction

import pytest

from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.pair import ReferencePair
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop


def single_pair(prog, params=None):
    """The write/read coupled pair (ignoring the write/write output pair)."""
    analysis = DependenceAnalysis(prog, params or {})
    pairs = [
        p for p in analysis.coupled_pairs if str(p.source_ref) != str(p.target_ref)
    ]
    assert pairs, "expected at least one coupled write/read pair"
    return pairs[0]


class TestFigure1Pair:
    def test_matrices(self):
        pair = single_pair(figure1_loop(10, 10))
        A, a, B, b = pair.matrices()
        assert A == [[3, 2], [0, 1]]
        assert a == [1, -1]
        assert B == [[1, 0], [0, 1]]
        assert b == [3, 1]

    def test_recurrence_T_u(self):
        pair = single_pair(figure1_loop(10, 10))
        T, u = pair.recurrence()
        assert T.tolist() == [[3, 2], [0, 1]]
        assert u == (Fraction(-2), Fraction(-2))
        # det(T) = 3, the value the paper quotes for Example 1
        assert T.det() == 3

    def test_recurrence_successor_matches_equation(self):
        pair = single_pair(figure1_loop(10, 10))
        T, u = pair.recurrence()
        i = (4, 3)
        j = tuple(x + du for x, du in zip(T.row_apply(list(i)), u))
        # i's write address must equal j's read address
        assert pair.source_ref.evaluate({"I1": 4, "I2": 3}) == pair.target_ref.evaluate(
            {"I1": int(j[0]), "I2": int(j[1])}
        )

    def test_classification(self):
        pair = single_pair(figure1_loop(10, 10))
        assert pair.is_coupled()
        assert pair.has_coupled_subscript_dimensions()
        assert pair.is_square_full_rank()
        assert not pair.is_uniform()
        assert pair.ranks() == (2, 2)


class TestOtherPairs:
    def test_figure2_pair_1d(self):
        pair = single_pair(figure2_loop(20))
        A, a, B, b = pair.matrices()
        assert A == [[2]]
        assert B == [[-1]]
        assert b == [21]
        assert pair.is_square_full_rank()
        assert not pair.is_uniform()

    def test_example2_pair(self):
        pair = single_pair(example2_loop(12))
        T, u = pair.recurrence()
        # |det T| should be 2 (the paper's a = |det(T)| = 2 for Example 2)
        assert abs(T.det()) in (Fraction(2), Fraction(1, 2))

    def test_uniform_pair(self):
        body = assign("s", aref("a", "I", "J"), [aref("a", "I-1", "J-2")])
        prog = program(
            "uniform", loop("I", 1, 5, loop("J", 1, 5, body)), array_shapes={"a": (10, 10)}
        )
        pair = single_pair(prog)
        assert pair.is_uniform()
        assert not pair.has_coupled_subscript_dimensions()

    def test_non_square_pair_has_no_recurrence(self):
        body = assign("s", aref("a", "I+J"), [aref("a", "I")])
        prog = program(
            "flat", loop("I", 1, 5, loop("J", 1, 5, body)), array_shapes={"a": (20,)}
        )
        pair = single_pair(prog)
        assert not pair.is_square_full_rank()
        assert pair.recurrence() is None


def matrix_coupled(matrix):
    """The paper's coupled subscripts on a ``Fraction`` matrix: a column
    (subscript) mixing indices or a row (index) in several subscripts."""
    rows = [[x != 0 for x in row] for row in matrix]
    return any(sum(col) >= 2 for col in zip(*rows)) or any(sum(row) >= 2 for row in rows)


ROW_CASES = {
    "constant-write": (("3", "4"), ("I", "J"), False, False),
    "mixed-indices": (("I+J", "J"), ("I", "J"), True, True),
    "index-in-two-subscripts": (("I", "I"), ("I", "J"), True, True),
    "separable-scaled": (("2*I", "J"), ("I", "J-1"), True, False),
    "cancelled-term": (("I+J-J", "J"), ("I", "J+1"), True, False),
}


class TestClassificationOnIntegerRows:
    """``is_coupled`` and ``has_coupled_subscript_dimensions`` read the
    integer subscript rows; they must agree with the ``Fraction`` matrices."""

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_rows_agree_with_the_matrices(self, name):
        write, read, coupled, coupled_dims = ROW_CASES[name]
        body = assign("s", aref("a", *write), [aref("a", *read)])
        prog = program(
            "rows", loop("I", 1, 4, loop("J", 1, 4, body)), array_shapes={"a": (12, 12)}
        )
        pairs = [
            p for p in DependenceAnalysis(prog, {}).reference_pairs
            if p.source_ref != p.target_ref
        ]
        assert len(pairs) == 1
        pair = pairs[0]
        A, _a, B, _b = pair.matrices()
        has_terms = lambda m: any(x != 0 for row in m for x in row)
        assert pair.is_coupled() is coupled is (has_terms(A) and has_terms(B))
        assert pair.has_coupled_subscript_dimensions() is coupled_dims
        assert coupled_dims == (matrix_coupled(A) or matrix_coupled(B))

    def test_symbol_outside_the_loop_indices_raises(self):
        body = assign("s", aref("a", "I+N"), [aref("a", "I")])
        prog = program("p", loop("I", 1, 4, body), array_shapes={"a": (12,)})
        pair = ReferencePair(*prog.reference_pairs()[0])
        with pytest.raises(ValueError, match="symbol 'N' outside the loop index order"):
            pair.has_coupled_subscript_dimensions()

    def test_a_repeated_read_is_one_reference_pair(self):
        def pairs_of(*reads):
            body = assign("s", aref("a", "I"), [aref("a", r) for r in reads])
            prog = program("p", loop("I", 2, 6, body), array_shapes={"a": (8,)})
            return DependenceAnalysis(prog, {}).reference_pairs

        once, twice = pairs_of("I-1"), pairs_of("I-1", "I-1")
        assert len(twice) == len(once) == 2
        assert [str(p.target_ref) for p in twice] == [str(p.target_ref) for p in once]
