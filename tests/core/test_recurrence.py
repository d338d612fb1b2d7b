"""Tests for repro.core.recurrence: the affine recurrence and Theorem 1."""

import math
from fractions import Fraction

import pytest

from repro.core.recurrence import (
    AffineRecurrence,
    chain_length_bound_holds,
    iteration_space_diameter,
    theorem1_bound,
)
from repro.dependence import DependenceAnalysis
from repro.isl.linalg import RationalMatrix
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop


def recurrence_of(prog, params=None):
    analysis = DependenceAnalysis(prog, params or {})
    pair = analysis.single_coupled_pair()
    return AffineRecurrence.from_pair(pair)


class TestFigure1Recurrence:
    def test_successor_map(self):
        rec = recurrence_of(figure1_loop(10, 10))
        # j = (3*i1 - 2, 2*i1 + i2 - 2)
        assert rec.next_integer((1, 1)) == (1, 1)  # fixed point (self dependence)
        assert rec.next_integer((2, 3)) == (4, 5)
        assert rec.next_integer((4, 5)) == (10, 11)

    def test_inverse_roundtrip(self):
        rec = recurrence_of(figure1_loop(10, 10))
        inv = rec.inverse()
        for point in [(2, 3), (4, 5), (7, 1)]:
            forward = rec.next_integer(point)
            assert forward is not None
            assert inv.next_integer(forward) == point

    def test_non_integer_image(self):
        rec = recurrence_of(figure1_loop(10, 10)).inverse()
        # the inverse divides by 3; most points have no integer predecessor
        assert rec.next_integer((5, 5)) is None

    def test_distance_matches_paper_pattern(self):
        rec = recurrence_of(figure1_loop(10, 10))
        # d_0 = i0(T - I) + u; the observed distances are (2,2), (4,4), (6,6)
        assert rec.distance_at((2, 3)) == (Fraction(2), Fraction(2))
        assert rec.distance_at((3, 2)) == (Fraction(4), Fraction(4))

    def test_expansion_factor_is_det3(self):
        rec = recurrence_of(figure1_loop(10, 10))
        assert rec.expansion_factor() == 3

    def test_chain_from(self):
        rec = recurrence_of(figure1_loop(30, 40))
        space = lambda p: 1 <= p[0] <= 30 and 1 <= p[1] <= 40
        chain = rec.chain_from((4, 5), space)
        assert chain[0] == (4, 5)
        assert all(space(p) for p in chain)
        # consecutive elements satisfy the recurrence
        for a, b in zip(chain, chain[1:]):
            assert rec.next_integer(a) == b

    def test_chain_from_outside_space_rejected(self):
        rec = recurrence_of(figure1_loop(10, 10))
        with pytest.raises(ValueError):
            rec.chain_from((100, 100), lambda p: 1 <= p[0] <= 10 and 1 <= p[1] <= 10)

    def test_monotone_query(self):
        rec = recurrence_of(figure1_loop(10, 10))
        assert rec.is_monotone_map((2, 3)) is True
        assert rec.is_monotone_map((1, 1)) is False  # fixed point is not forward


class TestTheorem1:
    def test_figure1_bound_formula(self):
        """The paper: the largest partition has at most 1 + log3(sqrt(N1²+N2²)) iterations."""
        rec = recurrence_of(figure1_loop(10, 10))
        diameter = math.sqrt((10 - 1) ** 2 + (10 - 1) ** 2)
        bound = theorem1_bound(rec, diameter)
        assert bound == int(math.floor(math.log(diameter, 3))) + 1

    def test_example2_alpha_is_2(self):
        rec = recurrence_of(example2_loop(12))
        assert rec.expansion_factor() == 2

    def test_bound_none_when_alpha_le_1(self):
        rec = AffineRecurrence(RationalMatrix.identity(2), (Fraction(1), Fraction(0)))
        assert theorem1_bound(rec, 100.0) is None

    def test_bound_for_zero_diameter(self):
        rec = recurrence_of(figure1_loop(10, 10))
        assert theorem1_bound(rec, 0.0) == 1

    def test_singular_matrix_rejected(self):
        rec = AffineRecurrence(RationalMatrix.from_rows([[1, 2], [2, 4]]), (Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            rec.expansion_factor()

    def test_measured_chains_respect_bound(self):
        from repro.core import recurrence_branch

        for n1, n2 in [(10, 10), (25, 35), (40, 60)]:
            result = recurrence_branch(figure1_loop(n1, n2))
            bound = result.chain_length_bound()
            assert bound is not None
            assert result.longest_chain() <= bound
            assert chain_length_bound_holds(
                result.recurrence,
                [c.points for c in result.chains],
                iteration_space_diameter(sorted(result.partition.space)),
            )

    def test_diameter(self):
        points = [(1, 1), (1, 10), (10, 1), (10, 10)]
        assert iteration_space_diameter(points) == pytest.approx(math.sqrt(81 + 81))
        assert iteration_space_diameter([]) == 0.0

    def test_figure2_recurrence_form(self):
        rec = recurrence_of(figure2_loop(20))
        # 2i = 21 - j  =>  j = -2i + 21
        assert rec.next_integer((6,)) == (9,)
        assert rec.next_integer((3,)) == (15,)
