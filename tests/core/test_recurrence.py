"""Tests for repro.core.recurrence: the affine recurrence and Theorem 1."""

import math
from fractions import Fraction

import pytest

import oracle
from repro.core.recurrence import (
    AffineRecurrence,
    iteration_space_diameter,
    theorem1_bound,
)
from repro.dependence import DependenceAnalysis
from repro.isl.lexorder import lex_lt
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
        assert oracle.next_integer(rec, (1, 1)) == (1, 1)  # fixed point (self dependence)
        assert oracle.next_integer(rec, (2, 3)) == (4, 5)
        assert oracle.next_integer(rec, (4, 5)) == (10, 11)

    def test_inverse_roundtrip(self):
        rec = recurrence_of(figure1_loop(10, 10))
        inv = oracle.inverse_recurrence(rec)
        for point in [(2, 3), (4, 5), (7, 1)]:
            forward = oracle.next_integer(rec, point)
            assert forward is not None
            assert oracle.next_integer(inv, forward) == point

    def test_non_integer_image(self):
        rec = oracle.inverse_recurrence(recurrence_of(figure1_loop(10, 10)))
        # the inverse divides by 3; most points have no integer predecessor
        assert oracle.next_integer(rec, (5, 5)) is None

    def test_distance_matches_paper_pattern(self):
        rec = recurrence_of(figure1_loop(10, 10))
        # d_0 = i0(T - I) + u; the observed distances are (2,2), (4,4), (6,6)
        for point, distance in (((2, 3), (2, 2)), ((3, 2), (4, 4))):
            image = oracle.next_integer(rec, point)
            assert tuple(b - a for a, b in zip(point, image)) == distance

    def test_expansion_factor_is_det3(self):
        rec = recurrence_of(figure1_loop(10, 10))
        assert rec.expansion_factor() == 3

    def test_chain_from(self):
        rec = recurrence_of(figure1_loop(30, 40))
        space = lambda p: 1 <= p[0] <= 30 and 1 <= p[1] <= 40
        chain = [(4, 5)]
        nxt = oracle.next_integer(rec, chain[-1])
        while nxt is not None and space(nxt):
            chain.append(nxt)
            nxt = oracle.next_integer(rec, nxt)
        # (4,5) -> (3·4-2, 2·4+5-2) -> (28, 29); the next image leaves the space
        assert chain == [(4, 5), (10, 11), (28, 29)]

    def test_monotone_query(self):
        rec = recurrence_of(figure1_loop(10, 10))
        assert lex_lt((2, 3), oracle.next_integer(rec, (2, 3)))
        # fixed point (self dependence) is not forward
        assert not lex_lt((1, 1), oracle.next_integer(rec, (1, 1)))


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
            diameter = iteration_space_diameter(sorted(oracle.sets(result.partition).space))
            assert theorem1_bound(result.recurrence, diameter) == bound
            assert len(result.chain_lengths()) and (result.chain_lengths() <= bound).all()

    def test_diameter(self):
        points = [(1, 1), (1, 10), (10, 1), (10, 10)]
        assert iteration_space_diameter(points) == pytest.approx(math.sqrt(81 + 81))
        assert iteration_space_diameter([]) == 0.0

    def test_figure2_recurrence_form(self):
        rec = recurrence_of(figure2_loop(20))
        # 2i = 21 - j  =>  j = -2i + 21
        assert oracle.next_integer(rec, (6,)) == (9,)
        assert oracle.next_integer(rec, (3,)) == (15,)
