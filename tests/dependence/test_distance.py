"""Tests for repro.dependence.distance: distances, directions, uniformity."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.distance import (
    classify_pair,
    direction_vectors,
    distance_vectors,
    is_uniform_relation,
)
from repro.isl.relations import FiniteRelation
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import figure1_loop, figure2_loop
from repro.workloads.synthetic import random_coupled_loop


def uniform_2d(n=6):
    body = assign("s", aref("a", "I+1", "J+2"), [aref("a", "I", "J")])
    return program(
        "uniform", loop("I", 1, n, loop("J", 1, n, body)), array_shapes={"a": (20, 20)}
    )


class TestDistanceAndDirection:
    def test_figure1_distances(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        assert distance_vectors(rel) == {(2, 2), (4, 4), (6, 6)}
        assert direction_vectors(rel) == {("<", "<")}

    def test_direction_vectors_mixed(self):
        rel = oracle.relation([((1, 5), (3, 2)), ((1, 1), (1, 4))])
        assert direction_vectors(rel) == {("<", ">"), ("=", "<")}


class TestUniformity:
    def test_uniform_loop_is_uniform(self):
        prog = uniform_2d()
        analysis = DependenceAnalysis(prog, {})
        assert is_uniform_relation(
            analysis.space.rd, analysis.space.unified_array
        )

    def test_figure1_is_nonuniform(self):
        analysis = DependenceAnalysis(figure1_loop(10, 10), {})
        assert not analysis.is_uniform()

    def test_figure2_is_nonuniform(self):
        analysis = DependenceAnalysis(figure2_loop(20), {})
        assert not analysis.is_uniform()

    def test_empty_relation_is_uniform(self):
        assert is_uniform_relation(FiniteRelation.empty(2, 2), [(1, 1), (2, 2)])

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_matrix_classification_consistent_with_exact(self, seed):
        # A == B (forced uniform generation) must never be classified as
        # non-uniform by the exhaustive check.
        rng = random.Random(seed)
        spec = random_coupled_loop(rng, n1=5, n2=5, force_uniform=True)
        analysis = DependenceAnalysis(spec.program, {})
        assert analysis.is_uniform()


class TestClassifyPair:
    def test_figure1(self):
        pairs = DependenceAnalysis(figure1_loop(8, 8), {}).coupled_pairs
        pair = [p for p in pairs if str(p.source_ref) != str(p.target_ref)][0]
        c = classify_pair(pair)
        assert c.coupled
        assert not c.uniform_by_matrix
        assert c.square_full_rank
        assert c.ranks == (2, 2)

    def test_uniform_pair(self):
        pair = DependenceAnalysis(uniform_2d(), {}).coupled_pairs[0]
        c = classify_pair(pair)
        assert c.uniform_by_matrix


class TestArrayUniformityCheck:
    """is_uniform_relation must answer identically for tuple and array spaces."""

    def both(self, relation, points):
        import numpy as np

        as_tuples = is_uniform_relation(relation, points)
        as_array = is_uniform_relation(
            relation, np.asarray(points, dtype=np.int64).reshape(len(points), -1)
        )
        assert as_tuples == as_array
        return as_tuples

    def test_uniform_relation(self):
        space = [(i, j) for i in range(4) for j in range(4)]
        rel = oracle.relation(
            [((i, j), (i + 1, j + 1)) for i in range(3) for j in range(3)]
        )
        assert self.both(rel, space) is True

    def test_non_uniform_relation(self):
        space = [(i, j) for i in range(4) for j in range(4)]
        rel = oracle.relation([((0, 0), (1, 1))])  # (2,2)->(3,3) missing
        assert self.both(rel, space) is False

    def test_out_of_space_endpoints_agree(self):
        # A pair entirely outside the space contributes its distance but no
        # in-space placement: both representations must say "not uniform"
        # when an in-space placement of that distance is missing.
        space = [(0, 0), (1, 1)]
        outside_only = oracle.relation([((5, 5), (6, 6))])
        assert self.both(outside_only, space) is False
        covered = oracle.relation([((5, 5), (6, 6)), ((0, 0), (1, 1))])
        assert self.both(covered, space) is True

    def test_hypothesis_style_random_agreement(self):
        import numpy as np

        rng = random.Random(7)
        space = [(i, j) for i in range(5) for j in range(5)]
        for _ in range(25):
            pairs = {
                (
                    (rng.randrange(6), rng.randrange(6)),
                    (rng.randrange(6), rng.randrange(6)),
                )
                for _ in range(rng.randrange(1, 8))
            }
            rel = oracle.relation(pairs)
            self.both(rel, space)
