"""Tests for repro.dependence.distance: uniformity and pair classification."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.distance import classify_pair, is_uniform_distances
from repro.isl.relations import PointCodec
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import figure1_loop, figure2_loop
from repro.workloads.synthetic import random_coupled_loop


def uniform_2d(n=6):
    body = assign("s", aref("a", "I+1", "J+2"), [aref("a", "I", "J")])
    return program(
        "uniform", loop("I", 1, n, loop("J", 1, n, body)), array_shapes={"a": (20, 20)}
    )


def uniform_by_distances(space, pair_list):
    """``is_uniform_distances`` on a space of point tuples and in-space
    dependence pairs, checked against §2's definition in the oracle."""
    dim = len(space[0])
    rows = np.array(sorted(set(space)), dtype=np.int64)
    codec = PointCodec.for_arrays(rows)
    distances = np.array(
        [np.subtract(b, a) for a, b in pair_list], dtype=np.int64
    ).reshape(len(pair_list), dim)
    got = is_uniform_distances(rows, codec, codec.encode(rows), distances)
    assert got == oracle.is_uniform(oracle.relation(pair_list, dim, dim), space)
    return got


def square(n):
    return [(i, j) for i in range(n) for j in range(n)]


class TestDistanceVectors:
    def test_figure1_distances(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        assert rel.distances() == {(2, 2), (4, 4), (6, 6)}


class TestUniformDistances:
    """The count-based check against the point-by-point definition."""

    def test_uniform_relation(self):
        pairs = [((i, j), (i + 1, j + 1)) for i in range(3) for j in range(3)]
        assert uniform_by_distances(square(4), pairs) is True

    def test_non_uniform_relation(self):
        # (2, 2) -> (3, 3) and seven more placements of (1, 1) are missing.
        assert uniform_by_distances(square(4), [((0, 0), (1, 1))]) is False

    def test_a_lone_placement_is_uniform(self):
        # (0, 0) -> (3, 3) is the only placement of (3, 3) in the square.
        assert uniform_by_distances(square(4), [((0, 0), (3, 3))]) is True

    def test_placements_outside_a_triangular_space_do_not_count(self):
        # j <= i: shifting by (0, 1) stays inside only below the diagonal.
        triangle = [(i, j) for i in range(4) for j in range(i + 1)]
        pairs = [((i, j), (i, j + 1)) for i, j in triangle if j + 1 <= i]
        assert uniform_by_distances(triangle, pairs) is True
        assert uniform_by_distances(triangle, pairs[1:]) is False

    def test_one_incomplete_distance_among_complete_ones(self):
        complete = [((i, j), (i, j + 1)) for i in range(3) for j in range(2)]
        assert uniform_by_distances(square(3), complete) is True
        assert uniform_by_distances(square(3), complete + [((0, 0), (1, 0))]) is False

    def test_space_too_wide_for_raw_keys(self):
        # Coordinates 2**22 apart in three columns: a box of 2**66 cells,
        # so the codec rank-compresses and masks shifted rows it cannot key.
        far = 2**22
        space = [(0, 0, 0), (1, 1, 1), (far, far, far), (far + 1, far + 1, far + 1)]
        both = [(space[0], space[1]), (space[2], space[3])]
        assert PointCodec.for_arrays(np.array(space)).values is not None
        assert uniform_by_distances(space, both) is True
        assert uniform_by_distances(space, both[:1]) is False

    def test_random_relations_agree_with_the_definition(self):
        rng = random.Random(7)
        space = square(5)
        for _ in range(40):
            pairs = {
                (rng.choice(space), rng.choice(space)) for _ in range(rng.randrange(1, 8))
            }
            uniform_by_distances(space, sorted(pairs))


class TestUniformity:
    def test_uniform_loop_is_uniform(self):
        analysis = DependenceAnalysis(uniform_2d(), {})
        assert analysis.has_dependences()
        assert analysis.is_uniform()

    def test_figure1_is_nonuniform(self):
        analysis = DependenceAnalysis(figure1_loop(10, 10), {})
        assert not analysis.is_uniform()

    def test_figure2_is_nonuniform(self):
        analysis = DependenceAnalysis(figure2_loop(20), {})
        assert not analysis.is_uniform()

    def test_empty_relation_is_uniform(self):
        body = assign("s", aref("a", "I", "J"), [aref("b", "I", "J")])
        prog = program(
            "independent",
            loop("I", 1, 4, loop("J", 1, 4, body)),
            array_shapes={"a": (5, 5), "b": (5, 5)},
        )
        analysis = DependenceAnalysis(prog, {})
        assert not analysis.has_dependences()
        assert analysis.is_uniform()

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
