"""Tests for repro.baselines.lattice: PDM extraction and lattice cosets."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.baselines.lattice import DistanceLattice, direction_basis, pseudo_distance_matrix
from repro.dependence import DependenceAnalysis
from repro.isl.lexorder import is_lex_positive
from repro.workloads.examples import example2_loop, figure1_loop
from repro.workloads.synthetic import large_cholesky_nest

small_vecs = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
    min_size=1,
    max_size=4,
)


def _key(lattice, point):
    """The coset key of one point."""
    return tuple(lattice.coset_keys(np.asarray([point]))[0].tolist())


class TestPseudoDistanceMatrix:
    def test_figure1_pdm(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        pdm = pseudo_distance_matrix(sorted(rel.distances()), 2)
        # the distances (2,2),(4,4),(6,6) reduce to the single generator (2,2)
        assert pdm == [(2, 2)]

    def test_vectors_are_lex_positive(self):
        rel = DependenceAnalysis(example2_loop(20), {}).space.rd
        for v in pseudo_distance_matrix(sorted(rel.distances()), 2):
            assert is_lex_positive(v)

    def test_empty_distances(self):
        assert pseudo_distance_matrix([], 2) == []

    @given(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
        max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_running_form_equals_the_one_shot_form(self, distances):
        """Folding the distances in one by one reaches the one Hermite form
        of their lattice."""
        assert pseudo_distance_matrix(distances, 3) == oracle.pseudo_distance_matrix(distances, 3)

    def test_running_form_equals_the_one_shot_form_on_cholesky(self):
        rd = DependenceAnalysis(large_cholesky_nest(60), {}).space.rd
        distances = sorted(rd.distances())
        assert len(distances) > 1000
        dim = len(distances[0])
        assert pseudo_distance_matrix(distances, dim) == oracle.pseudo_distance_matrix(distances, dim)

    @given(small_vecs)
    @settings(max_examples=40, deadline=None)
    def test_pdm_covers_all_distances(self, distances):
        pdm = pseudo_distance_matrix(distances, 2)
        lattice = DistanceLattice.from_vectors(pdm, 2)
        assert lattice.covers(distances)

    def test_direction_basis_is_primitive(self):
        from math import gcd

        rel = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        basis = direction_basis(sorted(rel.distances()), 2)
        assert basis == [(1, 1)]
        for v in basis:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


class TestDistanceLattice:
    def test_contains(self):
        lattice = DistanceLattice.from_vectors([(2, 2)], 2)
        assert lattice.contains((0, 0))
        assert lattice.contains((4, 4))
        assert lattice.contains((-2, -2))
        assert not lattice.contains((2, 0))
        assert not lattice.contains((3, 3))

    def test_empty_lattice(self):
        lattice = DistanceLattice.from_vectors([], 2)
        assert lattice.contains((0, 0))
        assert not lattice.contains((1, 0))
        assert _key(lattice, (3, 4)) == (3, 4)

    def test_coset_key_consistency(self):
        lattice = DistanceLattice.from_vectors([(2, 2), (0, 6)], 2)
        p = (3, 5)
        shifted = (3 + 2, 5 + 2 + 6)
        assert _key(lattice, p) == _key(lattice, shifted)
        assert _key(lattice, p) != _key(lattice, (4, 5))

    @given(small_vecs, st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_coset_key_invariant_under_lattice_shifts(self, gens, point, k1, k2):
        lattice = DistanceLattice.from_vectors(gens, 2)
        shift = (
            k1 * gens[0][0] + (k2 * gens[-1][0] if len(gens) > 1 else 0),
            k1 * gens[0][1] + (k2 * gens[-1][1] if len(gens) > 1 else 0),
        )
        moved = (point[0] + shift[0], point[1] + shift[1])
        assert _key(lattice, point) == _key(lattice, moved)

    def test_cosets_partition_the_space(self):
        lattice = DistanceLattice.from_vectors([(2, 2)], 2)
        points = np.array([(i, j) for i in range(1, 5) for j in range(1, 5)])
        order, offsets = lattice.group(points)
        assert sorted(order.tolist()) == list(range(len(points)))
        cosets = [points[order[lo:hi]].tolist() for lo, hi in zip(offsets, offsets[1:])]
        for members in cosets:
            assert members == sorted(members)  # lexicographic inside a coset
            # members of a coset differ by lattice vectors
            base = members[0]
            for other in members[1:]:
                assert lattice.contains((other[0] - base[0], other[1] - base[1]))
        # different cosets are not lattice translates of each other
        heads = [members[0] for members in cosets]
        for a in heads:
            for b in heads:
                if a != b:
                    assert not lattice.contains((a[0] - b[0], a[1] - b[1]))
