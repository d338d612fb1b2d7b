"""Tests for repro.core.partition: the three-set partitioning (eq. 5)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.partition import symbolic_three_set_partition, three_set_partition
from repro.dependence import DependenceAnalysis, symbolic_dependence_relation
from repro.isl.relations import FiniteRelation
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop
from repro.workloads.synthetic import random_coupled_loop


def partition_of(prog, params=None):
    analysis = DependenceAnalysis(prog, params or {})
    return (
        three_set_partition(analysis.space.unified, analysis.space.rd),
        analysis,
    )


class TestFigure2Partition:
    """The worked 1-D example of figure 2 (N = 20)."""

    def test_paper_sets(self):
        partition, _ = partition_of(figure2_loop(20))
        assert sorted(p[0] for p in partition.independent) == [7, 12, 14, 16, 18, 20]
        assert sorted(p[0] for p in partition.initial) == [1, 2, 3, 4, 5, 6]
        assert sorted(p[0] for p in partition.p1) == [1, 2, 3, 4, 5, 6, 7, 12, 14, 16, 18, 20]
        assert partition.p2 == frozenset()
        assert sorted(p[0] for p in partition.p3) == [8, 9, 10, 11, 13, 15, 17, 19]
        assert partition.w == frozenset()

    def test_invariants(self):
        partition, _ = partition_of(figure2_loop(20))
        assert partition.is_complete()
        assert oracle.respects_phase_order(partition)
        counts = partition.counts()
        assert counts["space"] == 20 and counts["P1"] == 12 and counts["P3"] == 8


class TestFigure1Partition:
    def test_counts_at_10x10(self):
        partition, _ = partition_of(figure1_loop(10, 10))
        counts = partition.counts()
        assert counts["space"] == 100
        assert counts["P1"] + counts["P2"] + counts["P3"] == 100
        assert counts["P2"] == 2
        assert counts["W"] == 2
        assert partition.is_complete()
        assert oracle.respects_phase_order(partition)

    def test_w_subset_of_p2_and_has_p1_predecessor(self):
        partition, _ = partition_of(figure1_loop(30, 40))
        assert partition.w <= partition.p2
        for w in partition.w:
            assert any(src in partition.p1 for src, dst in partition.rd.pairs if dst == w)

    def test_p1_p3_have_no_internal_dependences(self):
        partition, _ = partition_of(figure1_loop(20, 20))
        for src, dst in partition.rd.pairs:
            assert not (src in partition.p1 and dst in partition.p1)
            assert not (src in partition.p3 and dst in partition.p3)


class TestExample2Partition:
    def test_single_intermediate_iteration_at_n12(self):
        """The paper: 'there is only a single iteration in the intermediate set,
        particularly iteration (2, 6)'."""
        partition, _ = partition_of(example2_loop(12))
        assert partition.p2 == frozenset({(2, 6)})
        assert partition.w == frozenset({(2, 6)})

    def test_larger_n_has_nonempty_intermediate(self):
        partition, _ = partition_of(example2_loop(30))
        assert len(partition.p2) >= 1
        assert partition.is_complete()


class TestPartitionProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_random_loops_invariants(self, seed):
        rng = random.Random(seed)
        spec = random_coupled_loop(rng, n1=6, n2=6)
        analysis = DependenceAnalysis(spec.program, {})
        partition = three_set_partition(
            analysis.space.unified, analysis.space.rd
        )
        assert partition.is_complete()
        assert oracle.respects_phase_order(partition)
        assert partition.w <= partition.p2

    def test_empty_relation_puts_everything_in_p1(self):
        space = [(i,) for i in range(1, 6)]
        partition = three_set_partition(space, FiniteRelation(frozenset(), 1, 1))
        assert partition.p1 == frozenset(space)
        assert not partition.p2 and not partition.p3

    def test_chain_relation(self):
        space = [(i,) for i in range(1, 6)]
        rd = FiniteRelation.from_pairs([((i,), (i + 1,)) for i in range(1, 5)])
        partition = three_set_partition(space, rd)
        assert partition.p1 == frozenset({(1,)})
        assert partition.p2 == frozenset({(2,), (3,), (4,)})
        assert partition.p3 == frozenset({(5,)})
        assert partition.w == frozenset({(2,)})


class TestSymbolicPartition:
    def test_figure2_containment(self):
        prog = figure2_loop(20)
        sym = symbolic_three_set_partition(
            prog.iteration_space(), symbolic_dependence_relation(prog)
        )
        concrete = sym.concrete()
        exact, _ = partition_of(prog)
        # rational approximation: P1 under-approximates, P3 over-approximates
        assert set(concrete["P1"]) <= set(exact.p1)
        assert set(concrete["P3"]) >= set(exact.p3)
        assert set(concrete["space"]) == set(exact.space)

    def test_figure1_containment(self):
        prog = figure1_loop(10, 10)
        sym = symbolic_three_set_partition(
            prog.iteration_space(), symbolic_dependence_relation(prog)
        )
        concrete = sym.concrete()
        exact, _ = partition_of(prog)
        assert set(concrete["P1"]) <= set(exact.p1)
        assert set(concrete["P3"]) >= set(exact.p3)

    def test_parametric_partition_terminates_and_binds(self):
        prog = figure1_loop()  # symbolic N1, N2
        sym = symbolic_three_set_partition(
            prog.iteration_space(), symbolic_dependence_relation(prog)
        )
        bound = sym.bind_parameters({"N1": 6, "N2": 6})
        concrete = bound.concrete()
        assert set(concrete["space"]) == {(i, j) for i in range(1, 7) for j in range(1, 7)}
