"""Tests for repro.core.partition: the three-set partitioning (eq. 5)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.partition import three_set_partition
from repro.dependence import DependenceAnalysis
from repro.isl.relations import FiniteRelation
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop
from repro.workloads.synthetic import random_coupled_loop


def partition_of(prog, params=None):
    analysis = DependenceAnalysis(prog, params or {})
    return (
        three_set_partition(analysis.space.unified_array, analysis.space.rd),
        analysis,
    )


class TestFigure2Partition:
    """The worked 1-D example of figure 2 (N = 20)."""

    def test_paper_sets(self):
        partition, _ = partition_of(figure2_loop(20))
        sets = oracle.sets(partition)
        touched = {p for pair in oracle.pairs(partition.rd) for p in pair}
        assert sorted(p[0] for p in sets.p1 - touched) == [7, 12, 14, 16, 18, 20]
        assert sorted(p[0] for p in sets.p1 & touched) == [1, 2, 3, 4, 5, 6]
        assert sorted(p[0] for p in sets.p1) == [1, 2, 3, 4, 5, 6, 7, 12, 14, 16, 18, 20]
        assert sets.p2 == frozenset()
        assert sorted(p[0] for p in sets.p3) == [8, 9, 10, 11, 13, 15, 17, 19]
        assert sets.w == frozenset()
        counts = partition.counts()
        assert counts["independent"] == 6 and counts["initial"] == 6

    def test_invariants(self):
        partition, _ = partition_of(figure2_loop(20))
        assert oracle.is_complete(partition)
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
        assert oracle.is_complete(partition)
        assert oracle.respects_phase_order(partition)

    def test_w_subset_of_p2_and_has_p1_predecessor(self):
        partition, _ = partition_of(figure1_loop(30, 40))
        sets = oracle.sets(partition)
        assert sets.w <= sets.p2
        for w in sets.w:
            assert any(src in sets.p1 for src, dst in oracle.pairs(partition.rd) if dst == w)

    def test_p1_p3_have_no_internal_dependences(self):
        partition, _ = partition_of(figure1_loop(20, 20))
        sets = oracle.sets(partition)
        for src, dst in oracle.pairs(partition.rd):
            assert not (src in sets.p1 and dst in sets.p1)
            assert not (src in sets.p3 and dst in sets.p3)


class TestExample2Partition:
    def test_single_intermediate_iteration_at_n12(self):
        """The paper: 'there is only a single iteration in the intermediate set,
        particularly iteration (2, 6)'."""
        partition, _ = partition_of(example2_loop(12))
        assert partition.p2_array().tolist() == [[2, 6]]
        assert partition.w_array().tolist() == [[2, 6]]

    def test_larger_n_has_nonempty_intermediate(self):
        partition, _ = partition_of(example2_loop(30))
        assert len(partition.p2_array()) >= 1
        assert oracle.is_complete(partition)


class TestPartitionProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_random_loops_invariants(self, seed):
        rng = random.Random(seed)
        spec = random_coupled_loop(rng, n1=6, n2=6)
        analysis = DependenceAnalysis(spec.program, {})
        partition = three_set_partition(
            analysis.space.unified_array, analysis.space.rd
        )
        assert oracle.is_complete(partition)
        assert oracle.respects_phase_order(partition)
        sets = oracle.sets(partition)
        assert sets.w <= sets.p2

    def test_empty_relation_puts_everything_in_p1(self):
        space = [(i,) for i in range(1, 6)]
        partition = three_set_partition(space, FiniteRelation.empty(1, 1))
        sets = oracle.sets(partition)
        assert sets.p1 == frozenset(space)
        assert not sets.p2 and not sets.p3
        assert partition.counts()["independent"] == 5

    def test_chain_relation(self):
        space = [(i,) for i in range(1, 6)]
        rd = oracle.relation([((i,), (i + 1,)) for i in range(1, 5)])
        partition = three_set_partition(space, rd)
        sets = oracle.sets(partition)
        assert sets.p1 == frozenset({(1,)})
        assert sets.p2 == frozenset({(2,), (3,), (4,)})
        assert sets.p3 == frozenset({(5,)})
        assert sets.w == frozenset({(2,)})
        assert partition.counts()["initial"] == 1
