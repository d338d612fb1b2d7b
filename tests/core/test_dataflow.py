"""Tests for repro.core.dataflow: iterative dataflow partitioning."""

import pytest

import oracle
from repro.core.dataflow import dataflow_partition, dataflow_schedule
from repro.core.statement import build_statement_space, statement_dataflow_schedule
from repro.dependence import DependenceAnalysis
from repro.isl.relations import FiniteRelation
from repro.workloads.examples import cholesky_loop, figure1_loop


def chain_relation(n):
    return oracle.relation([((i,), (i + 1,)) for i in range(1, n)])


class TestDataflowPartition:
    def test_chain_gives_one_wavefront_per_node(self):
        space = [(i,) for i in range(1, 6)]
        partition = dataflow_partition(space, chain_relation(5))
        assert partition.num_steps == 5
        assert [sorted(w) for w in oracle.wavefront_sets(partition)] == [
            [(i,)] for i in range(1, 6)
        ]

    def test_independent_points_one_step(self):
        space = [(i,) for i in range(10)]
        partition = dataflow_partition(space, FiniteRelation.empty(1, 1))
        assert partition.num_steps == 1
        assert partition.total_points == 10

    def test_invariants(self):
        space = [(i,) for i in range(1, 9)]
        rd = oracle.relation([((1,), (3,)), ((2,), (3,)), ((3,), (7,)), ((4,), (8,))])
        partition = dataflow_partition(space, rd)
        assert oracle.wavefronts_complete(partition, space)
        assert oracle.wavefronts_respect(partition)
        # number of steps == longest path length (3 -> 7 has depth 3: 1,3,7)
        assert partition.num_steps == 3

    def test_step_count_equals_longest_chain(self):
        prog = figure1_loop(30, 40)
        analysis = DependenceAnalysis(prog, {})
        partition = dataflow_partition(
            analysis.space.unified_array, analysis.space.rd
        )
        # Longest path, in points: every pair points lexicographically
        # forward, so visiting the pairs by source settles each source first.
        depth = {}
        for src, dst in sorted(oracle.pairs(analysis.space.rd)):
            depth[dst] = max(depth.get(dst, 0), depth.get(src, 0) + 1)
        assert partition.num_steps == 1 + max(depth.values(), default=0)
        assert oracle.wavefronts_respect(partition)
        assert oracle.wavefronts_complete(partition, analysis.space.unified_array)

    def test_cyclic_relation_detected(self):
        space = [(1,), (2,)]
        rd = oracle.relation([((1,), (2,)), ((2,), (1,))])
        with pytest.raises(RuntimeError):
            dataflow_partition(space, rd)

    def test_max_steps_guard(self):
        space = [(i,) for i in range(1, 50)]
        with pytest.raises(RuntimeError):
            dataflow_partition(space, chain_relation(49), max_steps=5)

    def test_level_arrays(self):
        space = [(3,), (1,), (2,)]
        partition = dataflow_partition(space, chain_relation(3))
        offsets, rows = partition.level_arrays()
        assert offsets.tolist() == [0, 1, 2, 3]
        assert rows.tolist() == [[1], [2], [3]]

    def test_equality_and_hash_are_array_based(self):
        space = [(i,) for i in range(1, 6)]
        a = dataflow_partition(space, chain_relation(5))
        b = dataflow_partition(space[::-1], chain_relation(5))
        assert a == b and hash(a) == hash(b)
        assert a != dataflow_partition(space, FiniteRelation.empty(1, 1))


class TestDataflowSchedule:
    def test_schedule_structure(self):
        space = [(i,) for i in range(1, 5)]
        schedule = dataflow_schedule("test", space, chain_relation(4), label="s")
        assert schedule.num_phases == 4
        assert schedule.total_work == 4
        assert schedule.meta["num_steps"] == 4

    def test_schedule_with_instance_mapping(self):
        # At statement level each unified point stands for one statement
        # instance, and the schedule runs exactly the program's instances.
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        space = build_statement_space(prog, {})
        schedule = statement_dataflow_schedule("test", space)
        assert schedule.total_work == len(space)
        assert sorted(oracle.instances(schedule)) == sorted(prog.sequential_iterations({}))
        assert schedule.covers(space)

    def test_cholesky_statement_level_dataflow(self):
        prog = cholesky_loop(nmat=2, m=2, n=6, nrhs=1)
        space = build_statement_space(prog, {})
        partition = dataflow_partition(space.unified_array, space.rd)
        assert oracle.wavefronts_complete(partition, space.unified_array)
        assert oracle.wavefronts_respect(partition)
        assert partition.num_steps > 5  # genuinely sequential structure
