"""Equivalence of the array partitioners with the brute-force oracle.

The array engine (lexicographic int64 keys, sorted-array membership, Kahn
peeling) must produce the same partitions and wavefronts as the per-point
set algebra of ``tests/oracle.py`` on every example workload of the paper —
perfect nests at iteration level and imperfect nests at statement level —
plus the synthetic scaling case and point boxes too wide for raw int64 keys.
"""

import numpy as np
import pytest

import oracle
from repro.core.chains import chain_phase
from repro.core.dataflow import dataflow_partition
from repro.core.partition import three_set_partition
from repro.core.statement import build_statement_space
from repro.dependence import DependenceAnalysis
from repro.isl.relations import FiniteRelation
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.synthetic import scale_partition_case


def _iteration_level(prog):
    analysis = DependenceAnalysis(prog, {})
    return prog.name, analysis.iteration_space_points, analysis.iteration_dependences


def _statement_level(prog):
    space = build_statement_space(prog, {})
    return prog.name, sorted(space.points), space.rd


def _cases():
    for prog in (figure1_loop(12, 12), figure2_loop(20), example2_loop(12)):
        yield _iteration_level(prog)
    for prog in (example3_loop(6), cholesky_loop(nmat=1, m=2, n=6, nrhs=1)):
        yield _statement_level(prog)
    space, rd = scale_partition_case(25, 20)
    yield "scale-25x20", [tuple(p) for p in space.tolist()], rd


CASES = list(_cases())
CASE_IDS = [name for name, _, _ in CASES]


def assert_matches_oracle(partition, space, rd):
    expected = oracle.three_sets(space, rd)
    assert partition.space == expected.space
    assert partition.p1 == expected.p1
    assert partition.p2 == expected.p2
    assert partition.p3 == expected.p3
    assert partition.w == expected.w
    assert partition.rd == expected.rd


class TestEngineEquivalence:
    @pytest.mark.parametrize("name,space,rd", CASES, ids=CASE_IDS)
    def test_three_set_partition_identical(self, name, space, rd):
        result = three_set_partition(space, rd)
        assert_matches_oracle(result, space, rd)
        assert result.is_complete() and result.respects_phase_order()

    @pytest.mark.parametrize("name,space,rd", CASES, ids=CASE_IDS)
    def test_dataflow_wavefronts_identical(self, name, space, rd):
        result = dataflow_partition(space, rd)
        assert result.wavefronts == oracle.wavefronts(space, rd)
        assert result.is_complete(space)
        assert result.respects_dependences()

    def test_array_space_input_equals_tuple_input(self):
        space, rd = scale_partition_case(15, 12)
        tuples = [tuple(p) for p in space.tolist()]
        assert three_set_partition(space, rd) == three_set_partition(tuples, rd)
        assert (
            dataflow_partition(space, rd).wavefronts
            == dataflow_partition(tuples, rd).wavefronts
        )

    def test_unknown_engine_rejected(self):
        # There is one engine: an ``engine`` argument fails loudly instead of
        # being silently ignored.
        space, rd = scale_partition_case(4, 4)
        with pytest.raises(TypeError):
            three_set_partition(space, rd, engine="simd")
        with pytest.raises(TypeError):
            dataflow_partition(space, rd, engine="set")

    def test_overflowing_box_runs_on_array_path(self):
        """Coordinates too wide for raw int64 keys: the codec rank-compresses
        them and both partitioners still produce the exact sets, for every
        space input form."""
        space = [(0, 0), (2**40, 2**40), (1, 1)]
        rd = FiniteRelation.from_pairs([((0, 0), (2**40, 2**40))])
        for space_input in (space, np.array(space, dtype=np.int64)):
            partition = three_set_partition(space_input, rd)
            assert partition.p1 == {(0, 0), (1, 1)}
            assert_matches_oracle(partition, space, rd)
            flow = dataflow_partition(space_input, rd)
            assert flow.num_steps == 2
            assert flow.wavefronts == oracle.wavefronts(space, rd)


class TestVectorStallPaths:
    def test_cyclic_relation_detected(self):
        space = [(1,), (2,)]
        rd = FiniteRelation.from_pairs([((1,), (2,)), ((2,), (1,))])
        with pytest.raises(RuntimeError, match="stalled"):
            dataflow_partition(space, rd)

    def test_partial_cycle_detected_after_progress(self):
        # an acyclic prefix drains, then the cycle stalls the peeling
        space = [(1,), (2,), (3,)]
        rd = FiniteRelation.from_pairs(
            [((1,), (2,)), ((2,), (3,)), ((3,), (2,))]
        )
        with pytest.raises(RuntimeError, match="stalled"):
            dataflow_partition(space, rd)

    def test_max_steps_guard(self):
        space = [(i,) for i in range(1, 50)]
        rd = FiniteRelation.from_pairs([((i,), (i + 1,)) for i in range(1, 49)])
        with pytest.raises(RuntimeError, match="did not terminate"):
            dataflow_partition(space, rd, max_steps=5)

    def test_self_loop_stalls(self):
        space = [(1,), (2,)]
        rd = FiniteRelation.from_pairs([((2,), (2,))])
        with pytest.raises(RuntimeError, match="stalled"):
            dataflow_partition(space, rd)


class TestChainsBulkLookup:
    def test_sorted_array_lookup_matches_dict_lookup(self):
        prog = figure1_loop(25, 25)
        analysis = DependenceAnalysis(prog, {})
        partition = three_set_partition(
            analysis.iteration_space_points, analysis.iteration_dependences
        )
        chains = oracle.chain_units(chain_phase(partition))
        assert chains == oracle.chains_by_dict_walk(partition)
