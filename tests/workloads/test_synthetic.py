"""Tests for repro.workloads.synthetic and .corpus: generators and ground truth."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.dependence import DependenceAnalysis
from repro.ir.validate import validate_program
from repro.workloads.corpus import SPECFP95_LIKE, CorpusComposition, build_corpus
from repro.workloads.synthetic import (
    generate_corpus_programs,
    large_cholesky_nest,
    large_uniform_loop,
    random_coupled_loop,
    scale_partition_case,
)


class TestRandomCoupledLoop:
    def test_programs_are_well_formed(self):
        rng = random.Random(7)
        for _ in range(10):
            spec = random_coupled_loop(rng, n1=6, n2=6)
            assert validate_program(spec.program) == []

    def test_forced_uniform_has_equal_matrices(self):
        rng = random.Random(11)
        spec = random_coupled_loop(rng, force_uniform=True)
        assert spec.A == spec.B
        assert spec.uniform

    def test_forced_nonuniform_has_differing_matrices(self):
        rng = random.Random(13)
        spec = random_coupled_loop(rng, force_uniform=False)
        assert spec.A != spec.B
        assert not spec.uniform

    def test_force_full_rank(self):
        rng = random.Random(17)
        for _ in range(5):
            spec = random_coupled_loop(rng, force_full_rank=True)
            assert spec.full_rank

    def test_deterministic_given_seed(self):
        a = random_coupled_loop(random.Random(5), n1=4, n2=4)
        b = random_coupled_loop(random.Random(5), n1=4, n2=4)
        assert a.A == b.A and a.B == b.B and a.a == b.a and a.b == b.b

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_accesses_stay_in_bounds(self, seed):
        spec = random_coupled_loop(random.Random(seed), n1=5, n2=5)
        prog = spec.program
        ctx = prog.statement_contexts()[0]
        shape = prog.array_shapes["x"]
        for _, iteration in prog.sequential_iterations({}):
            env = dict(zip(ctx.index_names, iteration))
            for ref in ctx.statement.writes + ctx.statement.reads:
                idx = ref.evaluate(env)
                assert all(0 <= v < s for v, s in zip(idx, shape))

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_uniform_label_consistent_with_exact_analysis(self, seed):
        spec = random_coupled_loop(random.Random(seed), n1=5, n2=5, force_uniform=True)
        analysis = DependenceAnalysis(spec.program, {})
        assert analysis.is_uniform()

    def test_generate_corpus_programs(self):
        specs = generate_corpus_programs(seed=3, count=12, uniform_fraction=0.5)
        assert len(specs) == 12
        assert len({s.program.name for s in specs}) == 12


class TestScalePartitionCase:
    def test_small_case_ground_truth(self):
        space, rd = scale_partition_case(4, 3)
        assert space.shape == (12, 2)
        expected = {
            ((i, j), (i + 1, j + 1))
            for i in range(1, 4)
            for j in range(1, 3)
        }
        assert oracle.pairs(rd) == frozenset(expected)

    def test_matches_exact_analysis_of_large_uniform_loop(self):
        prog = large_uniform_loop(6, 5)
        assert validate_program(prog) == []
        analysis = DependenceAnalysis(prog, {})
        space, rd = scale_partition_case(6, 5)
        assert analysis.space.rd == rd
        assert oracle.points(space) == oracle.points(analysis.space.unified_array)

    def test_other_distances(self):
        _, rd = scale_partition_case(5, 5, distance=(1, -1))
        pairs = oracle.pairs(rd)
        assert ((1, 2), (2, 1)) in pairs
        assert ((1, 1), (2, 0)) not in pairs  # target leaves the box

    def test_lex_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            scale_partition_case(5, 5, distance=(-1, 0))
        with pytest.raises(ValueError):
            scale_partition_case(5, 5, distance=(0, 0))


class TestLargeCholeskyNest:
    def test_ground_truth_structure(self):
        """Pinned at a small bound: instance count, dependence pattern, and
        the three-wavefront dataflow shape the benchmark relies on."""
        from repro.core.partitioner import dataflow_branch
        from repro.core.statement import build_statement_space

        n = 8
        prog = large_cholesky_nest(n)
        assert validate_program(prog) == []
        space = build_statement_space(prog, {})
        assert len(space) == n * (n + 1) // 2 + n
        # every dependence couples s2's diagonal write with a panel read (or
        # the intra-row tmp flow); spot-check the two families at (i, j):
        unify = space.index_map.unify
        rd = oracle.pairs(space.rd)
        assert (unify("s2", (2,)), unify("s1", (5, 2))) in rd  # a(2,2) flow
        assert (unify("s1", (3, 3)), unify("s2", (3,))) in rd  # tmp(3,3) flow
        result = dataflow_branch(prog, {})
        assert result.schedule.num_phases == 3
        assert result.schedule.total_work == len(space)
        assert result.analysis.space.index_map.interleaved

    def test_schedule_validates_semantically(self):
        from repro.core.strategy import PlanConfig, plan

        p = plan(
            large_cholesky_nest(10),
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        report = p.validate(seeds=(0, 1))
        assert report.ok and report.respects_dependences


class TestCorpus:
    def test_build_corpus_deterministic(self):
        a = build_corpus(CorpusComposition("t", 20, 0.5, 0.5), seed=1)
        b = build_corpus(CorpusComposition("t", 20, 0.5, 0.5), seed=1)
        assert [s.A for s in a] == [s.A for s in b]

    def test_composition_roughly_respected(self):
        comp = CorpusComposition("t", 120, 0.5, 0.5)
        specs = build_corpus(comp, seed=42)
        coupled_fraction = sum(1 for s in specs if s.coupled) / len(specs)
        # generation is stochastic; allow a generous tolerance
        assert 0.3 <= coupled_fraction <= 0.75

    def test_default_composition(self):
        assert SPECFP95_LIKE.coupled_fraction == 0.45
        assert SPECFP95_LIKE.nonuniform_given_coupled == 0.5

    def test_separable_loops_are_uncoupled_and_uniform(self):
        comp = CorpusComposition("t", 30, 0.0, 0.5)
        specs = build_corpus(comp, seed=9)
        assert all(not s.coupled and s.uniform for s in specs)
