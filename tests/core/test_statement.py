"""Tests for repro.core.statement: the §3.3 statement-level extension."""

import numpy as np

import oracle
from repro.core.statement import UnifiedIndexMap, build_statement_space
from repro.dependence import DependenceAnalysis
from repro.isl.lexorder import lex_lt
from repro.workloads.examples import cholesky_loop, example3_loop, figure1_loop


class TestUnifiedVectors:
    def test_width_and_positions(self):
        prog = example3_loop(6)
        space = build_statement_space(prog, {})
        # deepest statement s1 sits under 3 loops -> width 1 + 2*3 = 7
        assert space.width == 7
        assert set(space.positions) == {"s1", "s2"}

    def test_unified_vectors_are_unique(self):
        prog = example3_loop(6)
        space = build_statement_space(prog, {})
        assert len(oracle.points(space.unified_array)) == len(space)

    def test_program_order_is_lexicographic_order(self):
        for prog, params in [
            (example3_loop(6), {}),
            (cholesky_loop(nmat=1, m=2, n=4, nrhs=1), {}),
            (figure1_loop(4, 4), {}),
        ]:
            assert oracle.sequential_order_is_lexicographic(prog, params), prog.name
            view = oracle.space_view(build_statement_space(prog, params))
            assert list(view.unified) == sorted(view.unified), prog.name

    def test_instances_match_sequential_execution(self):
        prog = example3_loop(8)
        space = build_statement_space(prog, {})
        assert list(oracle.space_view(space).instances) == [
            (label, tuple(it)) for label, it in prog.sequential_iterations({})
        ]


class TestUnifiedIndexMap:
    def test_unify_needs_no_space(self):
        """The §3.3 mapping is a pure function of the program's syntax —
        usable before (and without) building any statement space."""
        prog = example3_loop(6)
        index_map = UnifiedIndexMap.from_program(prog)
        space = build_statement_space(prog, {})
        assert index_map.width == space.width
        assert index_map.positions == dict(space.positions)
        view = oracle.space_view(space)
        for (label, iteration), point in zip(view.instances, view.unified):
            assert index_map.unify(label, iteration) == point

    def test_build_constructs_exactly_one_space(self, monkeypatch):
        """Regression: build_statement_space used to construct a throwaway
        StatementLevelSpace (empty unified, empty rd) just to call unify."""
        import repro.core.statement as statement_mod

        constructed = []
        original = statement_mod.StatementLevelSpace.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(
            statement_mod.StatementLevelSpace, "__init__", counting
        )
        statement_mod.build_statement_space(example3_loop(6), {})
        assert len(constructed) == 1

    def test_unify_array_interleaves_like_unify(self):
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        index_map = UnifiedIndexMap.from_program(prog)
        analysis = DependenceAnalysis(prog, {})
        for ctx in prog.statement_contexts():
            label = ctx.statement.label
            iters = analysis.statement_domain_array(label)
            batch = index_map.unify_array(label, iters)
            assert batch.shape == (len(iters), index_map.width)
            for row, iteration in zip(batch.tolist(), iters.tolist()):
                assert tuple(row) == index_map.unify(label, iteration)


class TestArrayPath:
    def test_engines_build_identical_spaces(self):
        for prog in (example3_loop(10), cholesky_loop(nmat=1, m=2, n=4, nrhs=1)):
            expected = oracle.statement_space(prog)
            space = build_statement_space(prog, {})
            assert oracle.space_view(space) == expected

    def test_space_array_rows_are_lex_sorted(self):
        space = build_statement_space(example3_loop(8), {})
        rows = list(map(tuple, space.unified_array.tolist()))
        assert rows == sorted(rows)

    def test_stmt_ids_of_roundtrip_and_rejects_foreign_rows(self):
        import pytest

        space = build_statement_space(example3_loop(8), {})
        ids = space.stmt_ids_of(space.unified_array[::-1])
        assert np.array_equal(ids, space.stmt_ids[::-1])
        foreign = space.unified_array[:1] + 1000
        with pytest.raises(KeyError):
            space.stmt_ids_of(foreign)


class TestStatementLevelDependences:
    def test_rd_is_forward_oriented(self):
        prog = example3_loop(40)
        space = build_statement_space(prog, {})
        assert len(space.rd) > 0
        for src, dst in oracle.pairs(space.rd):
            assert lex_lt(src, dst)

    def test_rd_points_are_instances(self):
        prog = example3_loop(40)
        space = build_statement_space(prog, {})
        all_points = oracle.points(space.unified_array)
        for src, dst in oracle.pairs(space.rd):
            assert src in all_points and dst in all_points

    def test_rd_consistent_with_pair_analysis(self):
        prog = example3_loop(40)
        analysis = DependenceAnalysis(prog, {})
        space = build_statement_space(prog, {}, analysis)
        n_pairs = sum(
            len({(a, b) for a, b in oracle.pairs(d.relation) if a != b})
            for d in analysis.pair_dependences
        )
        # unified pairs may merge duplicates (same pair from both orientations)
        assert 0 < len(space.rd) <= n_pairs

    def test_cholesky_dependences_exist(self):
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        space = build_statement_space(prog, {})
        assert len(space.rd) > 0
