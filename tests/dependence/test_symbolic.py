"""Tests for repro.dependence.symbolic: the symbolic relation vs the exact one."""

import pytest

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.symbolic import (
    source_target_names,
    symbolic_dependence_relation,
    symbolic_pair_relation,
)
from repro.workloads.examples import example2_loop, example3_loop, figure1_loop, figure2_loop


class TestSymbolicRelation:
    def test_source_target_names(self):
        src, dst = source_target_names(("I1", "I2"))
        assert src == ("I1", "I2")
        assert dst == ("I1'", "I2'")

    def test_figure1_matches_exact(self):
        prog = figure1_loop(10, 10)
        exact = DependenceAnalysis(prog, {}).space.rd
        symbolic = oracle.enumerate_union_pairs(symbolic_dependence_relation(prog))
        assert oracle.pairs(symbolic) == oracle.pairs(exact)

    def test_figure2_matches_exact(self):
        prog = figure2_loop(20)
        exact = DependenceAnalysis(prog, {}).space.rd
        symbolic = oracle.enumerate_union_pairs(symbolic_dependence_relation(prog))
        assert oracle.pairs(symbolic) == oracle.pairs(exact)

    def test_example2_matches_exact(self):
        prog = example2_loop(12)
        exact = DependenceAnalysis(prog, {}).space.rd
        symbolic = oracle.enumerate_union_pairs(symbolic_dependence_relation(prog))
        assert oracle.pairs(symbolic) == oracle.pairs(exact)

    def test_parametric_relation_binds(self):
        prog = figure1_loop()  # symbolic N1, N2
        rel = symbolic_dependence_relation(prog)
        pairs = oracle.enumerate_union_pairs(rel, {"N1": 10, "N2": 10})
        exact = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        assert oracle.pairs(pairs) == oracle.pairs(exact)

    def test_orientation_is_forward(self):
        prog = figure1_loop(10, 10)
        rel = oracle.enumerate_union_pairs(symbolic_dependence_relation(prog))
        for src, dst in oracle.pairs(rel):
            assert src < dst

    def test_imperfect_nest_rejected(self):
        with pytest.raises(ValueError):
            symbolic_dependence_relation(example3_loop(10))

    def test_pair_relation_requires_same_index_space(self):
        prog = example3_loop(10)
        analysis = DependenceAnalysis(prog, {})
        cross = [
            p
            for p in analysis.reference_pairs
            if p.source_ctx.statement.label != p.target_ctx.statement.label
        ]
        assert cross
        with pytest.raises(ValueError):
            symbolic_pair_relation(cross[0])
