"""Tests for repro.dependence.analysis: the whole-program driver."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.ir.builder import assign, loop, program
from repro.ir.nodes import ArrayRef
from repro.isl.affine import var
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.corpus import selection_corpus
from strategies import lemma1_programs, symbolic_programs


class TestDriver:
    def test_unbound_parameters_rejected(self):
        with pytest.raises(ValueError):
            DependenceAnalysis(figure1_loop(), {})

    def test_figure1_summary(self):
        analysis = DependenceAnalysis(figure1_loop(10, 10), {})
        s = analysis.summary()
        assert s["n_direct_dependences"] == 18
        assert s["single_coupled_pair"] is True
        assert s["uniform"] is False

    def test_figure2_summary(self):
        analysis = DependenceAnalysis(figure2_loop(20), {})
        assert analysis.has_single_coupled_pair()
        assert len(analysis.space.rd) == 9
        assert len(analysis.space) == 20

    def test_example2_single_pair(self):
        analysis = DependenceAnalysis(example2_loop(12), {})
        pair = analysis.single_coupled_pair()
        assert pair is not None and pair.is_square_full_rank()

    def test_example3_statement_level_facts(self):
        analysis = DependenceAnalysis(example3_loop(40), {})
        assert not analysis.has_single_coupled_pair() or analysis.has_dependences()
        # an imperfect nest's space is the interleaved unified space
        assert analysis.space.index_map.interleaved
        assert analysis.space.width == 1 + 2 * 3

    def test_cholesky_has_multiple_coupled_pairs(self):
        prog = cholesky_loop(nmat=2, m=2, n=5, nrhs=1)
        analysis = DependenceAnalysis(prog, {})
        assert len(analysis.reference_pairs) > 1
        assert analysis.has_dependences()
        assert not analysis.has_single_coupled_pair()

    def test_pair_dependences_source_target_labels(self):
        analysis = DependenceAnalysis(example3_loop(40), {})
        labels = {
            (d.source_label, d.target_label)
            for d in analysis.pair_dependences
            if not d.is_empty()
        }
        assert all({a, b} <= {"s1", "s2"} for a, b in labels)

    def test_equal_references_built_apart_dedup_to_one_pair(self):
        # Two reads of a[I - 1], each its own ArrayRef.make: one pair with
        # the write, not two (plus the write with itself).
        first = ArrayRef.make("a", [var("I") - 1])
        second = ArrayRef.make("a", [var("I") + (-1)])
        assert first is not second and str(first) == str(second)
        body = assign("s", ArrayRef.make("a", ["I"]), [first, second])
        prog = program("twice", loop("I", 2, 8, body), array_shapes={"a": (10,)})
        analysis = DependenceAnalysis(prog, {})
        assert len(prog.reference_pairs()) == 3
        assert [(p.source_ref, p.target_ref) for p in analysis.reference_pairs] == [
            (body.writes[0], body.writes[0]),
            (body.writes[0], first),
        ]

    def test_caching_returns_same_object(self):
        analysis = DependenceAnalysis(figure1_loop(6, 6), {})
        assert analysis.space.rd is analysis.space.rd
        assert analysis.reference_pairs is analysis.reference_pairs
        assert analysis.single_coupled_pair() is analysis.single_coupled_pair()


class TestRdAgainstAccessedCells:
    """The exact Rd against one derived without reference pairs, domain
    enumeration or address keys (:func:`oracle.accessed_cell_rd`)."""

    @pytest.mark.parametrize(
        "prog",
        [figure1_loop(10, 10), figure2_loop(20), example2_loop(12)],
        ids=lambda p: p.name,
    )
    def test_paper_examples(self, prog):
        rd = DependenceAnalysis(prog, {}).space.rd
        assert rd == oracle.accessed_cell_rd(prog)
        assert all(src < dst for src, dst in oracle.pairs(rd))

    @pytest.mark.parametrize(
        "prog",
        [example3_loop(40), cholesky_loop(nmat=2, m=2, n=6, nrhs=2)],
        ids=lambda p: p.name,
    )
    def test_imperfect_paper_examples(self, prog):
        """The multi-statement examples: Example 3's single cross-statement
        pair first meets at N=40, and the Cholesky kernel's five statements
        unify depths 3 and 4."""
        rd = DependenceAnalysis(prog, {}).space.rd
        assert len(rd) > 0
        assert rd == oracle.accessed_cell_rd(prog)

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param(entry, id=f"{size}-{entry.name}")
            for size in ("small", "medium")
            for entry in selection_corpus(size=size)
        ],
    )
    def test_selection_corpus(self, entry):
        """Every family of the corpus the strategy selector is calibrated
        on, parametric entries bound to their concrete parameters."""
        rd = DependenceAnalysis(entry.program, entry.params).space.rd
        assert rd == oracle.accessed_cell_rd(entry.program, entry.params)

    def test_parametric_figure1_binds_to_the_concrete_program(self):
        params = {"N1": 10, "N2": 10}
        rd = DependenceAnalysis(figure1_loop(), params).space.rd
        assert rd == oracle.accessed_cell_rd(figure1_loop(), params)
        assert rd == oracle.accessed_cell_rd(figure1_loop(10, 10))
        assert rd == DependenceAnalysis(figure1_loop(10, 10), {}).space.rd


class TestSummaryErrorHandling:
    """summary() counts every program's Rd, reports uniformity for perfect
    nests only, and re-raises genuine errors."""

    def test_imperfect_nest_reports_none_fields(self):
        """Uniformity is reported for perfect nests only; the dependence
        count comes from the statement-level Rd every program has."""
        analysis = DependenceAnalysis(example3_loop(40), {})
        s = analysis.summary()
        assert s["n_direct_dependences"] == len(analysis.space.rd) > 0
        assert s["uniform"] is None
        assert s["n_reference_pairs"] > 0

    def test_genuine_error_propagates(self, monkeypatch):
        # summary() builds Rd through the space builder's one join per
        # reference pair; an error raised there must reach the caller.
        import repro.core.statement as statement_module

        def boom(*args, **kwargs):
            raise ValueError("address table corrupted")

        monkeypatch.setattr(statement_module, "dependence_index_pairs", boom)
        analysis = DependenceAnalysis(figure1_loop(6, 6), {})
        with pytest.raises(ValueError, match="address table corrupted"):
            analysis.summary()

    def test_unknown_engine_rejected(self):
        # The analysis has one engine; the retired keyword fails loudly.
        with pytest.raises(TypeError):
            DependenceAnalysis(figure1_loop(6, 6), {}, engine="set")


class TestEngineEquivalence:
    """The array analysis must agree with the brute-force oracle."""

    @pytest.mark.parametrize(
        "prog",
        [figure1_loop(10, 10), figure2_loop(20), example2_loop(12)],
        ids=lambda p: p.name,
    )
    def test_summaries_identical(self, prog):
        analysis = DependenceAnalysis(prog, {})
        rd = oracle.statement_space(prog).rd
        uniform = oracle.is_uniform(rd, oracle.space_points(prog))
        assert analysis.space.rd == rd
        assert analysis.is_uniform() == uniform
        summary = analysis.summary()
        assert summary["n_direct_dependences"] == len(rd)
        assert summary["uniform"] == uniform

    def test_uniform_program_agrees(self):
        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(12, 9)
        rd = oracle.statement_space(prog).rd
        assert oracle.is_uniform(rd, oracle.space_points(prog)) is True
        assert DependenceAnalysis(prog, {}).is_uniform() is True


class TestUniformShiftPairs:
    @given(prog=st.one_of(symbolic_programs(), lemma1_programs()))
    def test_matches_the_recurrence_derivation(self, prog):
        """Solving only ``u`` (``T = I`` whenever ``A == B``) gives the
        answer the full Lemma 1 recurrence gives."""
        analysis = DependenceAnalysis(prog, {})
        assert analysis.uniform_shift_pairs == oracle.uniform_shift_pairs(analysis)

    def test_uniform_and_non_uniform_examples(self):
        from repro.workloads.synthetic import large_uniform_loop

        assert DependenceAnalysis(figure1_loop(6, 6), {}).uniform_shift_pairs is None
        assert DependenceAnalysis(large_uniform_loop(5, 5), {}).uniform_shift_pairs == ((1, 1), 1)
