"""Tests for repro.core.chains: the P2 chain phase (Lemma 1)."""

import numpy as np
import pytest

import oracle
from repro.core.chains import CHAIN_PHASE, chain_phase
from repro.core.partition import three_set_partition
from repro.core.partitioner import PartitioningNotApplicable, recurrence_branch
from repro.core.recurrence import AffineRecurrence
from repro.core.strategy import plan
from repro.dependence import DependenceAnalysis
from repro.ir.builder import aref, assign, loop, program
from repro.isl.lexorder import lex_lt
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop


def setup(prog):
    analysis = DependenceAnalysis(prog, {})
    partition = three_set_partition(
        analysis.space.unified_array, analysis.space.rd
    )
    recurrence = AffineRecurrence.from_pair(analysis.single_coupled_pair())
    return analysis, partition, recurrence


def hand_built(edges, n):
    """The partition of Φ = {1..n} under 1-D edges ``[(a, b), ...]``."""
    rd = oracle.relation([((a,), (b,)) for a, b in edges])
    return three_set_partition({(k,) for k in range(1, n + 1)}, rd)


class TestMonotonicChain:
    def test_must_be_increasing(self):
        _, partition, _ = setup(figure1_loop(30, 40))
        for chain in oracle.chain_units(chain_phase(partition)):
            assert all(lex_lt(a, b) for a, b in zip(chain, chain[1:]))

    def test_accessors(self):
        """Each unit starts at a W iteration and ends at a point with no
        successor inside P2; the phase holds one unit per W start."""
        _, partition, _ = setup(figure1_loop(30, 40))
        phase = chain_phase(partition)
        assert phase.name == CHAIN_PHASE
        chains = oracle.chain_units(phase)
        sets = oracle.sets(partition)
        assert len(phase) == len(chains) == len(sets.w)
        assert [c[0] for c in chains] == sorted(sets.w)
        pairs = oracle.pairs(partition.rd)
        for chain in chains:
            assert not any(a == chain[-1] and b in sets.p2 for a, b in pairs)
        assert phase.span == max(len(c) for c in chains)


class TestFigure2Splitting:
    def test_paper_chain_split(self):
        """The solution chain 6 -> 9 -> 3 -> 15 splits into the monotonic pairs
        6 -> 9, 3 -> 9 and 3 -> 15 (figure 2): the space's oriented Rd."""
        analysis = DependenceAnalysis(figure2_loop(20), {})
        pairs = oracle.pairs(analysis.space.rd)
        assert oracle.orient_forward(pairs) == pairs
        as_scalars = {(a[0], b[0]) for a, b in pairs}
        assert {(6, 9), (3, 9), (3, 15)} <= as_scalars
        # every pair is lexicographically forward
        assert all(a < b for a, b in pairs)


class TestChainExtraction:
    def test_figure1_recurrence_chains_cover_p2_disjointly(self):
        _, partition, recurrence = setup(figure1_loop(30, 40))
        phase = chain_phase(partition)
        rows = [tuple(r) for r in phase.iters.tolist()]
        assert len(rows) == len(set(rows)) and set(rows) == oracle.sets(partition).p2
        assert oracle.chain_units(phase) == oracle.recurrence_chains(partition, recurrence)

    def test_figure1_graph_chains_agree_with_recurrence_chains(self):
        _, partition, recurrence = setup(figure1_loop(30, 40))
        from_rec = oracle.recurrence_chains(partition, recurrence)
        assert oracle.chains_by_dict_walk(partition) == from_rec
        assert oracle.chain_units(chain_phase(partition)) == from_rec

    def test_example2_chains(self):
        _, partition, recurrence = setup(example2_loop(30))
        chains = oracle.chain_units(chain_phase(partition))
        assert chains == oracle.recurrence_chains(partition, recurrence)
        # every chain starts at a W iteration
        assert {c[0] for c in chains} == oracle.sets(partition).w

    def test_chain_steps_are_direct_dependences(self):
        analysis, partition, _ = setup(figure1_loop(40, 60))
        rel = oracle.pairs(analysis.space.rd)
        for chain in oracle.chain_units(chain_phase(partition)):
            for a, b in zip(chain, chain[1:]):
                assert (a, b) in rel

    def test_empty_intermediate_set_gives_no_chains(self):
        _, partition, recurrence = setup(figure2_loop(20))
        assert len(partition.p2_array()) == 0
        phase = chain_phase(partition)
        assert len(phase) == 0 and phase.work == 0
        assert oracle.recurrence_chains(partition, recurrence) == []
        assert oracle.chains_by_dict_walk(partition) == []

    def test_verify_disjoint_chains_detects_overlap(self):
        # P2 = {2, 3, 4} with the internal edges 2 -> 4 and 3 -> 4: the
        # chains from the heads 2 and 3 would both hold 4.
        partition = hand_built([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 5)
        assert oracle.sets(partition).p2 == {(2,), (3,), (4,)}
        with pytest.raises(ValueError, match=r"\(4,\) has 2 predecessors.*Lemma 1"):
            chain_phase(partition)

    def test_verify_disjoint_chains_detects_missing_point(self):
        # 2 <-> 3 is a cycle inside P2: no head reaches it, so a walk from
        # the heads would miss both points.
        partition = hand_built([(1, 2), (2, 3), (3, 2), (3, 4)], 4)
        assert oracle.sets(partition).p2 == {(2,), (3,)}
        with pytest.raises(ValueError, match="cycle.*Lemma 1"):
            chain_phase(partition)


class TestChainsRespectRelation:
    """Every P2-internal edge joins consecutive points of one chain, or the
    chain builder refuses the relation."""

    def test_single_chain_covering_p2_respects(self):
        # Φ = {1..4} with the chain relation 1→2→3→4: P1={1}, P2={2,3}, P3={4}.
        partition = hand_built([(1, 2), (2, 3), (3, 4)], 4)
        phase = chain_phase(partition)
        assert oracle.chain_units(phase) == [((2,), (3,))]

    def test_split_chains_break_internal_edge(self):
        # 2 has two successors inside P2 (3 and 4): one chain cannot hold
        # both edges, and two chains would run one of them concurrently.
        partition = hand_built([(1, 2), (2, 3), (2, 4), (3, 5), (4, 6)], 6)
        assert oracle.sets(partition).p2 == {(2,), (3,), (4,)}
        with pytest.raises(ValueError, match=r"\(2,\) has 2 successors.*Lemma 1"):
            chain_phase(partition)

    def test_uncovered_p2_endpoint_rejected(self):
        # Two chains 2→3→4 and 6→7→8 plus a cross edge 3→7 that neither
        # chain would order.
        edges = [(1, 2), (2, 3), (3, 4), (4, 9), (5, 6), (6, 7), (7, 8), (8, 9), (3, 7)]
        partition = hand_built(edges, 9)
        with pytest.raises(ValueError, match="Lemma 1"):
            chain_phase(partition)
        without_cross = hand_built(edges[:-1], 9)
        assert oracle.chain_units(chain_phase(without_cross)) == [
            ((2,), (3,), (4,)), ((6,), (7,), (8,)),
        ]

    def test_graph_walk_chains_always_respect_single_pair(self):
        prog = figure1_loop(10, 10)
        analysis, partition, recurrence = setup(prog)
        result = recurrence_branch(prog)
        assert result.schedule.respects(analysis.space)
        assert oracle.chain_units(chain_phase(partition)) == oracle.recurrence_chains(
            partition, recurrence
        )


class TestLemma1Refusal:
    @staticmethod
    def constant_read_program():
        # x[2I] = f(x[I], x[4]): the coupled pair x[2I] / x[I] plus a read of
        # the constant cell x[4], which iteration 2 writes and every other
        # iteration reads, so 2 has many successors inside P2.
        return program(
            "constant-read",
            loop("I", 1, 30, assign("s", aref("x", "2*I"), [aref("x", "I"), aref("x", "4")])),
            array_shapes={"x": (64,)},
        )

    def test_constant_subscript_read_is_refused(self):
        prog = self.constant_read_program()
        with pytest.raises(PartitioningNotApplicable, match="Lemma 1 does not hold"):
            recurrence_branch(prog)
        p = plan(prog, cache=False)
        assert p.strategy != "recurrence-chains"
        assert "Lemma 1" in dict(p.skipped)["recurrence-chains"]
        assert p.validate().ok

    def test_chain_lengths_read_the_p2_phase(self):
        result = recurrence_branch(figure1_loop(30, 40))
        (phase,) = [p for p in result.schedule.phases if p.name == CHAIN_PHASE]
        assert np.array_equal(result.chain_lengths(), phase.unit_lengths())
        assert result.longest_chain() == phase.span
        assert result.summary()["n_chains"] == len(phase)
