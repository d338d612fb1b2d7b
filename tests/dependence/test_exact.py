"""Tests for repro.dependence.exact: exact dependences vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.exact import enumerate_domain, exact_pair_dependences, reference_addresses
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import example3_loop, figure1_loop, figure2_loop
from repro.workloads.synthetic import large_triangular_loop, random_coupled_loop
import random


def brute_force_dependences(prog, params):
    """All (i, j) pairs of different iterations touching the same element with a write."""
    contexts = {ctx.statement.label: ctx for ctx in prog.statement_contexts()}
    accesses = []  # (label, iteration, address, is_write)
    for label, iteration in prog.sequential_iterations(params):
        ctx = contexts[label]
        env = dict(zip(ctx.index_names, iteration))
        for ref in ctx.statement.writes:
            accesses.append((label, iteration, (ref.array,) + ref.evaluate(env), True))
        for ref in ctx.statement.reads:
            accesses.append((label, iteration, (ref.array,) + ref.evaluate(env), False))
    pairs = set()
    by_addr = {}
    for label, iteration, addr, is_write in accesses:
        by_addr.setdefault(addr, []).append((label, iteration, is_write))
    for addr, items in by_addr.items():
        for a in items:
            for b in items:
                if a[1] == b[1] and a[0] == b[0]:
                    continue
                if a[2] or b[2]:
                    pairs.add(((a[0], a[1]), (b[0], b[1])))
    return pairs


class TestEnumerateDomain:
    def test_rectangular(self):
        prog = figure1_loop(3, 4)
        ctx = prog.statement_contexts()[0]
        points = enumerate_domain(ctx, {})
        assert points.shape == (12, 2)

    def test_triangular(self):
        prog = example3_loop(5)
        ctx = prog.context_of("s1")
        points = enumerate_domain(ctx, {})
        assert all(1 <= i <= 5 and 1 <= j <= i and j <= k <= i for i, j, k in points.tolist())
        expected = sum((i - j + 1) for i in range(1, 6) for j in range(1, i + 1))
        assert len(points) == expected

    def test_parametric_binding(self):
        prog = figure1_loop()
        ctx = prog.statement_contexts()[0]
        points = enumerate_domain(ctx, {"N1": 2, "N2": 3}, prog.parameters)
        assert len(points) == 6


    def test_rows_follow_sequential_order(self):
        prog = example3_loop(5)
        points = enumerate_domain(prog.context_of("s1"), {})
        seq = [it for label, it in prog.sequential_iterations({}) if label == "s1"]
        assert [tuple(p) for p in points.tolist()] == seq

    def test_empty_range(self):
        body = assign("s", aref("a", "I"), [])
        prog = program("e", loop("I", 3, 1, body), array_shapes={"a": (5,)})
        assert enumerate_domain(prog.statement_contexts()[0], {}).shape == (0, 1)

    def test_inner_range_empty_for_every_outer_value(self):
        # J >= I + 10 and J <= 5: only the projection onto J shows it.
        body = assign("s", aref("a", "I", "J"), [])
        prog = program(
            "e", loop("I", 1, 5, loop("J", "I+10", 5, body)), array_shapes={"a": (6, 16)}
        )
        assert enumerate_domain(prog.statement_contexts()[0], {}).shape == (0, 2)

    def test_unbound_parameter_rejected(self):
        prog = figure1_loop()
        with pytest.raises(ValueError, match="I2 is unbounded"):
            enumerate_domain(prog.statement_contexts()[0], {"N1": 3}, prog.parameters)

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_affine_lower_bound_matches_brute_force(self, hi1, hi2, a, b):
        body = assign("s", aref("a", "I", "J"), [])
        prog = program(
            "t",
            loop("I", 0, hi1, loop("J", [0, f"{a}*I+{b}"], hi2, body)),
            array_shapes={"a": (6, 6)},
        )
        expected = [
            (i, j)
            for i in range(hi1 + 1)
            for j in range(hi2 + 1)
            if j >= a * i + b
        ]
        points = enumerate_domain(prog.statement_contexts()[0], {})
        assert [tuple(p) for p in points.tolist()] == expected


class TestReferenceAddresses:
    def test_matches_pointwise_evaluation(self):
        prog = figure1_loop(4, 4)
        ctx = prog.statement_contexts()[0]
        ref = ctx.statement.writes[0]
        points = enumerate_domain(ctx, {})
        addrs = reference_addresses(ref, ctx.index_names, points)
        for point, addr in zip(points.tolist(), addrs.tolist()):
            assert tuple(addr) == ref.evaluate(dict(zip(ctx.index_names, point)))


class TestExactDependences:
    def test_figure1_matches_brute_force(self):
        prog = figure1_loop(10, 10)
        analysis = DependenceAnalysis(prog, {})
        rel = analysis.space.rd
        brute = brute_force_dependences(prog, {})
        brute_iter_pairs = set()
        for (l1, i1), (l2, i2) in brute:
            if i1 == i2:
                continue
            brute_iter_pairs.add((min(i1, i2), max(i1, i2)))
        assert oracle.pairs(rel) == brute_iter_pairs

    def test_figure1_distances_match_paper(self):
        prog = figure1_loop(10, 10)
        rel = DependenceAnalysis(prog, {}).space.rd
        assert sorted(rel.distances()) == [(2, 2), (4, 4), (6, 6)]

    def test_figure2_solutions(self):
        prog = figure2_loop(20)
        rel = DependenceAnalysis(prog, {}).space.rd
        for (i,), (j,) in oracle.pairs(rel):
            assert 2 * i == 21 - j or 2 * j == 21 - i

    def test_example3_no_dependence_at_small_n(self):
        # the write a(I-J, I+J) and read a(I+2K+5, 4K-J) cannot collide for N <= 8
        prog = example3_loop(8)
        analysis = DependenceAnalysis(prog, {})
        assert not analysis.has_dependences()

    def test_example3_dependences_at_larger_n(self):
        prog = example3_loop(40)
        analysis = DependenceAnalysis(prog, {})
        assert analysis.has_dependences()

    def test_self_pairs_excluded_by_default(self):
        body = assign("s", aref("a", "I"), [aref("a", "I")])
        prog = program("selfloop", loop("I", 1, 5, body), array_shapes={"a": (10,)})
        analysis = DependenceAnalysis(prog, {})
        assert not analysis.has_dependences()

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_random_loops_match_brute_force(self, seed):
        rng = random.Random(seed)
        spec = random_coupled_loop(rng, n1=5, n2=5)
        prog = spec.program
        rel = DependenceAnalysis(prog, {}).space.rd
        brute = brute_force_dependences(prog, {})
        brute_iter_pairs = set()
        for (l1, i1), (l2, i2) in brute:
            if i1 == i2:
                continue
            brute_iter_pairs.add((min(i1, i2), max(i1, i2)))
        assert oracle.pairs(rel) == brute_iter_pairs


class TestSortJoinEngine:
    """The vectorised sort/merge join must match the oracle's dict join."""

    def pairs_of(self, prog):
        return DependenceAnalysis(prog, {}).reference_pairs

    def assert_engines_agree(self, prog, params=None):
        params = dict(params or {})
        for pair in DependenceAnalysis(prog, params).reference_pairs:
            hashed = oracle.pair_dependences(pair, params, prog.parameters)
            sorted_ = exact_pair_dependences(pair, params, prog.parameters)
            assert sorted_ == hashed
            assert (sorted_.dim_in, sorted_.dim_out) == (hashed.dim_in, hashed.dim_out)

    def test_rectangular_domains(self):
        self.assert_engines_agree(figure1_loop(10, 10))
        self.assert_engines_agree(figure2_loop(20))

    def test_triangular_domains(self):
        # Non-rectangular (bounding box + filter) enumeration into the join.
        self.assert_engines_agree(large_triangular_loop(15))
        self.assert_engines_agree(example3_loop(40))

    def test_address_box_overflowing_int64_keys(self):
        # Subscripts scaled by 2**40 give a 2-D address box of ~2**84 cells,
        # so the join runs on rank-compressed codec keys; scaling every
        # address by the same constant changes no dependence.
        def scaled(k):
            body = assign(
                "s", aref("x", f"{k}*I+{k}", f"{k}*J"), [aref("x", f"{k}*J", f"{k}*I")]
            )
            return program(
                f"scaled{k}", loop("I", 1, 6, loop("J", 1, 6, body)),
                array_shapes={"x": (8, 8)},
            )

        self.assert_engines_agree(scaled(2**40))
        wide = [exact_pair_dependences(p, {}) for p in self.pairs_of(scaled(2**40))]
        narrow = [exact_pair_dependences(p, {}) for p in self.pairs_of(scaled(1))]
        assert wide == narrow and any(len(rel) for rel in wide)

    def test_triangular_result_matches_the_oracle(self):
        prog = large_triangular_loop(15)
        pairs = self.pairs_of(prog)
        rels = [exact_pair_dependences(pair, {}) for pair in pairs]
        assert any(len(rel) for rel in rels)
        for pair, rel in zip(pairs, rels):
            assert rel == oracle.pair_dependences(pair, {})

    def test_empty_domain_pair(self):
        body = assign("s", aref("x", "I+1"), [aref("x", "I")])
        prog = program("empty", loop("I", 5, 4, body), array_shapes={"x": (10,)})
        for pair in self.pairs_of(prog):
            assert exact_pair_dependences(pair, {}).is_empty()
            assert oracle.pair_dependences(pair, {}).is_empty()

    def test_rank_zero_scalar_reference_pair(self):
        # A scalar (rank-0) accumulator: every iteration touches t, so the
        # write/write pair relates all distinct iteration pairs.
        body = assign("s", aref("t"), [aref("x", "I")])
        prog = program(
            "scalar", loop("I", 1, 4, body), array_shapes={"t": (1,), "x": (6,)}
        )
        pairs = [
            p
            for p in self.pairs_of(prog)
            if p.source_ref.array == "t" and p.target_ref.array == "t"
        ]
        assert pairs
        for pair in pairs:
            hashed = oracle.pair_dependences(pair, {})
            sorted_ = exact_pair_dependences(pair, {})
            assert sorted_ == hashed
            assert len(hashed) == 4 * 4 - 4  # all ordered distinct pairs
            with_self = exact_pair_dependences(pair, {}, include_self=True)
            assert len(with_self) == 4 * 4

    def test_unknown_engine_rejected(self):
        # One join: the retired engine keyword fails loudly.
        pair = self.pairs_of(figure1_loop(4, 4))[0]
        with pytest.raises(TypeError):
            exact_pair_dependences(pair, {}, engine="hash")

    def test_analysis_engines_equivalent_end_to_end(self):
        for prog in (figure1_loop(10, 10), figure2_loop(20), large_triangular_loop(12)):
            rd = DependenceAnalysis(prog, {}).space.rd
            assert rd == oracle.statement_space(prog).rd
