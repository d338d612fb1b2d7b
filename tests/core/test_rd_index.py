"""Differential tests for the index-native Rd of the statement-level space.

The space builder computes Rd once, as row-index pairs ``(rd_lo, rd_hi)``
into the space's rows, with one sort/merge join per reference pair, and the
planner's consumers (the uniformity check, the three-set and dataflow
partitions, the chain builder) read those indices.  This module pins, on
Hypothesis-generated loop trees and Lemma 1 nests:

* the index-built Rd equal to the brute-force oracle's, and the index pairs
  to the relation's rows;
* every reference pair's non-empty flag equal to the oracle's per-pair join;
* the index cores of ``three_set_partition`` / ``dataflow_partition``
  (``three_set_partition_indexed`` / ``kahn_levels``) equal to their public
  ``(space, rd)`` adapters on relations that also carry
  pairs with endpoints outside the space;
* the uniformity check on indices equal to the definition-level oracle;

plus a wide-address program whose join runs on rank-compressed codec keys,
and the planner never materialising the per-pair relations.  Run with
``--hypothesis-profile=ci`` for the derandomized fixed-budget profile CI
uses.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from repro.core.dataflow import dataflow_partition, kahn_levels
from repro.core.partition import three_set_partition, three_set_partition_indexed
from repro.core.strategy import plan
from repro.dependence.analysis import DependenceAnalysis
from repro.ir.builder import aref, assign, loop, program
from repro.isl.relations import FiniteRelation, PointCodec
from repro.workloads.corpus import selection_corpus
from strategies import lemma1_programs, loop_programs, symbolic_programs

programs = st.one_of(loop_programs(), lemma1_programs())


def with_foreign_pairs(space, rd):
    """``rd`` plus pairs with one or both endpoints outside the space."""
    rows = space.unified_array
    src, dst = rd.as_arrays()
    if not rows.size:
        return rd
    # One past the space's bounding box in the first column: never a row.
    outside = rows + (int(rows[:, 0].max()) - int(rows[:, 0].min()) + 1) * np.eye(
        1, rows.shape[1], dtype=np.int64
    )
    return FiniteRelation.from_arrays(
        np.concatenate([src, rows, outside]), np.concatenate([dst, outside, outside[::-1]])
    )


class TestIndexedRd:
    @given(prog=programs)
    def test_rd_matches_the_oracle(self, prog):
        space = DependenceAnalysis(prog, {}).space
        assert space.rd == oracle.statement_space(prog).rd

    @given(prog=programs)
    def test_indices_are_the_relation(self, prog):
        space = DependenceAnalysis(prog, {}).space
        lo, hi = space.rd_lo, space.rd_hi
        assert (lo < hi).all()
        packed = lo * max(len(space), 1) + hi
        assert (np.diff(packed) > 0).all()  # unique and ascending by (lo, hi)
        src, dst = space.rd.as_arrays()
        assert np.array_equal(space.unified_array[lo], src)
        assert np.array_equal(space.unified_array[hi], dst)

    @given(prog=programs)
    def test_pair_flags_match_the_per_pair_join(self, prog):
        analysis = DependenceAnalysis(prog, {})
        expected = tuple(
            not oracle.pair_dependences(pair, {}, prog.parameters).is_empty()
            for pair in analysis.reference_pairs
        )
        assert analysis.space.pair_flags == expected
        assert "pair_dependences" not in vars(analysis)

    @given(prog=st.one_of(programs, symbolic_programs()))
    def test_uniformity_on_indices_matches_the_definition(self, prog):
        analysis = DependenceAnalysis(prog, {})
        space = analysis.space
        assert analysis.is_uniform() == oracle.is_uniform(
            space.rd, map(tuple, space.unified_array.tolist())
        )


class TestIndexCoresMatchAdapters:
    @given(prog=programs, seed=st.integers(0, 2**16))
    def test_three_set_partition(self, prog, seed):
        space = DependenceAnalysis(prog, {}).space
        rows = space.unified_array
        core = three_set_partition_indexed(rows, space.rd_lo, space.rd_hi, space.rd)
        # The adapter takes the space in any order, duplicated, and drops
        # the pairs with a foreign endpoint.
        shuffled = np.random.default_rng(seed).permutation(np.concatenate([rows, rows]))
        adapted = three_set_partition(shuffled, with_foreign_pairs(space, space.rd))
        assert adapted == core
        for got, want in zip(adapted.edge_indices(), core.edge_indices()):
            assert np.array_equal(got, want)
        assert adapted.counts() == core.counts()
        assert oracle.sets(core) == oracle.three_sets(rows.tolist(), space.rd)

    @given(prog=programs, seed=st.integers(0, 2**16))
    def test_dataflow_partition(self, prog, seed):
        space = DependenceAnalysis(prog, {}).space
        rows = space.unified_array
        rd = with_foreign_pairs(space, space.rd)
        offsets, order = kahn_levels(len(rows), space.rd_lo, space.rd_hi)
        shuffled = np.random.default_rng(seed).permutation(np.concatenate([rows, rows]))
        adapted = dataflow_partition(shuffled, rd)
        assert np.array_equal(adapted.level_arrays()[0], offsets)
        assert np.array_equal(adapted.level_arrays()[1], rows[order])
        assert oracle.wavefront_sets(adapted) == tuple(oracle.wavefronts(rows.tolist(), rd))


def scaled(k):
    """Figure 1's shape with every address scaled by ``k``."""
    body = assign("s", aref("x", f"{k}*I+{k}", f"{k}*J"), [aref("x", f"{k}*J", f"{k}*I")])
    return program(
        f"scaled{k}", loop("I", 1, 6, loop("J", 1, 6, body)), array_shapes={"x": (8, 8)}
    )


def test_wide_addresses_join_on_rank_compressed_keys(monkeypatch):
    # Subscripts scaled by 2**40 span a 2-D address box of ~2**84 cells, so
    # the space builder's per-array codec must rank-compress the keys.
    layouts = []
    original = PointCodec._rank_compressed

    def spy(rows):
        layouts.append(rows.shape)
        return original(rows)

    monkeypatch.setattr(PointCodec, "_rank_compressed", staticmethod(spy))
    wide = DependenceAnalysis(scaled(2**40), {}).space
    assert layouts
    narrow = DependenceAnalysis(scaled(1), {}).space
    assert len(wide.rd) and wide.rd == narrow.rd
    assert wide.rd == oracle.statement_space(scaled(2**40)).rd
    assert wide.pair_flags == narrow.pair_flags


@pytest.mark.parametrize("size", ["small", "medium"])
def test_planning_never_materialises_pair_relations(size):
    """Every strategy's plan reads Rd and the pair flags off the one space;
    the per-pair relations are a view only tests and reports derive."""
    for entry in selection_corpus(size=size):
        p = plan(entry.program, entry.params, cache=False)
        assert "pair_dependences" not in vars(p.analysis), (entry.name, p.strategy)
