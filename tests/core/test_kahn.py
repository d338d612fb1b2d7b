"""Property tests of the one Kahn level peel, :func:`repro.core.dataflow.kahn_levels`.

On Hypothesis-drawn relations over ``n`` nodes (edges oriented by a drawn
node ranking, so acyclic but in any index direction, with duplicate edges
and nodes of many in- and out-edges) the levels must equal the oracle's
literal while-loop of Algorithm 1's dataflow branch, every level ascending;
a cycle must stall with the oracle's error and too small a ``max_steps``
must raise.  Run with ``--hypothesis-profile=ci`` for the derandomized
fixed-budget profile CI uses.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from repro.core.dataflow import kahn_levels


@st.composite
def dags(draw):
    """``(n, lo, hi)``: an acyclic edge list with duplicates."""
    n = draw(st.integers(0, 24))
    if n < 2:
        return n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rank = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
    edges = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b]
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    lo = np.array([a for a, _ in edges], dtype=np.int64)
    hi = np.array([b for _, b in edges], dtype=np.int64)
    return n, lo, hi


def oracle_levels(n, lo, hi, max_steps=None):
    space = [(k,) for k in range(n)]
    rd = oracle.relation({((a,), (b,)) for a, b in zip(lo.tolist(), hi.tolist())}, 1, 1)
    return oracle.wavefronts(space, rd, max_steps)


def levels_of(offsets, order):
    bounds = offsets.tolist()
    return tuple(frozenset((k,) for k in order[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


@given(dag=dags())
def test_levels_match_the_literal_while_loop(dag):
    n, lo, hi = dag
    offsets, order = kahn_levels(n, lo, hi)
    assert levels_of(offsets, order) == oracle_levels(n, lo, hi)
    assert sorted(order.tolist()) == list(range(n))
    bounds = offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        assert b > a and (np.diff(order[a:b]) > 0).all()


@given(dag=dags(), data=st.data())
def test_max_steps_raises_like_the_oracle(dag, data):
    n, lo, hi = dag
    steps = len(oracle_levels(n, lo, hi))
    limit = data.draw(st.integers(0, steps))
    if limit < steps:
        with pytest.raises(RuntimeError, match="did not terminate within"):
            kahn_levels(n, lo, hi, max_steps=limit)
        with pytest.raises(RuntimeError, match="did not terminate"):
            oracle_levels(n, lo, hi, max_steps=limit)
    else:
        offsets, _ = kahn_levels(n, lo, hi, max_steps=limit)
        assert len(offsets) - 1 == steps


@given(dag=dags(), data=st.data())
def test_a_cycle_stalls_like_the_oracle(dag, data):
    n, lo, hi = dag
    if n < 2:
        return
    cycle = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True))
    lo = np.concatenate([lo, np.array(cycle, dtype=np.int64)])
    hi = np.concatenate([hi, np.array(cycle[1:] + cycle[:1], dtype=np.int64)])
    with pytest.raises(RuntimeError, match="stalled"):
        kahn_levels(n, lo, hi)
    with pytest.raises(RuntimeError, match="stalled"):
        oracle_levels(n, lo, hi)


def edges(*pairs):
    lo = np.array([a for a, _ in pairs], dtype=np.int64)
    hi = np.array([b for _, b in pairs], dtype=np.int64)
    return lo, hi


class TestKahnExamples:
    """Small graphs whose levels can be read off by hand."""

    def test_no_nodes_is_no_level(self):
        offsets, order = kahn_levels(0, *edges())
        assert offsets.tolist() == [0]
        assert order.dtype == np.int64 and order.size == 0

    def test_no_edges_is_one_level_in_index_order(self):
        offsets, order = kahn_levels(5, *edges())
        assert offsets.tolist() == [0, 5]
        assert order.tolist() == [0, 1, 2, 3, 4]

    def test_chain_against_the_index_order_is_one_node_per_level(self):
        offsets, order = kahn_levels(4, *edges((3, 2), (2, 1), (1, 0)))
        assert offsets.tolist() == [0, 1, 2, 3, 4]
        assert order.tolist() == [3, 2, 1, 0]

    def test_diamond_waits_for_its_last_predecessor(self):
        # 0 -> {1, 2} -> 3, and a long way round 0 -> 4 -> 2.
        offsets, order = kahn_levels(5, *edges((0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 2)))
        assert offsets.tolist() == [0, 1, 3, 4, 5]
        assert order.tolist() == [0, 1, 4, 2, 3]

    def test_duplicate_edges_release_a_node_once(self):
        offsets, order = kahn_levels(3, *edges((0, 2), (0, 2), (1, 2), (0, 2)))
        assert offsets.tolist() == [0, 2, 3]
        assert order.tolist() == [0, 1, 2]

    def test_self_edge_stalls(self):
        with pytest.raises(RuntimeError, match="stalled"):
            kahn_levels(3, *edges((0, 1), (2, 2)))

    def test_zero_max_steps_refuses_any_node(self):
        with pytest.raises(RuntimeError, match="within 0 steps; 2 iterations remain"):
            kahn_levels(2, *edges(), max_steps=0)
        offsets, _ = kahn_levels(0, *edges(), max_steps=0)
        assert offsets.tolist() == [0]
