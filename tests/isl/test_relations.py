"""Tests for repro.isl.relations: finite and symbolic relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.affine import AffineExpr, var
from repro.isl.convex import Constraint, ConvexSet
from repro.isl.lexorder import lex_lt
from repro.isl.relations import (
    ConvexRelation,
    FiniteRelation,
    PointCodec,
    UnionRelation,
    in_sorted,
    lexsort_rows,
)
from repro.isl.sets import UnionSet


def rel(pairs):
    return FiniteRelation.from_pairs(pairs)


#: Coordinates near 0, near ±2**40 (boxes that overflow raw int64 keys) and
#: anywhere in int64.
COORDS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**40 - 3, 2**40 + 3),
    st.integers(-(2**40) - 3, -(2**40) + 3),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def row_sets(draw):
    """Random ``(n, dim)`` int64 row sets, a third of them diagonal (every
    column equal), which makes the raw box of a depth-5 set overflow."""
    dim = draw(st.integers(1, 5))
    if draw(st.integers(0, 2)) == 0:
        rows = [[v] * dim for v in draw(st.lists(COORDS, min_size=1, max_size=20))]
    else:
        row = st.lists(COORDS, min_size=dim, max_size=dim)
        rows = draw(st.lists(row, min_size=1, max_size=30))
    return np.array(rows, dtype=np.int64)


class TestFiniteRelationBasics:
    def test_domain_range(self):
        r = rel([((1,), (2,)), ((1,), (3,)), ((4,), (5,))])
        assert r.domain() == {(1,), (4,)}
        assert r.range() == {(2,), (3,), (5,)}
        assert r.points() == {(1,), (2,), (3,), (4,), (5,)}

    def test_contains_len_iter(self):
        r = rel([((1,), (2,))])
        assert ((1,), (2,)) in r
        assert len(r) == 1
        assert list(r) == [((1,), (2,))]

    def test_inverse(self):
        r = rel([((1, 2), (3, 4))])
        assert r.inverse().pairs == frozenset({((3, 4), (1, 2))})

    def test_union(self):
        a = rel([((1,), (2,))])
        b = rel([((2,), (3,))])
        assert len(a.union(b)) == 2

    def test_restrict(self):
        r = rel([((1,), (2,)), ((3,), (4,))])
        assert len(r.restrict(domain={(1,)})) == 1
        assert len(r.restrict(rng={(4,)})) == 1
        assert len(r.restrict(domain={(1,)}, rng={(4,)})) == 0

    def test_successors_predecessors(self):
        r = rel([((1,), (2,)), ((1,), (3,)), ((2,), (3,))])
        assert r.successors((1,)) == [(2,), (3,)]
        assert r.predecessors((3,)) == [(1,), (2,)]
        assert r.successor_map()[(1,)] == [(2,), (3,)]
        assert r.predecessor_map()[(3,)] == [(1,), (2,)]

    def test_compose(self):
        a = rel([((1,), (2,))])
        b = rel([((2,), (5,)), ((2,), (6,))])
        assert a.compose(b).pairs == frozenset({((1,), (5,)), ((1,), (6,))})

    def test_transitive_closure(self):
        r = rel([((1,), (2,)), ((2,), (3,)), ((3,), (4,))])
        closure = r.transitive_closure()
        assert ((1,), (4,)) in closure
        assert ((1,), (3,)) in closure
        assert len(closure) == 6

    def test_distances(self):
        r = rel([((1, 1), (3, 3)), ((2, 2), (6, 6))])
        assert r.distances() == {(2, 2), (4, 4)}


class TestOrientation:
    def test_forward_backward_split(self):
        r = rel([((1,), (5,)), ((5,), (2,)), ((3,), (3,))])
        fwd = r.lexicographically_forward()
        back = r.lexicographically_backward()
        assert fwd.pairs == frozenset({((1,), (5,))})
        assert back.pairs == frozenset({((5,), (2,))})

    def test_oriented_forward_drops_self_and_flips(self):
        r = rel([((5,), (2,)), ((3,), (3,)), ((1,), (4,))])
        oriented = r.oriented_forward()
        assert oriented.pairs == frozenset({((2,), (5,)), ((1,), (4,))})

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=15
        )
    )
    @settings(max_examples=40)
    def test_oriented_forward_always_forward(self, raw):
        r = rel([((a,), (b,)) for a, b in raw])
        for src, dst in r.oriented_forward().pairs:
            assert src < dst


class TestPointCodec:
    def test_encode_decode_round_trip(self):
        points = np.array([[1, 5], [3, -2], [0, 0], [7, 4]], dtype=np.int64)
        codec = PointCodec.for_arrays(points)
        keys = codec.encode(points)
        assert np.array_equal(codec.decode(keys), points)
        assert len(set(keys.tolist())) == 4

    def test_key_order_is_lexicographic(self):
        points = np.array(
            [[2, 1], [1, 9], [1, 2], [2, 0], [0, 5]], dtype=np.int64
        )
        codec = PointCodec.for_arrays(points)
        keys = codec.encode(points)
        by_key = [tuple(p) for p in points[np.argsort(keys)].tolist()]
        assert by_key == sorted(tuple(p) for p in points.tolist())

    def test_contains(self):
        codec = PointCodec.for_arrays(np.array([[0, 0], [3, 3]], dtype=np.int64))
        mask = codec.contains(np.array([[1, 1], [4, 0], [-1, 2]], dtype=np.int64))
        assert mask.tolist() == [True, False, False]

    def test_overflowing_box_rank_compresses(self):
        # A box of 2**80 cells cannot take raw mixed-radix keys; the codec
        # rank-compresses the columns and stays exact and order-preserving.
        huge = np.array([[0, 0], [2**40, 2**40]], dtype=np.int64)
        codec = PointCodec.for_arrays(huge)
        assert codec.values is not None
        keys = codec.encode(huge)
        assert keys.tolist() == sorted(set(keys.tolist()))
        assert np.array_equal(codec.decode(keys), huge)
        probe = np.array([[0, 2**40], [1, 1], [2**40, 0]], dtype=np.int64)
        assert codec.contains(probe).tolist() == [True, False, True]

    def test_prefix_is_reranked_when_ranks_overflow(self):
        # A depth-5 diagonal set with 7000 distinct values per column: even
        # the product of the per-column ranks (7000**5) overflows int64, so
        # the partial key is re-ranked before the last column.
        values = np.arange(7000, dtype=np.int64) * 2**27 - 2**39
        rows = np.repeat(values[::-1, None], 5, axis=1)
        codec = PointCodec.for_arrays(rows)
        assert any(table is not None for table in codec.prefixes)
        keys = codec.encode(rows)
        assert np.array_equal(np.argsort(keys), lexsort_rows(rows))
        assert np.array_equal(codec.decode(keys), rows)
        assert not codec.contains(np.array([[values[0], values[1], 0, 0, 0]])).any()

    @given(row_sets())
    @settings(max_examples=80)
    def test_codec_is_an_exact_lexicographic_encoding(self, rows):
        codec = PointCodec.for_arrays(rows)
        keys = codec.encode(rows)
        distinct = np.unique(rows, axis=0)
        assert len(np.unique(codec.encode(distinct))) == len(distinct)  # injective
        assert np.array_equal(np.argsort(keys, kind="stable"), lexsort_rows(rows))
        assert np.array_equal(codec.decode(keys), rows)
        assert codec.contains(rows).all()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PointCodec.for_arrays(np.zeros((0, 2), dtype=np.int64))

    def test_in_sorted(self):
        sorted_keys = np.array([2, 5, 9], dtype=np.int64)
        keys = np.array([1, 2, 5, 6, 9, 10], dtype=np.int64)
        assert in_sorted(keys, sorted_keys).tolist() == [
            False, True, True, False, True, False,
        ]
        assert not in_sorted(keys, np.zeros(0, dtype=np.int64)).any()


class TestArrayBackedRelation:
    def make(self):
        return rel(
            [((1, 1), (2, 3)), ((2, 3), (4, 4)), ((1, 2), (2, 3)), ((5, 0), (6, 1))]
        )

    def test_as_arrays_round_trip(self):
        r = self.make()
        src, dst = r.as_arrays()
        assert src.shape == (4, 2) and dst.shape == (4, 2)
        assert FiniteRelation.from_arrays(src, dst) == r
        # cached: the same objects come back
        assert r.as_arrays()[0] is src

    def test_as_arrays_empty(self):
        r = FiniteRelation(frozenset(), 2, 2)
        src, dst = r.as_arrays()
        assert src.shape == (0, 2) and dst.shape == (0, 2)

    def test_oriented_forward_bulk_matches_scalar(self):
        raw = [
            ((k % 67, (k * 13) % 71), ((k * 7) % 67, (k * 3) % 71))
            for k in range(4596)
        ]
        r = rel(raw)
        expected = set()
        for a, b in r.pairs:
            if a == b:
                continue
            expected.add((a, b) if lex_lt(a, b) else (b, a))
        assert r.oriented_forward().pairs == frozenset(expected)


class TestLazyRelation:
    """from_arrays defers the frozenset; both representations are equivalent."""

    def arrays(self):
        src = np.array([[1, 1], [2, 3], [1, 2], [5, 0], [1, 1]], dtype=np.int64)
        dst = np.array([[2, 3], [4, 4], [2, 3], [6, 1], [2, 3]], dtype=np.int64)
        return src, dst  # contains one duplicate pair

    def test_pairs_deferred_until_asked(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        assert r._pairs is None  # not materialised by construction
        assert len(r) == 4  # length known without materialising (deduplicated)
        assert not r.is_empty()
        assert r._pairs is None
        assert ((1, 1), (2, 3)) in r  # a pair query materialises the view
        assert r._pairs is not None

    def test_equal_to_set_built_relation(self):
        src, dst = self.arrays()
        lazy = FiniteRelation.from_arrays(src, dst)
        eager = FiniteRelation.from_pairs(
            list(zip(map(tuple, src.tolist()), map(tuple, dst.tolist())))
        )
        assert lazy == eager
        assert eager == lazy
        assert hash(lazy) == hash(eager)
        assert list(lazy) == list(eager)

    def test_array_built_relations_compare_without_tuples(self):
        a = FiniteRelation.from_arrays(*self.arrays())
        b = FiniteRelation.from_arrays(*self.arrays())
        assert a == b
        assert a._pairs is None and b._pairs is None  # compared on arrays

    def test_canonical_array_order_matches_sorted_pairs(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        src, dst = r.as_arrays()
        expected = sorted(r.pairs)
        assert [tuple(p) for p in src.tolist()] == [a for a, _ in expected]
        assert [tuple(p) for p in dst.tolist()] == [b for _, b in expected]

    def test_union_on_arrays_matches_set_union(self):
        r1 = FiniteRelation.from_arrays(*self.arrays())
        r2 = FiniteRelation.from_pairs([((9, 9), (10, 10)), ((1, 1), (2, 3))])
        merged = r1.union(r2)
        assert merged.pairs == r1.pairs | r2.pairs
        empty = FiniteRelation(frozenset(), 2, 2)
        assert r1.union(empty) == r1
        assert empty.union(r1) == r1

    def test_oriented_forward_stays_on_arrays(self):
        src = np.array([[3, 3], [1, 1], [2, 2]], dtype=np.int64)
        dst = np.array([[1, 1], [1, 1], [4, 4]], dtype=np.int64)
        r = FiniteRelation.from_arrays(src, dst)
        fwd = r.oriented_forward()
        assert fwd._pairs is None  # array in, array out
        assert fwd.pairs == frozenset({((1, 1), (3, 3)), ((2, 2), (4, 4))})

    def test_distances_on_arrays(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        assert r.distances() == {(1, 2), (2, 1), (1, 1)}

    def test_rank_zero_arrays(self):
        src = np.zeros((3, 0), dtype=np.int64)
        dst = np.zeros((3, 0), dtype=np.int64)
        r = FiniteRelation.from_arrays(src, dst)
        assert r.pairs == frozenset({((), ())})
        assert (r.dim_in, r.dim_out) == (0, 0)

    def test_heterogeneous_dims(self):
        src = np.array([[1], [2]], dtype=np.int64)
        dst = np.array([[5, 6], [7, 8]], dtype=np.int64)
        r = FiniteRelation.from_arrays(src, dst)
        assert r._pairs is None
        assert r.pairs == frozenset({((1,), (5, 6)), ((2,), (7, 8))})
        assert r.inverse().pairs == frozenset({((5, 6), (1,)), ((7, 8), (2,))})


class TestConvexRelation:
    def make_fig2_relation(self):
        # { i -> j : 2i = 21 - j, 1 <= i,j <= 20 }
        cons = [
            Constraint.eq(var("i") * 2 + var("j"), 21),
            Constraint.ge("i", 1),
            Constraint.le("i", 20),
            Constraint.ge("j", 1),
            Constraint.le("j", 20),
        ]
        return ConvexRelation.from_constraints(["i"], ["j"], cons)

    def test_contains_pair(self):
        r = self.make_fig2_relation()
        assert r.contains_pair((6,), (9,))
        assert not r.contains_pair((6,), (10,))

    def test_domain_range_projection_cover(self):
        r = self.make_fig2_relation()
        dom = r.domain()
        # every i with an integer partner 21-2i in 1..20 must be in dom
        for i in range(1, 11):
            assert dom.contains((i,))

    def test_inverse(self):
        r = self.make_fig2_relation()
        assert r.inverse().contains_pair((9,), (6,))

    def test_intersect_domain_range(self):
        r = self.make_fig2_relation()
        restricted = r.intersect_domain(ConvexSet.from_box(["i"], [(1, 3)]))
        assert restricted.contains_pair((3,), (15,))
        assert not restricted.contains_pair((6,), (9,))
        restricted2 = r.intersect_range(ConvexSet.from_box(["j"], [(1, 10)]))
        assert restricted2.contains_pair((6,), (9,))
        assert not restricted2.contains_pair((3,), (15,))

    def test_is_empty(self):
        cons = [Constraint.eq(var("i"), var("j")), Constraint.ge("i", 5), Constraint.le("j", 3)]
        r = ConvexRelation.from_constraints(["i"], ["j"], cons)
        assert r.is_empty()


class TestUnionRelation:
    def make_union(self):
        piece1 = ConvexRelation.from_constraints(
            ["i"], ["j"], [Constraint.eq(var("j"), var("i") + 1), Constraint.ge("i", 1), Constraint.le("i", 4)]
        )
        piece2 = ConvexRelation.from_constraints(
            ["i"], ["j"], [Constraint.eq(var("j"), var("i") + 10), Constraint.ge("i", 1), Constraint.le("i", 2)]
        )
        return UnionRelation.from_pieces([piece1, piece2])

    def test_enumerate_pairs(self):
        fr = self.make_union().enumerate_pairs()
        assert ((1,), (2,)) in fr
        assert ((1,), (11,)) in fr
        assert len(fr) == 6

    def test_domain_range(self):
        u = self.make_union()
        dom = u.domain()
        assert dom.contains((1,)) and dom.contains((4,))
        ran = u.range()
        assert ran.contains((2,)) and ran.contains((12,))

    def test_inverse_and_contains(self):
        u = self.make_union()
        assert u.contains_pair((1,), (11,))
        assert u.inverse().contains_pair((11,), (1,))

    def test_empty_relation(self):
        e = UnionRelation.empty(["i"], ["j"])
        assert e.is_empty()
        assert len(e.enumerate_pairs()) == 0

    def test_mixed_spaces_rejected(self):
        a = ConvexRelation.from_constraints(["i"], ["j"], [])
        b = ConvexRelation.from_constraints(["x"], ["y"], [])
        with pytest.raises(ValueError):
            UnionRelation.from_pieces([a, b])

    def test_intersect_domain(self):
        u = self.make_union()
        restricted = u.intersect_domain(UnionSet.from_convex(ConvexSet.from_box(["i"], [(1, 1)])))
        fr = restricted.enumerate_pairs()
        assert set(fr.domain()) == {(1,)}
