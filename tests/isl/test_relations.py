"""Tests for repro.isl.relations: finite relations and the point codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.isl.relations import FiniteRelation, PointCodec, in_sorted, lexsort_rows


def rel(pairs):
    return oracle.relation(pairs)


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
    def test_len_and_pairs(self):
        r = rel([((1,), (2,)), ((1,), (3,)), ((4,), (5,)), ((1,), (2,))])
        assert len(r) == 3
        assert not r.is_empty()
        assert oracle.pairs(r) == {((1,), (2,)), ((1,), (3,)), ((4,), (5,))}

    def test_empty(self):
        r = FiniteRelation.empty(2, 3)
        assert r.is_empty() and len(r) == 0
        assert (r.dim_in, r.dim_out) == (2, 3)
        assert r == FiniteRelation.from_arrays(
            np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
        )

    def test_distances(self):
        r = rel([((1, 1), (3, 3)), ((2, 2), (6, 6))])
        assert r.distances() == {(2, 2), (4, 4)}

    def test_str_lists_pairs_in_order(self):
        r = rel([((4,), (5,)), ((1,), (2,))])
        assert str(r) == "{ (1,)->(2,), (4,)->(5,) }"


class TestPointCodec:
    @pytest.mark.parametrize("n", [1, 5, 3000])
    def test_column_passes_match_the_whole_array_forms(self, n):
        """The raw codec's bounds, box test and keys run column by column;
        they give the answers of numpy's whole-array forms."""
        rng = np.random.default_rng(n)
        points = rng.integers(-50, 50, size=(n, 3))
        codec = PointCodec.for_arrays(points[: n // 2], points[n // 2 :])
        assert np.array_equal(codec.lo, points.min(axis=0))
        assert np.array_equal(codec.lo + codec.extents - 1, points.max(axis=0))
        probe = points + rng.integers(-3, 4, size=points.shape)
        hi = codec.lo + codec.extents - 1
        assert np.array_equal(
            codec.contains(probe), ((probe >= codec.lo) & (probe <= hi)).all(axis=1)
        )
        assert np.array_equal(codec.encode(points), (points - codec.lo) @ codec.strides)

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
        # stored: the same objects come back
        assert r.as_arrays()[0] is src

    def test_arrays_are_read_only(self):
        src, _ = self.make().as_arrays()
        with pytest.raises(ValueError):
            src[0, 0] = 9

    def test_as_arrays_empty(self):
        r = FiniteRelation.empty(2, 2)
        src, dst = r.as_arrays()
        assert src.shape == (0, 2) and dst.shape == (0, 2)


class TestCanonicalRelation:
    """from_arrays canonicalises: sorted by (src, dst), duplicates merged."""

    def arrays(self):
        src = np.array([[1, 1], [2, 3], [1, 2], [5, 0], [1, 1]], dtype=np.int64)
        dst = np.array([[2, 3], [4, 4], [2, 3], [6, 1], [2, 3]], dtype=np.int64)
        return src, dst  # contains one duplicate pair

    def test_duplicates_merged(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        assert len(r) == 4
        assert ((1, 1), (2, 3)) in oracle.pairs(r)

    def test_equal_whatever_the_input_order(self):
        src, dst = self.arrays()
        a = FiniteRelation.from_arrays(src, dst)
        b = FiniteRelation.from_arrays(src[::-1], dst[::-1])
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert a == oracle.relation(zip(map(tuple, src.tolist()), map(tuple, dst.tolist())))
        assert a != FiniteRelation.from_arrays(src[:2], dst[:2])
        assert a != FiniteRelation.empty(2, 2)
        assert len({a, b}) == 1

    def test_canonical_array_order_matches_sorted_pairs(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        src, dst = r.as_arrays()
        expected = sorted(oracle.pairs(r))
        assert [tuple(p) for p in src.tolist()] == [a for a, _ in expected]
        assert [tuple(p) for p in dst.tolist()] == [b for _, b in expected]

    def test_distances_on_arrays(self):
        r = FiniteRelation.from_arrays(*self.arrays())
        assert r.distances() == {(1, 2), (2, 1), (1, 1)}

    def test_rank_zero_arrays(self):
        src = np.zeros((3, 0), dtype=np.int64)
        dst = np.zeros((3, 0), dtype=np.int64)
        r = FiniteRelation.from_arrays(src, dst)
        assert oracle.pairs(r) == frozenset({((), ())})
        assert (r.dim_in, r.dim_out) == (0, 0)

    def test_heterogeneous_dims(self):
        src = np.array([[1], [2]], dtype=np.int64)
        dst = np.array([[5, 6], [7, 8]], dtype=np.int64)
        r = FiniteRelation.from_arrays(src, dst)
        assert oracle.pairs(r) == frozenset({((1,), (5, 6)), ((2,), (7, 8))})
