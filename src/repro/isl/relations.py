"""Finite relations between iteration vectors.

The dependence relation ``Rd`` of the paper maps iterations (or statement
instances) to the iterations that depend on them.  :class:`FiniteRelation`
holds it as an explicit set of integer pairs, produced by the exact
dependence analyser for concrete loop bounds and used by the executors, the
validators and the chain builder.  All partition-safety invariants are
checked against this exact object.

:class:`FiniteRelation` has one representation: the pairs as canonical
``(n, dim)`` int64 arrays (:meth:`FiniteRelation.as_arrays`).
:class:`PointCodec` maps each integer point to a scalar int64 key whose order
is lexicographic point order, so that domain, range and membership queries
become sorted-array operations (:func:`sorted_unique`, ``np.searchsorted``).  The
codec encodes rows of any magnitude (raw mixed-radix keys when the bounding
box fits int64, rank-compressed keys otherwise).  Tuple pair sets exist only
in the brute-force test oracle (``tests/oracle.py``).  See ARCHITECTURE.md
for the pipeline-wide picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np


__all__ = [
    "FiniteRelation",
    "PointCodec",
    "in_sorted",
    "lexsort_rows",
    "readonly_view",
    "sorted_unique",
    "unique_index_pairs",
    "unique_rows",
]

Point = Tuple[int, ...]

# ---------------------------------------------------------------------------
# lexicographic row encoding
# ---------------------------------------------------------------------------


def readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's own array keeps its flags).

    The array containers (:class:`FiniteRelation`, the partitions, the
    schedule phases) share slices of their arrays and derive cached keys and
    sets from them; storing each array behind a read-only view makes an
    accidental in-place edit through an alias raise instead of desyncing
    them.
    """
    view = arr.view()
    view.setflags(write=False)
    return view


def lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """Permutation putting the rows of an ``(n, dim)`` array in lexicographic order.

    A plain ``np.lexsort`` over the columns (last key = first column), with
    no codec to build.  Rank-0 rows are already "sorted".
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be an (n, dim) array")
    if rows.shape[1] == 0:
        return np.arange(len(rows), dtype=np.int64)
    return np.lexsort(rows.T[::-1])


def in_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``keys`` in an ascending-sorted key array.

    ``sorted_keys`` must be sorted (duplicates allowed); returns a boolean mask
    parallel to ``keys``.  This is the searchsorted-based membership primitive
    of the array path (O(n log m) instead of per-element hashing).
    """
    keys = np.asarray(keys, dtype=np.int64)
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys).clip(max=sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def sorted_unique(keys: np.ndarray, return_inverse: bool = False):
    """The distinct values of a 1-D int64 array, ascending.

    A sort and a neighbour mask: the same result as ``np.unique``, whose
    hash-based path in numpy 2 costs many times a sort on large key
    arrays.  With ``return_inverse`` the index into the result of every
    input value comes back as well.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if not return_inverse:
        ordered = np.sort(keys)
        fresh = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        return ordered[fresh]
    order = np.argsort(keys)
    ordered = keys[order]
    fresh = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


def unique_rows(rows: np.ndarray, return_inverse: bool = False):
    """The distinct rows of an ``(n, dim)`` int64 array in lexicographic order.

    Numpy's row-wise unique, computed as one :func:`sorted_unique` of
    :class:`PointCodec` keys (key order is lexicographic row order).  With
    ``return_inverse`` the index into the result of every input row comes
    back as well.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return (rows, np.zeros(0, dtype=np.int64)) if return_inverse else rows
    codec = PointCodec.for_arrays(rows)
    keys, inverse = sorted_unique(codec.encode(rows), return_inverse=True)
    distinct = codec.decode(keys)
    return (distinct, inverse) if return_inverse else distinct


def unique_index_pairs(
    src: np.ndarray, dst: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct pairs of row indices ``(src, dst)`` into ``n`` rows,
    ascending by ``(src, dst)``: one :func:`sorted_unique` of
    ``src * n + dst`` (``n**2 < 2**63`` for any row set that fits in
    memory)."""
    if not len(src):
        return src, dst
    packed = sorted_unique(src * n + dst)
    return packed // n, packed % n


def _column_bounds(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column minimum and maximum of non-empty ``(n, dim)`` rows.

    :class:`PointCodec` works on narrow rows column by column: numpy's
    whole-array forms (axis-0 min/max, row-wise ``all``, the key matmul)
    step through ``(n, dim)`` rows one row at a time and cost up to 20× the
    passes per column at 10⁴–10⁵ rows (numpy 2.4, 2–7 columns).
    """
    columns = [rows[:, d] for d in range(rows.shape[1])]
    return (
        np.array([c.min() for c in columns], dtype=np.int64),
        np.array([c.max() for c in columns], dtype=np.int64),
    )


@dataclass(frozen=True, eq=False)
class PointCodec:
    """Lexicographic encoding of integer points into scalar int64 keys.

    The codec is built over the rows it must encode (:meth:`for_arrays`) and
    maps each of them to a key such that **key order equals lexicographic
    point order** and distinct points get distinct keys.  Two layouts share
    that contract:

    * the **raw box** — ``sum((x_d - lo_d) * stride_d)`` with mixed-radix
      strides over the bounding box, used whenever the box has fewer than
      2**63 cells (every realistic iteration space);
    * the **rank-compressed** layout for wider boxes — each coordinate is
      replaced by its rank among the distinct values of its column
      (``values[d]``), so a column's radix is its count of distinct values;
      when even the product of those radices would overflow, the partial key
      of the leading columns is re-ranked among its own distinct values
      (``prefixes[d]``) before column ``d`` is appended.

    :meth:`contains` tells which rows the codec encodes exactly: points in the
    raw box or, when rank-compressed, points whose every coordinate (and every
    re-ranked prefix) occurs in the rows the codec was built from.  Any other
    row aliases arbitrarily, so callers mask foreign points with
    :meth:`contains` before encoding them.
    """

    lo: np.ndarray
    extents: np.ndarray
    strides: np.ndarray
    #: rank-compressed layout only: the sorted distinct values of each column
    values: Optional[Tuple[np.ndarray, ...]] = None
    #: rank-compressed layout only: per column, the sorted distinct partial
    #: keys re-ranked before that column is appended (``None``: no re-rank)
    prefixes: Optional[Tuple[Optional[np.ndarray], ...]] = None

    @staticmethod
    def for_arrays(*arrays: Optional[np.ndarray]) -> "PointCodec":
        """A codec covering every row of every given ``(n, dim)`` array.

        Raises :class:`ValueError` when no non-empty array is given or when
        the dimensions disagree; rows of any int64 magnitude are encodable.
        """
        stacked = [
            np.asarray(a, dtype=np.int64)
            for a in arrays
            if a is not None and len(a)
        ]
        if not stacked:
            raise ValueError("cannot build a PointCodec from empty arrays")
        dim = stacked[0].shape[1]
        for a in stacked:
            if a.ndim != 2 or a.shape[1] != dim:
                raise ValueError("all arrays must be (n, dim) with a common dim")
        if dim == 0:
            zero = np.zeros(0, dtype=np.int64)
            return PointCodec(zero, zero.copy(), zero.copy())
        bounds = [_column_bounds(a) for a in stacked]
        lo = np.min([low for low, _ in bounds], axis=0)
        hi = np.max([high for _, high in bounds], axis=0)
        cells = 1
        for low, high in zip(lo.tolist(), hi.tolist()):  # python ints: no overflow
            cells *= high - low + 1
        if cells >= 2**63:
            return PointCodec._rank_compressed(np.concatenate(stacked))
        extents = (hi - lo + 1).astype(np.int64)
        strides = np.ones(dim, dtype=np.int64)
        for d in range(dim - 2, -1, -1):
            strides[d] = strides[d + 1] * extents[d + 1]
        return PointCodec(lo, extents, strides)

    @staticmethod
    def _rank_compressed(rows: np.ndarray) -> "PointCodec":
        """The layout for boxes too wide for raw mixed-radix keys."""
        dim = rows.shape[1]
        values: List[np.ndarray] = []
        prefixes: List[Optional[np.ndarray]] = []
        radices = np.zeros(dim, dtype=np.int64)
        key = np.zeros(len(rows), dtype=np.int64)
        bound = 1  # every partial key lies in [0, bound)
        for d in range(dim):
            column, digits = np.unique(rows[:, d], return_inverse=True)
            table = None
            if bound * len(column) >= 2**63:
                table, key = np.unique(key, return_inverse=True)
                key = key.reshape(-1)
                bound = len(table)
            key = key * len(column) + digits.reshape(-1)
            bound *= len(column)
            values.append(column)
            prefixes.append(table)
            radices[d] = len(column)
        zero = np.zeros(dim, dtype=np.int64)
        return PointCodec(zero, radices, zero.copy(), tuple(values), tuple(prefixes))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def _ranked(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rank-compressed keys of ``pts`` and the mask of rows they are exact for."""
        exact = np.ones(len(pts), dtype=bool)
        key = np.zeros(len(pts), dtype=np.int64)
        for d in range(self.dim):
            table = self.prefixes[d]
            if table is not None:
                pos = np.searchsorted(table, key)
                exact &= table[pos.clip(max=len(table) - 1)] == key
                key = pos
            column = self.values[d]
            digits = np.searchsorted(column, pts[:, d])
            exact &= column[digits.clip(max=len(column) - 1)] == pts[:, d]
            key = key * self.extents[d] + digits
        return key, exact

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows this codec encodes exactly."""
        pts = np.asarray(points, dtype=np.int64)
        if self.dim == 0:
            return np.ones(len(pts), dtype=bool)
        if self.values is None:
            hi = self.lo + (self.extents - 1)  # no overflow: hi is a real row value
            inside = np.ones(len(pts), dtype=bool)
            for d, (low, high) in enumerate(zip(self.lo.tolist(), hi.tolist())):
                column = pts[:, d]
                inside &= (column >= low) & (column <= high)
            return inside
        return self._ranked(pts)[1]

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Scalar int64 key of every row of an ``(n, dim)`` array."""
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be (n, {self.dim}) for this codec")
        if self.dim == 0:
            return np.zeros(len(pts), dtype=np.int64)
        if self.values is None:
            key = np.zeros(len(pts), dtype=np.int64)
            for d, (low, stride) in enumerate(zip(self.lo.tolist(), self.strides.tolist())):
                key += (pts[:, d] - low) * stride
            return key
        return self._ranked(pts)[0]

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`: the ``(n, dim)`` points of exact keys."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.empty((len(keys), self.dim), dtype=np.int64)
        if self.values is None:
            rem = keys
            for d in range(self.dim):
                digit = rem // self.strides[d]
                rem = rem - digit * self.strides[d]
                out[:, d] = digit + self.lo[d]
            return out
        rem = keys
        for d in range(self.dim - 1, -1, -1):
            rem, digit = np.divmod(rem, self.extents[d])
            out[:, d] = self.values[d][digit]
            if self.prefixes[d] is not None:
                rem = self.prefixes[d][rem]
        return out


# ---------------------------------------------------------------------------
# finite (explicit) relations
# ---------------------------------------------------------------------------

class FiniteRelation:
    """An explicit finite relation: a set of (source, target) integer points.

    Held as one pair of canonical ``(n, dim_in)`` / ``(n, dim_out)`` int64
    arrays (:meth:`as_arrays`), row-sorted by ``(src, dst)`` and
    duplicate-free, so equality and hashing compare arrays directly.  Build
    one with :meth:`from_arrays` (which canonicalises) or :meth:`empty`; the
    constructor wraps arrays that are canonical already.  The relation is
    immutable: the arrays are stored read-only.
    """

    __slots__ = ("_src", "_dst", "dim_in", "dim_out")

    def __init__(self, src: np.ndarray, dst: np.ndarray):
        self._src = readonly_view(src)
        self._dst = readonly_view(dst)
        self.dim_in = src.shape[1]
        self.dim_out = dst.shape[1]

    @staticmethod
    def empty(dim_in: int, dim_out: int) -> "FiniteRelation":
        """The relation with no pair between ``dim_in``- and ``dim_out``-points."""
        return FiniteRelation(
            np.zeros((0, dim_in), dtype=np.int64), np.zeros((0, dim_out), dtype=np.int64)
        )

    @staticmethod
    def from_arrays(src: np.ndarray, dst: np.ndarray) -> "FiniteRelation":
        """Build a relation from parallel ``(n, dim_in)``/``(n, dim_out)`` arrays.

        The arrays are canonicalised (row-sorted by ``(src, dst)``,
        duplicates merged) on :class:`PointCodec` keys of the combined rows.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 2 or dst.ndim != 2 or len(src) != len(dst):
            raise ValueError("src and dst must be 2-D arrays with equal length")
        dim_in, dim_out = src.shape[1], dst.shape[1]
        if len(src) == 0:
            return FiniteRelation.empty(dim_in, dim_out)
        if dim_in + dim_out == 0:
            # Rank-0 on both sides: the only possible pair is () -> ().
            return FiniteRelation(src[:1], dst[:1])
        combined = np.concatenate([src, dst], axis=1)
        # Key order equals lexicographic row order, so one scalar-key
        # unique sorts the rows by (src, dst) and merges duplicates.
        combined = unique_rows(combined)
        return FiniteRelation(
            np.ascontiguousarray(combined[:, :dim_in]),
            np.ascontiguousarray(combined[:, dim_in:]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRelation):
            return NotImplemented
        # Canonical arrays: equal arrays are equal relations.
        return (
            self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
        )

    def __hash__(self) -> int:
        return hash((self.dim_in, self.dim_out, self._src.tobytes(), self._dst.tobytes()))

    def __repr__(self) -> str:
        return (
            f"FiniteRelation(<{len(self)} pairs>, dim_in={self.dim_in}, "
            f"dim_out={self.dim_out})"
        )

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs as read-only ``(src, dst)`` int64 arrays, sorted by (src, dst)."""
        return self._src, self._dst

    def __len__(self) -> int:
        return len(self._src)

    def is_empty(self) -> bool:
        return len(self) == 0

    # -- order-related views ----------------------------------------------------

    def distances(self) -> Set[Point]:
        """The set of distance vectors ``target - source`` (``dim_in == dim_out``)."""
        if self.dim_in != self.dim_out:
            raise ValueError("distances requires dim_in == dim_out")
        return set(map(tuple, unique_rows(self._dst - self._src).tolist()))

    def __str__(self) -> str:
        items = ", ".join(
            f"{tuple(a)}->{tuple(b)}" for a, b in zip(self._src.tolist(), self._dst.tolist())
        )
        return f"{{ {items} }}"
