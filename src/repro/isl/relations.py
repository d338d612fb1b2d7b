"""Affine and finite relations between iteration vectors.

The dependence relation ``Rd`` of the paper maps iterations (or statement
instances) to the iterations that depend on them.  Two representations are
provided, mirroring the two ways the package reasons about dependences:

* :class:`ConvexRelation` / :class:`UnionRelation` — symbolic relations whose
  graph is a (union of) convex set(s) over ``in ++ out`` variables, supporting
  ``dom``, ``ran``, inverse, composition and domain/range restriction.  This is
  the Omega-library-like layer used to *derive* partitions, possibly with
  symbolic parameters.
* :class:`FiniteRelation` — an explicit set of integer pairs, produced by the
  exact dependence analyser for concrete loop bounds and used by the
  executors, the validators and the chain builder.  All partition-safety
  invariants are ultimately checked against this exact object.

The planner works on the **array form** of :class:`FiniteRelation`:
:meth:`FiniteRelation.as_arrays` holds the pairs as canonical ``(n, dim)``
int64 arrays, and :class:`PointCodec` maps each integer point to a scalar
int64 key whose order is lexicographic point order, so that
``dom``/``ran``/``restrict`` and membership become sorted-array operations
(``np.unique``, ``np.searchsorted``).  The codec encodes rows of any
magnitude (raw mixed-radix keys when the bounding box fits int64,
rank-compressed keys otherwise).

The frozenset of tuple pairs (:attr:`FiniteRelation.pairs`) is a lazy
*view* for validators and tests: a relation built with
:meth:`FiniteRelation.from_arrays` derives it only when first touched, and a
relation built from pairs derives its arrays on the first array access.
See ARCHITECTURE.md for the pipeline-wide picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .convex import Constraint, ConvexSet
from .fourier_motzkin import project_onto
from .lexorder import lex_lt
from .sets import UnionSet

__all__ = [
    "ConvexRelation",
    "UnionRelation",
    "FiniteRelation",
    "PointCodec",
    "in_sorted",
    "lexsort_rows",
    "readonly_view",
]

Point = Tuple[int, ...]
Pair = Tuple[Point, Point]

# ---------------------------------------------------------------------------
# lexicographic row encoding
# ---------------------------------------------------------------------------


def readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's own array keeps its flags).

    The lazily-dual containers (:class:`FiniteRelation`, the partitions, the
    array schedule phases) cache both an array and a derived tuple/frozenset
    view of the same data; storing the array behind a read-only view makes an
    accidental in-place edit — which would silently desync the cached views —
    raise immediately instead.
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
        lo = np.min([a.min(axis=0) for a in stacked], axis=0)
        hi = np.max([a.max(axis=0) for a in stacked], axis=0)
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
            return ((pts >= self.lo) & (pts <= hi)).all(axis=1)
        return self._ranked(pts)[1]

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Scalar int64 key of every row of an ``(n, dim)`` array."""
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be (n, {self.dim}) for this codec")
        if self.dim == 0:
            return np.zeros(len(pts), dtype=np.int64)
        if self.values is None:
            return (pts - self.lo) @ self.strides
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
# symbolic relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexRelation:
    """A relation whose graph is a single convex set over ``in_vars + out_vars``."""

    in_vars: Tuple[str, ...]
    out_vars: Tuple[str, ...]
    graph: ConvexSet

    @staticmethod
    def from_constraints(
        in_vars: Sequence[str],
        out_vars: Sequence[str],
        constraints: Iterable[Constraint],
        parameters: Sequence[str] = (),
    ) -> "ConvexRelation":
        graph = ConvexSet.from_constraints(
            tuple(in_vars) + tuple(out_vars), constraints, parameters
        )
        return ConvexRelation(tuple(in_vars), tuple(out_vars), graph)

    def domain(self) -> ConvexSet:
        """Projection of the graph onto the input variables."""
        return project_onto(self.graph, self.in_vars)

    def range(self) -> ConvexSet:
        """Projection of the graph onto the output variables."""
        return project_onto(self.graph, self.out_vars)

    def inverse(self) -> "ConvexRelation":
        return ConvexRelation(self.out_vars, self.in_vars, self.graph)

    def intersect_domain(self, cs: ConvexSet) -> "ConvexRelation":
        renamed = cs.rename_variables(dict(zip(cs.variables, self.in_vars)))
        graph = self.graph.with_constraints(renamed.constraints)
        return ConvexRelation(self.in_vars, self.out_vars, graph)

    def intersect_range(self, cs: ConvexSet) -> "ConvexRelation":
        renamed = cs.rename_variables(dict(zip(cs.variables, self.out_vars)))
        graph = self.graph.with_constraints(renamed.constraints)
        return ConvexRelation(self.in_vars, self.out_vars, graph)

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return self.graph.is_empty(params)

    def contains_pair(
        self, src: Sequence[int], dst: Sequence[int], params: Mapping[str, int] | None = None
    ) -> bool:
        # The graph's variable order is fixed at construction; map the (src,
        # dst) coordinates by variable *name* so inverse() keeps working.
        assignment = dict(zip(self.in_vars, src))
        assignment.update(dict(zip(self.out_vars, dst)))
        point = tuple(assignment[v] for v in self.graph.variables)
        return self.graph.contains(point, params)

    def __str__(self) -> str:
        return (
            f"{{ [{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}] : "
            f"{' and '.join(str(c) for c in self.graph.constraints) or 'true'} }}"
        )


@dataclass(frozen=True)
class UnionRelation:
    """A finite union of :class:`ConvexRelation` pieces over the same spaces."""

    in_vars: Tuple[str, ...]
    out_vars: Tuple[str, ...]
    pieces: Tuple[ConvexRelation, ...] = ()

    @staticmethod
    def empty(in_vars: Sequence[str], out_vars: Sequence[str]) -> "UnionRelation":
        return UnionRelation(tuple(in_vars), tuple(out_vars), ())

    @staticmethod
    def from_pieces(pieces: Sequence[ConvexRelation]) -> "UnionRelation":
        if not pieces:
            raise ValueError("use UnionRelation.empty for an empty relation")
        first = pieces[0]
        for p in pieces:
            if p.in_vars != first.in_vars or p.out_vars != first.out_vars:
                raise ValueError("all pieces must share the same in/out spaces")
        return UnionRelation(first.in_vars, first.out_vars, tuple(pieces))

    def union(self, other: "UnionRelation") -> "UnionRelation":
        if (self.in_vars, self.out_vars) != (other.in_vars, other.out_vars):
            raise ValueError("cannot union relations over different spaces")
        return UnionRelation(self.in_vars, self.out_vars, self.pieces + other.pieces)

    def add(self, piece: ConvexRelation) -> "UnionRelation":
        return UnionRelation(self.in_vars, self.out_vars, self.pieces + (piece,))

    def domain(self) -> UnionSet:
        members = [p.domain() for p in self.pieces]
        return UnionSet.from_members(self.in_vars, members)

    def range(self) -> UnionSet:
        members = [p.range() for p in self.pieces]
        return UnionSet.from_members(self.out_vars, members)

    def inverse(self) -> "UnionRelation":
        return UnionRelation(
            self.out_vars, self.in_vars, tuple(p.inverse() for p in self.pieces)
        )

    def intersect_domain(self, sets: UnionSet) -> "UnionRelation":
        pieces = []
        for p in self.pieces:
            for m in sets.members:
                pieces.append(p.intersect_domain(m))
        return UnionRelation(self.in_vars, self.out_vars, tuple(pieces))

    def intersect_range(self, sets: UnionSet) -> "UnionRelation":
        pieces = []
        for p in self.pieces:
            for m in sets.members:
                pieces.append(p.intersect_range(m))
        return UnionRelation(self.in_vars, self.out_vars, tuple(pieces))

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return all(p.is_empty(params) for p in self.pieces)

    def contains_pair(
        self, src: Sequence[int], dst: Sequence[int], params: Mapping[str, int] | None = None
    ) -> bool:
        return any(p.contains_pair(src, dst, params) for p in self.pieces)

    def enumerate_pairs(self, params: Mapping[str, int] | None = None) -> "FiniteRelation":
        """Materialise the relation as explicit pairs (bounded graphs only)."""
        pairs: Set[Pair] = set()
        for p in self.pieces:
            graph = p.graph if params is None else p.graph.bind_parameters(params)
            from .enumerate_points import enumerate_convex

            # Map graph coordinates to (in, out) by variable name so pieces
            # whose graph stores the variables in a different order (e.g.
            # inverted relations) still enumerate correctly.
            positions = {name: k for k, name in enumerate(graph.variables)}
            in_idx = [positions[name] for name in p.in_vars]
            out_idx = [positions[name] for name in p.out_vars]
            for point in enumerate_convex(graph):
                src = tuple(point[k] for k in in_idx)
                dst = tuple(point[k] for k in out_idx)
                pairs.add((src, dst))
        return FiniteRelation(
            frozenset(pairs), dim_in=len(self.in_vars), dim_out=len(self.out_vars)
        )

    def __str__(self) -> str:
        if not self.pieces:
            return f"{{ [{', '.join(self.in_vars)}] -> [{', '.join(self.out_vars)}] : false }}"
        return " ∪ ".join(str(p) for p in self.pieces)


# ---------------------------------------------------------------------------
# finite (explicit) relations
# ---------------------------------------------------------------------------

class FiniteRelation:
    """An explicit finite relation: a set of (source, target) integer tuples.

    The relation is immutable and has **two interchangeable representations**:

    * a pair of canonical ``(n, dim)`` int64 arrays (:meth:`as_arrays`) —
      lexicographically row-sorted and duplicate-free — which the planner
      works on,
    * a frozenset of ``(src_tuple, dst_tuple)`` pairs (:attr:`pairs`), the
      view the validators and the small per-pair queries read.

    Either representation is derived lazily from the other the first time it
    is asked for and then cached: relations built with :meth:`from_arrays`
    never box their points into Python tuples unless a consumer actually
    touches :attr:`pairs`, and pair-built relations only materialise arrays
    when :meth:`as_arrays` is called.  Equality, iteration order, hashing and
    every query are representation-independent.
    """

    __slots__ = ("_pairs", "_arrays", "dim_in", "dim_out")

    def __init__(
        self,
        pairs: Iterable[Pair] = frozenset(),
        dim_in: int = 0,
        dim_out: int = 0,
    ):
        self._pairs: Optional[FrozenSet[Pair]] = (
            pairs if isinstance(pairs, frozenset) else frozenset(pairs)
        )
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.dim_in = dim_in
        self.dim_out = dim_out

    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The pair set — materialised on first access for array-built relations."""
        if self._pairs is None:
            src, dst = self._arrays
            self._pairs = frozenset(
                zip(map(tuple, src.tolist()), map(tuple, dst.tolist()))
            )
        return self._pairs

    @staticmethod
    def from_pairs(pairs: Iterable[Pair]) -> "FiniteRelation":
        pair_set = frozenset((tuple(a), tuple(b)) for a, b in pairs)
        dim_in = dim_out = 0
        for a, b in pair_set:
            dim_in, dim_out = len(a), len(b)
            break
        return FiniteRelation(pair_set, dim_in, dim_out)

    @staticmethod
    def from_arrays(src: np.ndarray, dst: np.ndarray) -> "FiniteRelation":
        """Build a relation from parallel ``(n, dim_in)``/``(n, dim_out)`` arrays.

        The arrays are canonicalised (row-sorted by ``(src, dst)``,
        duplicates merged) on :class:`PointCodec` keys of the combined rows;
        the tuple-pair view stays unbuilt until a consumer asks for
        :attr:`pairs`.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 2 or dst.ndim != 2 or len(src) != len(dst):
            raise ValueError("src and dst must be 2-D arrays with equal length")
        dim_in, dim_out = src.shape[1], dst.shape[1]
        if len(src) == 0:
            return FiniteRelation(frozenset(), dim_in, dim_out)
        if dim_in + dim_out == 0:
            # Rank-0 on both sides: the only possible pair is () -> ().
            return FiniteRelation(frozenset({((), ())}), 0, 0)
        combined = np.concatenate([src, dst], axis=1)
        # Key order equals lexicographic row order, so one scalar-key
        # np.unique sorts the rows by (src, dst) and merges duplicates.
        _, first = np.unique(
            PointCodec.for_arrays(combined).encode(combined), return_index=True
        )
        combined = combined[first]
        return FiniteRelation._from_canonical_arrays(
            np.ascontiguousarray(combined[:, :dim_in]),
            np.ascontiguousarray(combined[:, dim_in:]),
        )

    @staticmethod
    def _from_canonical_arrays(src: np.ndarray, dst: np.ndarray) -> "FiniteRelation":
        """Wrap arrays already in canonical form (row-sorted, duplicate-free)."""
        rel = FiniteRelation.__new__(FiniteRelation)
        rel._pairs = None
        rel._arrays = (readonly_view(src), readonly_view(dst))
        rel.dim_in = src.shape[1]
        rel.dim_out = dst.shape[1]
        return rel

    # -- equality / hashing (representation-independent) ----------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRelation):
            return NotImplemented
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            return False
        if self._pairs is None and other._pairs is None:
            # Both array-backed: canonical form makes this a direct compare.
            a, b = self._arrays
            c, d = other._arrays
            return np.array_equal(a, c) and np.array_equal(b, d)
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.pairs, self.dim_in, self.dim_out))

    def __repr__(self) -> str:
        return (
            f"FiniteRelation(<{len(self)} pairs>, dim_in={self.dim_in}, "
            f"dim_out={self.dim_out})"
        )

    # -- array form ----------------------------------------------------------

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs as ``(src, dst)`` int64 arrays, sorted by (src, dst).

        The arrays are computed once and cached on the instance (the relation
        is immutable); they are what the planner's array engine reads.
        """
        if self._arrays is None:
            pairs = sorted(self.pairs)
            src = np.array([a for a, _ in pairs], dtype=np.int64).reshape(
                len(pairs), self.dim_in
            )
            dst = np.array([b for _, b in pairs], dtype=np.int64).reshape(
                len(pairs), self.dim_out
            )
            self._arrays = (readonly_view(src), readonly_view(dst))
        return self._arrays

    def codec(self, *extra: Optional[np.ndarray]) -> PointCodec:
        """A :class:`PointCodec` covering dom ∪ ran plus any extra point arrays.

        Requires ``dim_in == dim_out`` (dependence relations always satisfy
        this); raises :class:`ValueError` when there is no point at all.
        """
        if self.dim_in != self.dim_out:
            raise ValueError("codec requires a homogeneous relation (dim_in == dim_out)")
        src, dst = self.as_arrays()
        return PointCodec.for_arrays(src, dst, *extra)

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        if self._pairs is None:
            return len(self._arrays[0])
        return len(self._pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __contains__(self, pair: Pair) -> bool:
        return (tuple(pair[0]), tuple(pair[1])) in self.pairs

    def is_empty(self) -> bool:
        return len(self) == 0

    def domain(self) -> FrozenSet[Point]:
        return frozenset(a for a, _ in self.pairs)

    def range(self) -> FrozenSet[Point]:
        return frozenset(b for _, b in self.pairs)

    def points(self) -> FrozenSet[Point]:
        """All points touched by the relation (domain ∪ range)."""
        return self.domain() | self.range()

    # -- structure ------------------------------------------------------------

    def inverse(self) -> "FiniteRelation":
        return FiniteRelation(
            frozenset((b, a) for a, b in self.pairs), self.dim_out, self.dim_in
        )

    def union(self, other: "FiniteRelation") -> "FiniteRelation":
        """Concatenate both array forms and re-canonicalise (no tuple boxing)."""
        if self.is_empty() and other.is_empty():
            return FiniteRelation.from_pairs(frozenset())
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise ValueError("cannot union relations of different dimensions")
        s1, d1 = self.as_arrays()
        s2, d2 = other.as_arrays()
        return FiniteRelation.from_arrays(
            np.concatenate([s1, s2]), np.concatenate([d1, d2])
        )

    def restrict(self, domain: Optional[Set[Point]] = None, rng: Optional[Set[Point]] = None) -> "FiniteRelation":
        """Keep only pairs whose source is in ``domain`` and target in ``rng``."""
        kept = frozenset(
            (a, b)
            for a, b in self.pairs
            if (domain is None or a in domain) and (rng is None or b in rng)
        )
        return FiniteRelation(kept, self.dim_in, self.dim_out)

    def successors(self, point: Point) -> List[Point]:
        p = tuple(point)
        return sorted(b for a, b in self.pairs if a == p)

    def predecessors(self, point: Point) -> List[Point]:
        p = tuple(point)
        return sorted(a for a, b in self.pairs if b == p)

    def successor_map(self) -> Dict[Point, List[Point]]:
        out: Dict[Point, List[Point]] = {}
        for a, b in self.pairs:
            out.setdefault(a, []).append(b)
        for v in out.values():
            v.sort()
        return out

    def predecessor_map(self) -> Dict[Point, List[Point]]:
        out: Dict[Point, List[Point]] = {}
        for a, b in self.pairs:
            out.setdefault(b, []).append(a)
        for v in out.values():
            v.sort()
        return out

    def compose(self, other: "FiniteRelation") -> "FiniteRelation":
        """Relational composition: ``(a, c)`` when ``(a, b) ∈ self`` and ``(b, c) ∈ other``."""
        succ = other.successor_map()
        pairs = set()
        for a, b in self.pairs:
            for c in succ.get(b, ()):  # pragma: no branch
                pairs.add((a, c))
        return FiniteRelation(frozenset(pairs), self.dim_in, other.dim_out)

    def transitive_closure(self) -> "FiniteRelation":
        """The transitive closure ``R⁺`` (direct and indirect dependences)."""
        succ = self.successor_map()
        closure: Set[Pair] = set()
        for start in succ:
            # BFS from each source node.
            stack = list(succ.get(start, ()))
            visited: Set[Point] = set()
            while stack:
                node = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                closure.add((start, node))
                stack.extend(succ.get(node, ()))
        return FiniteRelation(frozenset(closure), self.dim_in, self.dim_out)

    # -- order-related views ----------------------------------------------------

    def lexicographically_forward(self) -> "FiniteRelation":
        """Keep only pairs with ``source ≺ target`` (the R_succ part of eq. 4)."""
        return FiniteRelation(
            frozenset((a, b) for a, b in self.pairs if lex_lt(a, b)),
            self.dim_in,
            self.dim_out,
        )

    def lexicographically_backward(self) -> "FiniteRelation":
        """Keep only pairs with ``target ≺ source`` (the R_pred part of eq. 4)."""
        return FiniteRelation(
            frozenset((a, b) for a, b in self.pairs if lex_lt(b, a)),
            self.dim_in,
            self.dim_out,
        )

    def oriented_forward(self) -> "FiniteRelation":
        """Re-orient every pair so the source lexicographically precedes the target.

        Self-pairs (``a == b``) are dropped: a dependence of an iteration on
        itself does not constrain the parallel schedule.  Key order equals
        lexicographic order, so the comparison and the swap are a handful of
        vectorised operations (and the result stays array-backed).  Requires
        a homogeneous relation (``dim_in == dim_out``).
        """
        if self.dim_in != self.dim_out:
            raise ValueError("oriented_forward requires dim_in == dim_out")
        if self.is_empty():
            return self
        src, dst = self.as_arrays()
        codec = PointCodec.for_arrays(src, dst)
        src_keys = codec.encode(src)
        dst_keys = codec.encode(dst)
        keep = src_keys != dst_keys
        swap = src_keys > dst_keys
        fwd_src = np.where(swap[:, None], dst, src)[keep]
        fwd_dst = np.where(swap[:, None], src, dst)[keep]
        return FiniteRelation.from_arrays(fwd_src, fwd_dst)

    def distances(self) -> Set[Point]:
        """The set of distance vectors ``target - source``."""
        if self._pairs is None and self.dim_in == self.dim_out and self.dim_in > 0:
            src, dst = self._arrays
            return set(map(tuple, np.unique(dst - src, axis=0).tolist()))
        return {tuple(y - x for x, y in zip(a, b)) for a, b in self.pairs}

    def __str__(self) -> str:
        items = ", ".join(f"{a}->{b}" for a, b in sorted(self.pairs))
        return f"{{ {items} }}"

