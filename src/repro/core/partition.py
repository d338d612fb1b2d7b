"""Three-set partitioning of the iteration space (§3.1, eq. 5).

Given the iteration space Φ and the exact dependence relation Rd (oriented so
every pair maps the lexicographically earlier iteration to the later one), the
iterations split into

* **independent** iterations — neither predecessors nor successors,
* **initial** iterations    — dependent, but with no predecessor,
* **intermediate** iterations — with both predecessors and successors,
* **final** iterations      — dependent, but with no successor,

and the three executable sets of eq. 5 are

    P1 = Φ \\ ran Rd              (independent ∪ initial — fully parallel)
    P2 = ran Rd ∩ dom Rd          (intermediate)
    P3 = ran Rd \\ dom Rd         (final — fully parallel)

Dependences only go P1→P2, P2→P2, P2→P3 (never backwards), so the phases can
execute in that order with barriers between them; the intermediate set needs
further treatment (recurrence chains, §3.2, or dataflow partitioning, §3.4).

The partition is exact and feeds the executors and validators.  It runs on
row indices: given the space as sorted unique rows and Rd as ``(lo, hi)``
index pairs into them (:func:`three_set_partition_indexed`, what the planner
calls with the statement-level space's own indices), every set is a
``bincount`` mask, which keeps 10⁵–10⁶-point spaces tractable.  :func:`three_set_partition` is the
``(space, rd)`` adapter: it locates Rd's endpoints among the space rows by
:class:`~repro.isl.relations.PointCodec` key, drops the foreign ones and calls
the same core.  The result holds each set as sorted ``(n, dim)`` rows; point
sets of tuples exist only in the test oracle (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

import numpy as np

from ..isl.relations import (
    FiniteRelation,
    PointCodec,
    in_sorted,
    readonly_view,
    sorted_unique,
)

__all__ = [
    "ThreeSetPartition",
    "three_set_partition",
    "three_set_partition_indexed",
    "locate_edges",
]

Point = Tuple[int, ...]


class ThreeSetPartition:
    """The concrete three-set partition of an iteration space.

    Held as ``(n, dim)`` int64 row arrays, unique and lexicographically
    sorted per set (:meth:`space_array`, :meth:`p1_array`, ...): the order
    the schedule builders emit DOALL sets in.  ``rd``'s pairs are also kept
    as row indices into :meth:`space_array` (:meth:`edge_indices`).
    """

    _SETS = ("space", "p1", "p2", "p3", "w")

    def __init__(
        self,
        space: np.ndarray,
        rd: FiniteRelation,
        p1: np.ndarray,
        p2: np.ndarray,
        p3: np.ndarray,
        w: np.ndarray,
        edges: Tuple[np.ndarray, np.ndarray],
    ):
        self.rd = rd
        self._edges = tuple(readonly_view(np.asarray(e, dtype=np.int64)) for e in edges)
        # Read-only: the builders share slices of these arrays, so an
        # in-place edit through an alias must raise, not desync.
        self._rows: Dict[str, np.ndarray] = {
            name: readonly_view(np.asarray(rows, dtype=np.int64))
            for name, rows in zip(self._SETS, (space, p1, p2, p3, w))
        }

    def edge_indices(self) -> Tuple[np.ndarray, np.ndarray]:
        """``rd``'s pairs as ``(lo, hi)`` row indices into :meth:`space_array`."""
        return self._edges

    def space_array(self) -> np.ndarray:
        """Φ as lexicographically sorted ``(n, dim)`` rows."""
        return self._rows["space"]

    def p1_array(self) -> np.ndarray:
        """P1 (independent ∪ initial) as lexicographically sorted ``(n, dim)`` rows."""
        return self._rows["p1"]

    def p2_array(self) -> np.ndarray:
        """P2 (intermediate) as lexicographically sorted ``(n, dim)`` rows."""
        return self._rows["p2"]

    def p3_array(self) -> np.ndarray:
        """P3 (final) as lexicographically sorted ``(n, dim)`` rows."""
        return self._rows["p3"]

    def w_array(self) -> np.ndarray:
        """W (the WHILE-loop starts) as lexicographically sorted ``(n, dim)`` rows."""
        return self._rows["w"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThreeSetPartition):
            return NotImplemented
        # Canonical rows: equal arrays are equal sets.
        return self.rd == other.rd and all(
            np.array_equal(self._rows[name], other._rows[name]) for name in self._SETS
        )

    def __hash__(self) -> int:
        return hash((self.rd,) + tuple(self._rows[name].tobytes() for name in self._SETS))

    def __repr__(self) -> str:
        return "ThreeSetPartition(" + ", ".join(
            f"|{name}|={len(self._rows[name])}" for name in self._SETS
        ) + ")"

    def counts(self) -> Dict[str, int]:
        """Set sizes; P1 splits into the independent iterations (P1 \\ dom Rd:
        touched by no dependence, as P1 is outside ran Rd) and the initial
        ones (P1 ∩ dom Rd)."""
        lo, hi = self._edges
        n = len(self._rows["space"])
        in_dom = np.bincount(lo, minlength=n) > 0
        initial = int((in_dom & (np.bincount(hi, minlength=n) == 0)).sum())
        sizes = {name: len(self._rows[name]) for name in self._SETS}
        return {
            "space": sizes["space"],
            "P1": sizes["p1"],
            "P2": sizes["p2"],
            "P3": sizes["p3"],
            "W": sizes["w"],
            "independent": sizes["p1"] - initial,
            "initial": initial,
        }


def space_rows(space: Union[np.ndarray, Iterable[Point]], dim: int) -> np.ndarray:
    """An iteration space as ``(n, dim)`` int64 rows (``dim`` for empty input)."""
    if isinstance(space, np.ndarray):
        rows = np.asarray(space, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError("an array iteration space must be (n, dim)")
        return rows
    points = [tuple(p) for p in space]
    width = len(points[0]) if points else dim
    return np.array(points, dtype=np.int64).reshape(len(points), width)


def locate_edges(
    space: np.ndarray, rd: FiniteRelation
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, lo, hi, keep)``: a non-empty ``(n, dim)`` space as sorted
    unique rows, and the pairs of ``rd`` with both ends among them as row
    indices ``(lo, hi)``; ``keep`` masks those pairs in ``rd``.

    The shared front end of the ``(space, rd)`` adapters: endpoints are
    located by :class:`~repro.isl.relations.PointCodec` key.
    """
    src, dst = rd.as_arrays()
    codec = PointCodec.for_arrays(space, src, dst)
    keys = sorted_unique(codec.encode(space))
    src_keys = codec.encode(src)
    dst_keys = codec.encode(dst)
    keep = in_sorted(src_keys, keys) & in_sorted(dst_keys, keys)
    lo = np.searchsorted(keys, src_keys[keep])
    hi = np.searchsorted(keys, dst_keys[keep])
    return codec.decode(keys), lo, hi, keep


def three_set_partition(
    space: Union[np.ndarray, Iterable[Point]],
    rd: FiniteRelation,
) -> ThreeSetPartition:
    """Compute eq. 5 from the enumerated iteration space and the exact Rd.

    ``rd`` must already be oriented forward (earlier ≺ later); iterations of
    ``rd`` that are outside ``space`` are ignored (they cannot occur when the
    relation was computed from the same bounds).  ``space`` is an ``(n, dim)``
    int array or an iterable of point tuples.  An adapter: the endpoints are
    located among the space rows (:func:`locate_edges`) and
    :func:`three_set_partition_indexed` computes the sets.
    """
    space_arr = space_rows(space, rd.dim_in)
    if len(space_arr) == 0:
        empty = space_arr[:0]
        none = np.zeros(0, dtype=np.int64)
        return ThreeSetPartition(
            empty, FiniteRelation.empty(rd.dim_in, rd.dim_out),
            empty, empty, empty, empty, (none, none),
        )
    rows, lo, hi, keep = locate_edges(space_arr, rd)
    if not keep.all():
        src, dst = rd.as_arrays()
        rd = FiniteRelation(src[keep], dst[keep])  # a subset of canonical pairs
    return three_set_partition_indexed(rows, lo, hi, rd)


def three_set_partition_indexed(
    rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, rd: FiniteRelation
) -> ThreeSetPartition:
    """Eq. 5 on row indices: the index core of :func:`three_set_partition`.

    ``rows`` is the space as sorted unique ``(n, dim)`` rows and
    ``(lo, hi)`` indexes the pairs of the forward-oriented ``rd`` (earlier →
    later) into them, every pair inside the space.  Membership in ``dom Rd``
    and ``ran Rd`` is one ``bincount`` each; row order is lexicographic, so
    every set comes out as sorted rows.
    """
    n = len(rows)
    in_dom = np.bincount(lo, minlength=n) > 0
    in_ran = np.bincount(hi, minlength=n) > 0
    p1 = ~in_ran
    # W: the intermediate iterations that directly depend on an initial-set
    # iteration — the start points of the WHILE loops (§3.2).  Edge targets
    # are in ran by construction, so "dst ∈ P2" reduces to "dst ∈ dom".
    w = sorted_unique(hi[p1[lo] & in_dom[hi]])
    return ThreeSetPartition(
        space=rows,
        rd=rd,
        p1=rows[p1],
        p2=rows[in_ran & in_dom],
        p3=rows[in_ran & ~in_dom],
        w=rows[w],
        edges=(lo, hi),
    )
