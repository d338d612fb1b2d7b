"""Iterative dataflow partitioning (the second branch of Algorithm 1).

When the loop has multiple coupled reference pairs (so the intermediate set's
chains may bifurcate and are not disjoint) but the loop bounds are known at
compile time, the paper falls back to successive dataflow partitioning:

    do while (Φ is not empty)
        P1 = Φ \\ ran Rd          # iterations with no pending predecessor
        emit DOALL(P1)
        Φ  = Φ \\ P1
        Rd = Rd restricted to Φ
    end do

Each emitted set is a fully parallel *wavefront*; the number of iterations of
the outer while loop is the number of partitioning steps (238 for the paper's
Cholesky kernel at NMAT=250, M=4, N=40, NRHS=3) and equals the length of the
longest dependence chain — i.e. this is list scheduling by levels of the
dependence DAG, which achieves the maximum (dataflow) parallelism attainable
with barrier-only synchronization.

The implementation recognises the loop as Kahn level scheduling on row
indices (:func:`kahn_levels`): the relation's ``(lo, hi)`` index pairs
become a CSR adjacency with an in-degree array, and every wavefront is
peeled with a handful of numpy operations — one pass over the edges in
total, instead of the literal loop's O(steps · |Rd|) rebuilds of ``ran Rd``.
It returns the wavefronts as a row-index order: the planner's builders
(:func:`repro.core.statement.statement_dataflow_schedule` and the
``doacross`` baseline) run it on the statement-level space's own indices and
read each row's statement and iteration through that order, and
:func:`dataflow_partition` is the ``(space, rd)`` adapter that locates the
endpoints by codec key first.  A cyclic
(stalling) relation raises :class:`RuntimeError`.  The partition is its CSR
arrays alone; the wavefronts as point sets live only in the test oracle
(``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..isl.relations import FiniteRelation
from .partition import locate_edges, space_rows
from .schedule import Schedule, validate_csr

__all__ = [
    "DataflowPartition",
    "dataflow_partition",
    "dataflow_schedule",
    "kahn_levels",
]

Point = Tuple[int, ...]


class DataflowPartition:
    """The result of iterative dataflow partitioning: an ordered list of wavefronts.

    Held as CSR-style arrays (:meth:`level_arrays`) — ``point_rows`` holding
    every iteration point (``(total, dim)`` int64, level-major, lexicographic
    inside a level) and ``level_offsets`` the ``(levels + 1,)`` prefix sums.
    """

    __slots__ = ("rd", "_level_offsets", "_point_rows")

    def __init__(
        self, level_offsets: np.ndarray, point_rows: np.ndarray, rd: FiniteRelation
    ):
        self._level_offsets, self._point_rows = validate_csr(level_offsets, point_rows)
        self.rd = rd

    def level_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The partition as ``(level_offsets, point_rows)`` CSR arrays."""
        return self._level_offsets, self._point_rows

    @property
    def num_steps(self) -> int:
        """Number of partitioning steps (the paper reports 238 for Example 4)."""
        return len(self._level_offsets) - 1

    @property
    def total_points(self) -> int:
        return len(self._point_rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataflowPartition):
            return NotImplemented
        # Rows are lexicographic inside each level: equal arrays are equal
        # wavefronts.
        return (
            self.rd == other.rd
            and np.array_equal(self._level_offsets, other._level_offsets)
            and np.array_equal(self._point_rows, other._point_rows)
        )

    def __hash__(self) -> int:
        return hash((self.rd, self._level_offsets.tobytes(), self._point_rows.tobytes()))

    def __repr__(self) -> str:
        return (
            f"DataflowPartition(<{self.num_steps} wavefronts, "
            f"{self.total_points} points>)"
        )


def kahn_levels(
    n: int, lo: np.ndarray, hi: np.ndarray, max_steps: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Kahn level scheduling of ``n`` nodes: ``(level_offsets, order)``.

    ``(lo, hi)`` are the edges as node indices (duplicates allowed).
    ``order`` lists every node, level-major, ascending inside a level, and
    level ``k`` owns ``order[level_offsets[k]:level_offsets[k+1]]``: level
    0 holds the nodes with no in-edge, level ``k + 1`` the nodes whose last
    pending in-edge leaves level ``k``.

    The out-edges sit in one CSR array by source, so a level's out-edges
    are one gather, its targets one sort, and their release one
    ``subtract.at`` of the in-degrees; a target whose in-degree reaches zero
    is kept once, at its last occurrence.  One pass over the edges in all.
    More than ``max_steps`` levels, or a level with nothing left to release
    (a cycle), raises :class:`RuntimeError`.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    indegree = np.bincount(hi, minlength=n)
    out_degree = np.bincount(lo, minlength=n)
    stops = np.cumsum(out_degree)
    dst_by_src = hi[np.argsort(lo, kind="stable")]
    ramp = np.arange(len(lo), dtype=np.int64)

    levels: List[np.ndarray] = []
    frontier = np.flatnonzero(indegree == 0)
    released = 0
    while released < n:
        if max_steps is not None and len(levels) >= max_steps:
            raise RuntimeError(
                f"dataflow partitioning did not terminate within {max_steps} steps; "
                f"{n - released} iterations remain (is the dependence relation cyclic?)"
            )
        if frontier.size == 0:
            raise RuntimeError(
                "dataflow partitioning stalled: every remaining iteration has a "
                "pending predecessor (cyclic dependence relation)"
            )
        levels.append(frontier)
        released += frontier.size
        counts = out_degree[frontier]
        ends = counts.cumsum()
        total = int(ends[-1])
        # The frontier's out-edges, node by node: node k's block ends at
        # stops[k] in the CSR array and at ends[k] in the gather.
        targets = np.sort(
            dst_by_src[np.repeat(stops[frontier] - ends, counts) + ramp[:total]]
        )
        np.subtract.at(indegree, targets, 1)
        last = np.empty(total, dtype=bool)
        last[-1:] = True
        np.not_equal(targets[1:], targets[:-1], out=last[:-1])
        last &= indegree[targets] == 0
        frontier = targets[last]
    level_offsets = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=level_offsets[1:])
    order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
    return level_offsets, order


def dataflow_partition(
    space: Union[np.ndarray, Iterable[Point]],
    rd: FiniteRelation,
    max_steps: Optional[int] = None,
) -> DataflowPartition:
    """Run the while-loop of Algorithm 1's dataflow branch on concrete sets.

    ``rd`` must be oriented forward (earlier ≺ later); only pairs with both
    ends inside ``space`` constrain the partitioning.  ``max_steps`` guards
    against runaway loops in pathological inputs (a cycle in ``rd`` would
    otherwise never drain — cycles cannot arise from a legal sequential loop).
    ``space`` is an ``(n, dim)`` int array or an iterable of point tuples.
    An adapter: the endpoints are located among the space's sorted unique
    rows (:func:`~repro.core.partition.locate_edges`), :func:`kahn_levels`
    peels the wavefronts, and each wavefront's rows come out in
    lexicographic order.
    """
    space_arr = space_rows(space, rd.dim_in)
    if len(space_arr) == 0:
        return DataflowPartition(np.zeros(1, dtype=np.int64), space_arr, rd)
    rows, lo, hi, _ = locate_edges(space_arr, rd)
    level_offsets, order = kahn_levels(len(rows), lo, hi, max_steps)
    return DataflowPartition(level_offsets, rows[order], rd)


def dataflow_schedule(
    name: str,
    space: Union[np.ndarray, Iterable[Point]],
    rd: FiniteRelation,
    label: str = "s",
) -> Schedule:
    """Wrap a dataflow partition into a :class:`Schedule` (one phase per wavefront).

    Each point becomes the single instance ``(label, point)`` of a
    one-statement table, and the wavefronts become DOALL
    :class:`~repro.core.schedule.Phase` slices of the partition's CSR arrays
    (:meth:`Schedule.from_levels`) — no per-point unit objects.  Points that
    stand for statement instances (§3.3) are scheduled by
    :func:`repro.core.statement.statement_dataflow_schedule` instead.
    """
    partition = dataflow_partition(space, rd)
    level_offsets, point_rows = partition.level_arrays()
    return Schedule.from_levels(
        name,
        (label,),
        (point_rows.shape[1],),
        level_offsets,
        0,
        point_rows,
        scheme="dataflow",
        num_steps=partition.num_steps,
    )
