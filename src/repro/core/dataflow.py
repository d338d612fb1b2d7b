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
indices (:func:`dataflow_partition_indexed`): the relation's ``(lo, hi)``
index pairs become a CSR adjacency with an in-degree array, and every
wavefront is peeled with a handful of numpy operations — one pass over the
edges in total, instead of the literal loop's O(steps · |Rd|) rebuilds of
``ran Rd``.  The planner hands it the statement-level space's own indices;
:func:`dataflow_partition` is the ``(space, rd)`` adapter that locates the
endpoints by codec key first.  A cyclic
(stalling) relation raises :class:`RuntimeError`.  The partition is its CSR
arrays alone; the wavefronts as point sets live only in the test oracle
(``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..isl.relations import FiniteRelation, sorted_unique
from .partition import locate_edges, space_rows
from .schedule import Schedule, validate_csr

__all__ = [
    "DataflowPartition",
    "dataflow_partition",
    "dataflow_partition_indexed",
    "dataflow_schedule",
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
    An adapter: the endpoints are located among the space rows
    (:func:`~repro.core.partition.locate_edges`) and
    :func:`dataflow_partition_indexed` peels the wavefronts.
    """
    space_arr = space_rows(space, rd.dim_in)
    if len(space_arr) == 0:
        return DataflowPartition(np.zeros(1, dtype=np.int64), space_arr, rd)
    rows, lo, hi, _ = locate_edges(space_arr, rd)
    return dataflow_partition_indexed(rows, lo, hi, rd, max_steps)


def dataflow_partition_indexed(
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rd: FiniteRelation,
    max_steps: Optional[int] = None,
) -> DataflowPartition:
    """The index core of :func:`dataflow_partition`: Kahn level scheduling.

    ``rows`` is the space as sorted unique ``(n, dim)`` rows and
    ``(lo, hi)`` the dependences as row indices into them (earlier →
    later, duplicates allowed); ``rd`` is the relation the partition
    reports.  One pass over the edges; each wavefront's indices ascend, so
    its rows come out in lexicographic order.
    """
    n = len(rows)
    indegree = np.bincount(hi, minlength=n)
    # CSR adjacency: out-edges grouped by source index.
    order = np.argsort(lo, kind="stable")
    dst_by_src = hi[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n), out=offsets[1:])

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
        released += int(frontier.size)
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            frontier = frontier[:0]
            continue
        # Gather all out-edges of the frontier in one shot, then release
        # each distinct target by its number of edges: the work per level
        # is proportional to the frontier's out-edges, not to n.
        gather = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
        targets = np.sort(dst_by_src[gather])
        fresh = np.ones(total, dtype=bool)
        np.not_equal(targets[1:], targets[:-1], out=fresh[1:])
        distinct = targets[fresh]
        indegree[distinct] -= np.diff(np.append(np.flatnonzero(fresh), total))
        frontier = distinct[indegree[distinct] == 0]
    level_offsets = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=level_offsets[1:])
    point_rows = rows[np.concatenate(levels)] if levels else rows[:0]
    return DataflowPartition(level_offsets, point_rows, rd)


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
