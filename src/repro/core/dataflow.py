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

The implementation recognises the loop as Kahn level scheduling: points
become compact indices via lexicographic key encoding, the relation becomes a
CSR adjacency with an in-degree array, and every wavefront is peeled with a
handful of numpy operations — one pass over the edges in total, instead of
the literal loop's O(steps · |Rd|) rebuilds of ``ran Rd``.  A cyclic
(stalling) relation raises :class:`RuntimeError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..isl.relations import FiniteRelation, PointCodec, in_sorted
from .partition import space_rows
from .schedule import Schedule, validate_csr

__all__ = ["DataflowPartition", "dataflow_partition", "dataflow_schedule"]

Point = Tuple[int, ...]


class DataflowPartition:
    """The result of iterative dataflow partitioning: an ordered list of wavefronts.

    Held as CSR-style arrays — ``point_rows`` holding every iteration point
    (``(total, dim)`` int64, level-major, lexicographic inside a level) and
    ``level_offsets`` the ``(levels + 1,)`` prefix sums.  :attr:`wavefronts`
    derives the frozenset view lazily, only when a validator or a test asks;
    :meth:`level_arrays` gives the executors and schedule builders the arrays.
    """

    __slots__ = ("rd", "_wavefronts", "_level_offsets", "_point_rows")

    def __init__(
        self, level_offsets: np.ndarray, point_rows: np.ndarray, rd: FiniteRelation
    ):
        self._level_offsets, self._point_rows = validate_csr(level_offsets, point_rows)
        self._wavefronts: Optional[Tuple[FrozenSet[Point], ...]] = None
        self.rd = rd

    @property
    def wavefronts(self) -> Tuple[FrozenSet[Point], ...]:
        """The wavefronts as frozensets, derived on first access."""
        if self._wavefronts is None:
            offsets, rows = self._level_offsets, self._point_rows
            self._wavefronts = tuple(
                frozenset(
                    map(tuple, rows[int(offsets[k]) : int(offsets[k + 1])].tolist())
                )
                for k in range(len(offsets) - 1)
            )
        return self._wavefronts

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

    def level_sizes(self) -> List[int]:
        """Points per wavefront."""
        return np.diff(self._level_offsets).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataflowPartition):
            return NotImplemented
        if self.rd != other.rd:
            return False
        if np.array_equal(self._level_offsets, other._level_offsets) and np.array_equal(
            self._point_rows, other._point_rows
        ):
            return True
        # The same sets may sit in another row order inside a level.
        return self.wavefronts == other.wavefronts

    def __hash__(self) -> int:
        return hash((self.wavefronts, self.rd))

    def __repr__(self) -> str:
        return (
            f"DataflowPartition(<{self.num_steps} wavefronts, "
            f"{self.total_points} points>)"
        )

    def level_of(self) -> Dict[Point, int]:
        out: Dict[Point, int] = {}
        for level, wave in enumerate(self.wavefronts):
            for p in wave:
                out[p] = level
        return out

    def is_complete(self, space: Iterable[Point]) -> bool:
        """Every iteration appears in exactly one wavefront."""
        if isinstance(space, np.ndarray):
            space = map(tuple, space.tolist())
        seen: Set[Point] = set()
        for wave in self.wavefronts:
            for p in wave:
                if p in seen:
                    return False
                seen.add(p)
        return seen == set(tuple(p) for p in space)

    def respects_dependences(self) -> bool:
        """Every dependence goes from an earlier wavefront to a strictly later one."""
        level = self.level_of()
        for src, dst in self.rd.pairs:
            if src not in level or dst not in level:
                return False
            if level[src] >= level[dst]:
                return False
        return True


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
    ``space`` is an ``(n, dim)`` int array or an iterable of point tuples; the
    peel is Kahn level scheduling over compact indices, one pass over the
    edges.
    """
    space_arr = space_rows(space, rd.dim_in)
    if len(space_arr) == 0:
        return DataflowPartition(np.zeros(1, dtype=np.int64), space_arr, rd)
    codec = PointCodec.for_arrays(space_arr, *rd.as_arrays())
    phi_keys = np.unique(codec.encode(space_arr))
    n = len(phi_keys)
    src, dst = rd.as_arrays()
    if len(src):
        src_keys = codec.encode(src)
        dst_keys = codec.encode(dst)
        keep = in_sorted(src_keys, phi_keys) & in_sorted(dst_keys, phi_keys)
        src_keys, dst_keys = src_keys[keep], dst_keys[keep]
    else:
        src_keys = dst_keys = np.zeros(0, dtype=np.int64)
    src_idx = np.searchsorted(phi_keys, src_keys)
    dst_idx = np.searchsorted(phi_keys, dst_keys)
    indegree = np.bincount(dst_idx, minlength=n)
    # CSR adjacency: out-edges grouped by source index.
    order = np.argsort(src_idx, kind="stable")
    dst_by_src = dst_idx[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_idx, minlength=n), out=offsets[1:])

    # Wavefronts accumulate as per-level key arrays (ascending keys == lex
    # order); the points are decoded once at the end into the CSR row array —
    # no per-point tuple or frozenset is ever built on this path.
    level_keys: List[np.ndarray] = []
    frontier = np.flatnonzero(indegree == 0)
    released = 0
    steps = 0
    while released < n:
        if max_steps is not None and steps >= max_steps:
            raise RuntimeError(
                f"dataflow partitioning did not terminate within {max_steps} steps; "
                f"{n - released} iterations remain (is the dependence relation cyclic?)"
            )
        if frontier.size == 0:
            raise RuntimeError(
                "dataflow partitioning stalled: every remaining iteration has a "
                "pending predecessor (cyclic dependence relation)"
            )
        level_keys.append(phi_keys[frontier])
        released += int(frontier.size)
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total:
            # Gather all out-edges of the frontier in one shot.
            gather = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            ) + np.arange(total)
            targets = dst_by_src[gather]
            indegree -= np.bincount(targets, minlength=n)
            frontier = np.unique(targets[indegree[targets] == 0])
        else:
            frontier = np.zeros(0, dtype=np.int64)
        steps += 1
    sizes = np.asarray([len(k) for k in level_keys], dtype=np.int64)
    level_offsets = np.zeros(len(level_keys) + 1, dtype=np.int64)
    np.cumsum(sizes, out=level_offsets[1:])
    all_keys = (
        np.concatenate(level_keys) if level_keys else np.zeros(0, dtype=np.int64)
    )
    point_rows = codec.decode(all_keys)
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
