"""Parallel schedules: the common output format of every partitioning scheme.

All partitioners in this package (recurrence chains, dataflow, PDM, unique
sets, DOACROSS, tiling, ...) ultimately answer the same question: *in what
order, and with what synchronization, may the statement instances execute?*
Their answer is a :class:`Schedule` — an ordered sequence of
:class:`ParallelPhase` objects separated by barriers, where each phase holds
independent :class:`ExecutionUnit` s that may run concurrently, and each unit
is a sequence of statement instances that must run in the given order
(e.g. one monotonic recurrence chain executed by a WHILE loop).

This representation captures exactly what the paper's generated code captures:
``DOALL`` nests become phases whose units are single instances, the WHILE-loop
chains become multi-instance units inside the intermediate phase, and barrier
synchronization exists only *between* phases (``c$omp end do nowait`` inside a
phase, barriers at the P1/P2 and P2/P3 borders).

The runtime package consumes schedules to (a) validate them against the
dependence relation and the sequential semantics and (b) estimate/measure
speedups under a processor-count and overhead model.

Large DOALL phases additionally have an **array-backed form**:
:class:`ArrayPhase` holds its single-iteration units as one ``(n, dim)``
int64 array of iteration points instead of ``n`` :class:`ExecutionUnit`
objects, and :meth:`Schedule.from_arrays` builds a whole wavefront schedule
from CSR-style ``(level_offsets, point_rows)`` arrays.  The tuple view
(:attr:`ArrayPhase.units`) is derived lazily, so validators and the cost
simulator work unchanged while the executors iterate the rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..isl.relations import FiniteRelation, readonly_view

__all__ = [
    "Instance",
    "ExecutionUnit",
    "ParallelPhase",
    "ArrayPhase",
    "UnifiedArrayPhase",
    "Schedule",
]

Point = Tuple[int, ...]
#: A statement instance: (statement label, iteration vector).
Instance = Tuple[str, Point]


@dataclass(frozen=True)
class ExecutionUnit:
    """A sequence of statement instances that must execute in order.

    A unit is the smallest schedulable entity: a single iteration of a DOALL
    loop (one instance) or a whole recurrence chain executed by a WHILE loop
    (several instances in chain order).
    """

    instances: Tuple[Instance, ...]
    kind: str = "iteration"  # "iteration" | "chain" | "block"

    @staticmethod
    def single(label: str, point: Sequence[int]) -> "ExecutionUnit":
        return ExecutionUnit(((label, tuple(point)),), "iteration")

    @staticmethod
    def chain(label: str, points: Sequence[Sequence[int]]) -> "ExecutionUnit":
        return ExecutionUnit(tuple((label, tuple(p)) for p in points), "chain")

    @staticmethod
    def block(instances: Sequence[Instance]) -> "ExecutionUnit":
        return ExecutionUnit(tuple((l, tuple(p)) for l, p in instances), "block")

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def work(self) -> int:
        """Number of statement instances (the unit's sequential execution time
        in the unit-cost model)."""
        return len(self.instances)


@dataclass(frozen=True)
class ParallelPhase:
    """A set of execution units that may run concurrently, ended by a barrier."""

    name: str
    units: Tuple[ExecutionUnit, ...]

    def __len__(self) -> int:
        return len(self.units)

    @property
    def work(self) -> int:
        """Total statement instances in the phase."""
        return sum(u.work for u in self.units)

    @property
    def span(self) -> int:
        """Length of the longest unit — the phase's critical path in unit cost."""
        return max((u.work for u in self.units), default=0)

    def instances(self) -> List[Instance]:
        out: List[Instance] = []
        for u in self.units:
            out.extend(u.instances)
        return out


def validate_csr(level_offsets: np.ndarray, point_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and normalise CSR-style ``(level_offsets, point_rows)`` arrays.

    Shared by :meth:`Schedule.from_arrays` and
    :meth:`~repro.core.dataflow.DataflowPartition.from_arrays`; returns the
    int64-normalised pair or raises :class:`ValueError`.
    """
    offsets = np.asarray(level_offsets, dtype=np.int64)
    rows = np.asarray(point_rows, dtype=np.int64)
    if offsets.ndim != 1 or len(offsets) == 0 or rows.ndim != 2:
        raise ValueError(
            "level_offsets must be a 1-D prefix-sum array and point_rows (n, dim)"
        )
    if offsets[0] != 0 or offsets[-1] != len(rows):
        raise ValueError("level_offsets must start at 0 and end at len(point_rows)")
    if (np.diff(offsets) < 0).any():
        raise ValueError("level_offsets must be non-decreasing")
    # Read-only: the containers cache tuple views derived from these arrays,
    # so an in-place edit through any alias must raise, not desync.
    return readonly_view(offsets), readonly_view(rows)


class ArrayPhase:
    """A DOALL phase whose units are the rows of an ``(n, dim)`` int64 array.

    Semantically identical to a :class:`ParallelPhase` of ``n`` single-instance
    units ``(label, row)`` — :attr:`units` materialises exactly that tuple
    lazily, so every tuple-path consumer (validators, simulator, codegen)
    works unchanged — but the executors recognise the class and iterate the
    rows directly, skipping per-point :class:`ExecutionUnit` boxing.
    """

    __slots__ = ("name", "label", "points", "_units")

    def __init__(self, name: str, label: str, points: np.ndarray):
        self.name = name
        self.label = label
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2:
            raise ValueError("ArrayPhase points must be an (n, dim) array")
        # Stored read-only: the lazy `units` view caches tuples of this data.
        self.points = readonly_view(pts)
        self._units: Tuple[ExecutionUnit, ...] | None = None

    @property
    def units(self) -> Tuple[ExecutionUnit, ...]:
        if self._units is None:
            self._units = tuple(
                ExecutionUnit.single(self.label, p) for p in self.points.tolist()
            )
        return self._units

    def __len__(self) -> int:
        return len(self.points)

    @property
    def work(self) -> int:
        return len(self.points)

    @property
    def span(self) -> int:
        return 1 if len(self.points) else 0

    def instances(self) -> List[Instance]:
        return [(self.label, tuple(p)) for p in self.points.tolist()]

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayPhase):
            return (
                self.name == other.name
                and self.label == other.label
                and np.array_equal(self.points, other.points)
            )
        if isinstance(other, ParallelPhase):
            return self.name == other.name and self.units == other.units
        return NotImplemented

    def __hash__(self) -> int:
        # Must match ParallelPhase's dataclass hash: the two compare equal
        # when (name, units) agree, so they have to hash alike too.  Hashing
        # materialises the unit view; phases are rarely used as dict/set keys.
        return hash((self.name, self.units))

    def __repr__(self) -> str:
        return f"ArrayPhase({self.name!r}, {self.label!r}, <{len(self)} points>)"


class UnifiedArrayPhase:
    """A DOALL phase over *statement instances* held as parallel arrays.

    The statement-level analogue of :class:`ArrayPhase` (§3.3): ``rows`` are
    unified index vectors — ``(s0, i1, s1, ..., il, sl, 0, ...)`` — and
    ``stmt_ids`` names each row's statement (an index into the ``labels``
    table, whose per-statement nesting depths are in ``depths``).  The
    iteration vector of row ``r`` is its odd columns up to the statement's
    depth: ``rows[r, 1 : 2·depth : 2]``.

    Semantically identical to a :class:`ParallelPhase` of ``n``
    single-instance block units in row order — :attr:`units` materialises
    exactly that tuple lazily, so validators, the simulator and codegen work
    unchanged — but the executors recognise the class and iterate the rows
    directly.
    """

    __slots__ = ("name", "labels", "depths", "stmt_ids", "rows", "_units")

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        depths: Sequence[int],
        stmt_ids: np.ndarray,
        rows: np.ndarray,
    ):
        self.name = name
        self.labels = tuple(labels)
        self.depths = tuple(int(d) for d in depths)
        if len(self.labels) != len(self.depths):
            raise ValueError("labels and depths must be parallel")
        ids = np.asarray(stmt_ids, dtype=np.int64)
        pts = np.asarray(rows, dtype=np.int64)
        if ids.ndim != 1 or pts.ndim != 2 or len(ids) != len(pts):
            raise ValueError("stmt_ids must be (n,) parallel to (n, width) rows")
        # Stored read-only: the lazy `units` view caches tuples of this data.
        self.stmt_ids = readonly_view(ids)
        self.rows = readonly_view(pts)
        self._units: Tuple[ExecutionUnit, ...] | None = None

    @property
    def units(self) -> Tuple[ExecutionUnit, ...]:
        if self._units is None:
            self._units = tuple(
                ExecutionUnit.block([inst]) for inst in self.instances()
            )
        return self._units

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def work(self) -> int:
        return len(self.rows)

    @property
    def span(self) -> int:
        return 1 if len(self.rows) else 0

    def instances(self) -> List[Instance]:
        labels, depths = self.labels, self.depths
        return [
            (labels[sid], tuple(row[1 : 2 * depths[sid] : 2]))
            for sid, row in zip(self.stmt_ids.tolist(), self.rows.tolist())
        ]

    def __eq__(self, other) -> bool:
        if isinstance(other, UnifiedArrayPhase):
            return (
                self.name == other.name
                and self.labels == other.labels
                and self.depths == other.depths
                and np.array_equal(self.stmt_ids, other.stmt_ids)
                and np.array_equal(self.rows, other.rows)
            )
        if isinstance(other, ParallelPhase):
            return self.name == other.name and self.units == other.units
        return NotImplemented

    def __hash__(self) -> int:
        # Must match ParallelPhase's dataclass hash (see ArrayPhase.__hash__).
        return hash((self.name, self.units))

    def __repr__(self) -> str:
        return (
            f"UnifiedArrayPhase({self.name!r}, <{len(self)} instances, "
            f"{len(self.labels)} statements>)"
        )


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of parallel phases separated by barriers."""

    name: str
    phases: Tuple[ParallelPhase, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_phases(
        name: str, phases: Sequence[ParallelPhase], **meta
    ) -> "Schedule":
        return Schedule(name, tuple(p for p in phases if len(p) > 0), dict(meta))

    @staticmethod
    def from_arrays(
        name: str,
        label: str,
        level_offsets: np.ndarray,
        point_rows: np.ndarray,
        phase_prefix: str = "wavefront",
        **meta,
    ) -> "Schedule":
        """A wavefront schedule from CSR-style arrays, one :class:`ArrayPhase`
        per level.

        ``point_rows`` is the ``(total, dim)`` array of all iteration points
        and ``level_offsets`` the ``(levels + 1,)`` prefix-sum array: level
        ``k`` owns rows ``level_offsets[k]:level_offsets[k+1]``.  Empty levels
        are dropped, mirroring :meth:`from_phases`.
        """
        offsets, rows = validate_csr(level_offsets, point_rows)
        phases = []
        for level in range(len(offsets) - 1):
            chunk = rows[int(offsets[level]) : int(offsets[level + 1])]
            if len(chunk):
                phases.append(ArrayPhase(f"{phase_prefix}-{level}", label, chunk))
        return Schedule(name, tuple(phases), dict(meta))

    @staticmethod
    def from_unified_arrays(
        name: str,
        level_offsets: np.ndarray,
        rows: np.ndarray,
        stmt_ids: np.ndarray,
        labels: Sequence[str],
        depths: Sequence[int],
        phase_prefix: str = "wavefront",
        **meta,
    ) -> "Schedule":
        """A statement-level wavefront schedule from CSR-style arrays.

        The §3.3 twin of :meth:`from_arrays`: ``rows`` holds unified index
        vectors and ``stmt_ids`` (parallel to ``rows``) the statement of each
        instance; level ``k`` owns rows ``level_offsets[k]:level_offsets[k+1]``
        and becomes one :class:`UnifiedArrayPhase`.  Empty levels are dropped.
        """
        offsets, pts = validate_csr(level_offsets, rows)
        ids = np.asarray(stmt_ids, dtype=np.int64)
        if ids.ndim != 1 or len(ids) != len(pts):
            raise ValueError("stmt_ids must be (n,) parallel to the point rows")
        phases = []
        for level in range(len(offsets) - 1):
            lo, hi = int(offsets[level]), int(offsets[level + 1])
            if hi > lo:
                phases.append(
                    UnifiedArrayPhase(
                        f"{phase_prefix}-{level}", labels, depths,
                        ids[lo:hi], pts[lo:hi],
                    )
                )
        return Schedule(name, tuple(phases), dict(meta))

    @staticmethod
    def sequential(name: str, instances: Sequence[Instance]) -> "Schedule":
        """The degenerate schedule: everything in one unit of one phase."""
        unit = ExecutionUnit.block(list(instances))
        return Schedule(name, (ParallelPhase("sequential", (unit,)),), {})

    # -- aggregate metrics ------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def total_work(self) -> int:
        """Total number of statement instances across all phases."""
        return sum(p.work for p in self.phases)

    @property
    def span(self) -> int:
        """Critical path length in unit cost: sum over phases of the longest unit."""
        return sum(p.span for p in self.phases)

    @property
    def max_parallelism(self) -> int:
        return max((len(p) for p in self.phases), default=0)

    def ideal_speedup(self) -> float:
        """Work/span ratio — the speedup on unboundedly many unit-cost processors."""
        return self.total_work / self.span if self.span else float("nan")

    def instances(self) -> List[Instance]:
        out: List[Instance] = []
        for p in self.phases:
            out.extend(p.instances())
        return out

    def instance_counts(self) -> Dict[str, int]:
        """Instances per phase name (useful in reports)."""
        return {p.name: p.work for p in self.phases}

    # -- safety checking ----------------------------------------------------------

    def covers(self, instances: Iterable[Instance]) -> bool:
        """True when the schedule executes exactly the given instances, once each."""
        mine = self.instances()
        return len(mine) == len(set(mine)) and set(mine) == set(instances)

    def execution_index(self) -> Dict[Instance, Tuple[int, int, int]]:
        """Map instance -> (phase number, unit number, position inside unit)."""
        out: Dict[Instance, Tuple[int, int, int]] = {}
        for pi, phase in enumerate(self.phases):
            for ui, unit in enumerate(phase.units):
                for k, inst in enumerate(unit.instances):
                    out[inst] = (pi, ui, k)
        return out

    def respects(
        self,
        dependences: FiniteRelation,
        label: str | None = None,
        key: Callable[[str, Point], Point] | None = None,
    ) -> bool:
        """True when the schedule honours every dependence: the early-exit
        form of :meth:`violations` (same arguments)."""
        return next(self._broken(dependences, label, key), None) is None

    def violations(
        self,
        dependences: FiniteRelation,
        label: str | None = None,
        key: Callable[[str, Point], Point] | None = None,
    ) -> List[Tuple[Instance, Instance]]:
        """All dependence pairs the schedule breaks (empty list == safe).

        A dependence (i → j) is honoured when instance ``i`` executes in an
        earlier phase than ``j``, or in the same unit at an earlier position.
        Two dependent instances in *different units of the same phase* would
        be a race and count as a violation.

        ``key(label, iteration)`` maps a scheduled instance to the point
        space ``dependences`` relates; the default is the iteration vector.
        A statement-level relation (unified vectors) needs
        ``key=space.unify``.  Under the default key, instances of several
        statements that share an iteration vector all match unless ``label``
        restricts the check to one statement.
        """
        return list(self._broken(dependences, label, key))

    def _broken(self, dependences, label, key) -> Iterator[Tuple[Instance, Instance]]:
        index = self.execution_index()
        by_point: Dict[Point, List[Instance]] = {}
        for inst in index:
            if label is None or inst[0] == label:
                by_point.setdefault(inst[1] if key is None else key(*inst), []).append(inst)
        for src, dst in dependences.pairs:
            for si in by_point.get(tuple(src), ()):
                ps, us, ks = index[si]
                for di in by_point.get(tuple(dst), ()):
                    pd, ud, kd = index[di]
                    if ps < pd or (ps == pd and us == ud and ks < kd):
                        continue
                    yield si, di

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "phases": self.num_phases,
            "work": self.total_work,
            "span": self.span,
            "max_parallelism": self.max_parallelism,
            "ideal_speedup": round(self.ideal_speedup(), 3) if self.span else None,
            "phase_sizes": [len(p) for p in self.phases],
        }
