"""Parallel schedules: the common output format of every partitioning scheme.

All partitioners in this package (recurrence chains, dataflow, PDM, unique
sets, DOACROSS, tiling, ...) ultimately answer the same question: *in what
order, and with what synchronization, may the statement instances execute?*
Their answer is a :class:`Schedule` — an ordered sequence of phases separated
by barriers, where each phase holds independent *units* that may run
concurrently, and each unit is a sequence of statement instances that must
run in the given order (e.g. one monotonic recurrence chain executed by a
WHILE loop).

This representation captures exactly what the paper's generated code captures:
``DOALL`` nests become phases whose units are single instances, the WHILE-loop
chains become multi-instance units inside the intermediate phase, and barrier
synchronization exists only *between* phases (``c$omp end do nowait`` inside a
phase, barriers at the P1/P2 and P2/P3 borders).

A materialised phase is one :class:`Phase`: three int64 arrays and a name.

* ``stmt_ids`` — ``(n,)``, the statement of each instance, an index into the
  schedule's statement table (:attr:`Schedule.labels`, which lists the
  program's ``statement_contexts()`` in order); a one-statement phase
  stores one int instead;
* ``iters`` — ``(n, width)``, row ``k`` the iteration vector of instance
  ``k`` (zero-padded past its statement's depth, :attr:`Schedule.depths`);
* ``unit_offsets`` — the units CSR-style (unit ``u`` owns instances
  ``unit_offsets[u]:unit_offsets[u+1]``, in order), or ``None`` when every
  unit is one instance.

The builders cut their phases out of the rows of the program's one
statement-level space (:attr:`DependenceAnalysis.space
<repro.dependence.analysis.DependenceAnalysis.space>`) with
:meth:`StatementLevelSpace.phase <repro.core.statement.StatementLevelSpace.phase>`,
which splits each row into its statement id and iteration columns.  The
symbolic phases of :mod:`repro.core.symbolic` hold bounds only and turn
into a :class:`Phase` through the same :meth:`Phase.lower` method, so every
consumer — the executors, the validators, the cost simulator, the
lockstep lowering — reads one form.

The runtime package consumes schedules to (a) validate them against the
same space and its dependence relation (:meth:`Schedule.covers`,
:meth:`Schedule.respects`) and the sequential semantics and (b)
estimate/measure speedups under a processor-count and overhead model.  The
checks lower each phase once, give every instance a ``(phase, unit, step)``
position and locate rows and Rd endpoints by
:class:`~repro.isl.relations.PointCodec` key with ``searchsorted``: no
instance is boxed into a tuple except the violating ones
:meth:`Schedule.violations` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..isl.relations import FiniteRelation, PointCodec, readonly_view

__all__ = [
    "Instance",
    "Phase",
    "Schedule",
    "statement_table",
]

Point = Tuple[int, ...]
#: A statement instance: (statement label, iteration vector).
Instance = Tuple[str, Point]


def validate_csr(level_offsets: np.ndarray, point_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and normalise CSR-style ``(level_offsets, point_rows)`` arrays.

    Shared by :meth:`Schedule.from_levels` and
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
    # Read-only: partitions and schedules share slices of these arrays, so
    # an in-place edit through any alias must raise, not desync.
    return readonly_view(offsets), readonly_view(rows)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when already read-only (a slice of a read-only array —
    the common case, which keeps a schedule of many small phases lean),
    else a read-only view."""
    return arr if not arr.flags.writeable else readonly_view(arr)


class Phase:
    """A set of independent units ended by a barrier, held as arrays.

    See the module docstring for the three arrays.  ``stmt_ids`` may be
    given as one int, the statement of every instance: a one-statement
    phase then stores no id array (:attr:`stmt_ids` reads it back as a
    zero-stride view).  ``len`` is the unit count, ``work`` the instance
    count and ``span`` the longest unit (the phase's critical path in unit
    cost).  ``unit_offsets`` that delimit one instance per unit are stored
    as ``None``, so two phases with the same units compare equal whichever
    way they were built.  The arrays are stored read-only.
    """

    __slots__ = ("name", "_stmt_ids", "iters", "unit_offsets")

    def __init__(
        self,
        name: str,
        stmt_ids: Union[int, np.ndarray],
        iters: np.ndarray,
        unit_offsets: Optional[np.ndarray] = None,
    ):
        rows = np.asarray(iters, dtype=np.int64)
        if isinstance(stmt_ids, (int, np.integer)):
            ids = int(stmt_ids)
        else:
            ids = _readonly(np.asarray(stmt_ids, dtype=np.int64))
            if ids.ndim != 1 or len(ids) != len(rows):
                raise ValueError("stmt_ids must be (n,) parallel to (n, width) iters")
        if rows.ndim != 2:
            raise ValueError("iters must be an (n, width) array")
        if unit_offsets is not None:
            offsets = np.asarray(unit_offsets, dtype=np.int64)
            if (
                offsets.ndim != 1 or len(offsets) == 0
                or offsets[0] != 0 or offsets[-1] != len(rows)
                or (np.diff(offsets) <= 0).any()
            ):
                raise ValueError(
                    "unit_offsets must rise strictly from 0 to the instance count"
                )
            unit_offsets = None if len(offsets) == len(rows) + 1 else _readonly(offsets)
        self.name = name
        self._stmt_ids = ids
        self.iters = _readonly(rows)
        self.unit_offsets = unit_offsets

    @property
    def stmt_ids(self) -> np.ndarray:
        """The ``(n,)`` statement of each instance (read-only)."""
        if isinstance(self._stmt_ids, int):
            return np.broadcast_to(np.int64(self._stmt_ids), (len(self.iters),))
        return self._stmt_ids

    def lower(self) -> "Phase":
        """The phase as arrays: itself (the symbolic phases build one)."""
        return self

    def __len__(self) -> int:
        if self.unit_offsets is None:
            return len(self.iters)
        return len(self.unit_offsets) - 1

    @property
    def work(self) -> int:
        """Total statement instances in the phase."""
        return len(self.iters)

    def unit_lengths(self) -> np.ndarray:
        """Instances per unit, in unit order."""
        if self.unit_offsets is None:
            return np.ones(len(self.iters), dtype=np.int64)
        return np.diff(self.unit_offsets)

    @property
    def span(self) -> int:
        """Length of the longest unit — the phase's critical path in unit cost."""
        if not len(self.iters):
            return 0
        return 1 if self.unit_offsets is None else int(self.unit_lengths().max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        mine, theirs = self.unit_offsets, other.unit_offsets
        return (
            self.name == other.name
            and np.array_equal(self.stmt_ids, other.stmt_ids)
            and np.array_equal(self.iters, other.iters)
            and (mine is None) == (theirs is None)
            and (mine is None or np.array_equal(mine, theirs))
        )

    __hash__ = None  # equal by array value, so not hashable

    def __repr__(self) -> str:
        return f"Phase({self.name!r}, <{len(self)} units, {self.work} instances>)"


def statement_table(program) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """``(labels, depths)`` of ``program.statement_contexts()``, in order:
    the statement table a schedule's ``stmt_ids`` index."""
    contexts = program.statement_contexts()
    return (
        tuple(ctx.statement.label for ctx in contexts),
        tuple(ctx.depth for ctx in contexts),
    )


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of parallel phases separated by barriers.

    ``labels`` and ``depths`` are the statement table the phases'
    ``stmt_ids`` index (see :func:`statement_table`).  ``lowered`` holds the
    lockstep executor's lowered form of the schedule, built on its first
    ``compiled`` run
    (:func:`repro.codegen.python_source.ensure_symbolic_kernel`), so it is
    freed with the schedule.
    """

    name: str
    phases: Tuple[Phase, ...]
    labels: Tuple[str, ...]
    depths: Tuple[int, ...]
    meta: Mapping[str, object] = field(default_factory=dict)
    lowered: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_phases(
        name: str,
        phases: Sequence[Phase],
        labels: Sequence[str],
        depths: Sequence[int],
        **meta,
    ) -> "Schedule":
        """A schedule over the given phases; empty phases are dropped."""
        return Schedule(
            name,
            tuple(p for p in phases if len(p) > 0),
            tuple(labels),
            tuple(int(d) for d in depths),
            dict(meta),
        )

    @staticmethod
    def for_program(name: str, program, phases: Sequence[Phase], **meta) -> "Schedule":
        """:meth:`from_phases` with ``program``'s statement table."""
        return Schedule.from_phases(name, phases, *statement_table(program), **meta)

    @staticmethod
    def from_levels(
        name: str,
        labels: Sequence[str],
        depths: Sequence[int],
        level_offsets: np.ndarray,
        stmt_ids: Union[int, np.ndarray],
        iters: np.ndarray,
        phase_names: Union[str, Sequence[str]] = "wavefront",
        **meta,
    ) -> "Schedule":
        """A wavefront schedule from CSR-style arrays, one DOALL phase per level.

        ``stmt_ids`` / ``iters`` hold every instance (see :class:`Phase`;
        one int is the statement of every instance), level-major, and
        ``level_offsets`` the ``(levels + 1,)`` prefix sums: level ``k`` owns
        rows ``level_offsets[k]:level_offsets[k+1]`` and becomes one phase,
        one instance per unit, named ``phase_names[k]`` — or
        ``f"{phase_names}-{k}"`` when ``phase_names`` is one prefix string.
        Empty levels are dropped.  The phases slice the two shared arrays,
        so a schedule of many small phases stays cheap.
        """
        offsets, rows = validate_csr(level_offsets, iters)
        uniform = isinstance(stmt_ids, (int, np.integer))
        ids = stmt_ids if uniform else np.asarray(stmt_ids, dtype=np.int64)
        if not uniform and (ids.ndim != 1 or len(ids) != len(rows)):
            raise ValueError("stmt_ids must be (n,) parallel to the iteration rows")
        bounds = offsets.tolist()
        if isinstance(phase_names, str):
            phase_names = [f"{phase_names}-{level}" for level in range(len(bounds) - 1)]
        phases = [
            Phase(phase_name, ids if uniform else ids[lo:hi], rows[lo:hi])
            for phase_name, lo, hi in zip(phase_names, bounds, bounds[1:])
            if hi > lo
        ]
        return Schedule.from_phases(name, phases, labels, depths, **meta)

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

    # -- safety checking ----------------------------------------------------------

    def _placed(self, unify) -> Tuple[List[Phase], np.ndarray, np.ndarray]:
        """The phases lowered once, and every scheduled instance in schedule
        order: its point (``unify(label, iterations)``, one call per
        statement of a phase) and its ``(phase, unit, step)`` position, as
        ``(n, width)`` and ``(n, 3)`` arrays."""
        lowered = [phase.lower() for phase in self.phases]
        points: List[np.ndarray] = []
        where: List[np.ndarray] = []
        for number, phase in enumerate(lowered):
            if not phase.work:
                continue
            ids, rows = phase.stmt_ids, None
            for sid in np.unique(ids).tolist():
                mine = ids == sid
                block = unify(self.labels[sid], phase.iters[mine, : self.depths[sid]])
                if rows is None:
                    rows = np.empty((len(ids), block.shape[1]), dtype=np.int64)
                rows[mine] = block
            lens = phase.unit_lengths()
            unit = np.repeat(np.arange(len(lens)), lens)
            step = np.arange(len(unit)) - (np.cumsum(lens) - lens)[unit]
            points.append(rows)
            where.append(np.stack([np.full(len(unit), number), unit, step], axis=1))
        if not points:
            return lowered, np.zeros((0, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
        return lowered, np.concatenate(points), np.concatenate(where)

    def covers(self, space) -> bool:
        """True when the schedule executes every instance of ``space`` (a
        :class:`~repro.core.statement.StatementLevelSpace`) exactly once.

        The sorted rows the scheduled instances land on must be the space's
        rows, each once: a missing, a duplicated or a foreign instance fails.
        """
        try:
            rows = space.row_indices_of(self._placed(space.unify_array)[1])
        except KeyError:
            return False
        return np.array_equal(np.sort(rows), np.arange(len(space)))

    def respects(self, dependences) -> bool:
        """True when the schedule honours every dependence: :meth:`violations`
        is empty (same argument)."""
        return not len(self._broken(dependences)[2])

    def violations(self, dependences) -> List[Tuple[Instance, Instance]]:
        """All dependence pairs the schedule breaks (empty list == safe), in
        the relation's row order.

        A dependence (i → j) is honoured when instance ``i`` executes in an
        earlier phase than ``j``, or in the same unit at an earlier position.
        Two dependent instances in *different units of the same phase* would
        be a race and count as a violation.  A pair with an unscheduled end
        is left to :meth:`covers`.

        ``dependences`` is a program's statement-level space
        (:class:`~repro.core.statement.StatementLevelSpace`, e.g.
        ``DependenceAnalysis.space``): its Rd relates unified vectors, and
        each scheduled instance is matched by its own.  A bare
        :class:`~repro.isl.relations.FiniteRelation` relates iteration
        vectors, which is a one-statement program's space; it is refused for
        a schedule of several statements, whose instances it cannot tell
        apart.
        """
        lowered, where, src, dst = self._broken(dependences)

        def instance(k: int) -> Instance:
            number = int(where[k, 0])
            phase = lowered[number]
            row = k - int(np.searchsorted(where[:, 0], number))
            sid = int(phase.stmt_ids[row])
            return self.labels[sid], tuple(phase.iters[row, : self.depths[sid]].tolist())

        return [(instance(a), instance(b)) for a, b in zip(src.tolist(), dst.tolist())]

    def _broken(self, dependences) -> Tuple[List[Phase], np.ndarray, np.ndarray, np.ndarray]:
        """The lowered phases, the instances' positions (see :meth:`_placed`)
        and the schedule indices of the source and target instance of every
        broken dependence."""
        if isinstance(dependences, FiniteRelation):
            if len(self.labels) > 1:
                raise ValueError(
                    "a bare relation relates one statement's iteration vectors; "
                    "pass the program's statement space for a schedule of "
                    f"{len(self.labels)} statements"
                )
            rd, unify = dependences, lambda label, iters: iters
        else:
            rd, unify = dependences.rd, dependences.unify_array
        lowered, points, where = self._placed(unify)
        src, dst = rd.as_arrays()
        if not len(points) or not len(src):
            none = np.zeros(0, dtype=np.int64)
            return lowered, where, none, none
        codec = PointCodec.for_arrays(points, src, dst)
        keys = codec.encode(points)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]

        def locate(ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # A point scheduled twice is placed at its last copy.
            wanted = codec.encode(ends)
            at = (np.searchsorted(keys, wanted, side="right") - 1).clip(min=0)
            return order[at], keys[at] == wanted

        s, s_found = locate(src)
        d, d_found = locate(dst)
        ps, pd = where[s], where[d]
        honoured = (ps[:, 0] < pd[:, 0]) | (
            (ps[:, :2] == pd[:, :2]).all(axis=1) & (ps[:, 2] < pd[:, 2])
        )
        broken = s_found & d_found & ~honoured
        return lowered, where, s[broken], d[broken]

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
