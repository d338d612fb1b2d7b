"""The statement-level iteration space of §3.3 — the planner's one space.

Two statement instances can share an iteration vector while being distinct
units of work (Example 3, the Cholesky kernel, any loop with several
statements), so the partitioners cannot run on plain iteration vectors.  The
paper adopts the affine mapping framework of Kelly & Pugh: every statement
instance ``S(i)`` with ``l`` surrounding loops is given a *unified index
vector*

    s_i = (s0, i1, s1, i2, s2, ..., il, sl, 0, 0, ...)

where ``s_k`` is the statement's ordinal position among its siblings after
loop ``L_k`` (``s0`` is the position of the whole nest in the program) and the
vector is zero-padded on the right so all statements share one space.  The
lexicographic order of unified vectors is exactly the sequential execution
order, so the three-set and dataflow partitioners apply unchanged — they just
operate on unified vectors instead of iteration vectors.

Every program is planned in this one space.  A one-statement program needs
no position digits (they are constant), so its unified vector *is* its
iteration vector: :class:`UnifiedIndexMap` keeps no position column for it,
and its space costs exactly what enumerating the iteration space and its
relation costs.  Every program of several statements keeps the interleaved
layout above, whether or not its loops form a perfect nest.

The mapping itself lives in :class:`UnifiedIndexMap` (a pure function of the
program's syntax, usable without building any space); it alone decides the
column layout.  :class:`StatementLevelSpace` is the concrete unified space of
a program at given bounds, held as arrays:

* one ``(n, width)`` int64 row per instance in unified (== sequential)
  order, with ``stmt_ids`` naming the statement of each row;
* Rd as row-index pairs ``(rd_lo, rd_hi)`` into those rows — unique,
  ascending, each pair earlier → later — and as the array-backed
  :class:`~repro.isl.relations.FiniteRelation` ``rd`` of the rows they
  index;
* :meth:`StatementLevelSpace.phase`, the one way rows of the space become a
  :class:`~repro.core.schedule.Phase` (statement ids plus iteration columns);
* :meth:`StatementLevelSpace.row_indices_of`, which locates unified rows
  among the space's rows by codec key (``Schedule.covers`` checks coverage
  with it).

:func:`build_statement_space` runs one :meth:`UnifiedIndexMap.unify_array`
gather/interleave per statement, lex-merges the per-statement blocks, and
builds Rd directly as row indices of the merged space with one sort/merge
join per reference pair
(:func:`~repro.dependence.exact.dependence_index_pairs`) — no per-pair
relation and no per-instance Python tuples anywhere.
:attr:`~repro.dependence.analysis.DependenceAnalysis.space` caches its result
per analysis, and every builder, the features and ``Plan.validate()`` read
that one object.  ``tests/core/test_statement_differential.py`` pins it
bit-identical to a brute-force per-instance oracle on Hypothesis-generated
loop trees; the array path assumes a unit-stride (normalized) program,
exactly like the rest of the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..dependence.analysis import DependenceAnalysis
from ..dependence.exact import dependence_index_pairs
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, PointCodec, lexsort_rows, readonly_view
from .dataflow import dataflow_partition_indexed
from .schedule import Phase, Schedule

__all__ = [
    "UnifiedIndexMap",
    "StatementLevelSpace",
    "build_statement_space",
    "statement_dataflow_schedule",
]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class UnifiedIndexMap:
    """The §3.3 Kelly–Pugh mapping: statement instance → unified index vector.

    A pure function of the program's *syntax* (statement positions and the
    deepest nesting level) — it needs no enumerated space, so callers that
    only want to map vectors never build a :class:`StatementLevelSpace`.
    It is also the one place that knows the column layout: a one-statement
    program's vectors carry no position digits (:attr:`interleaved` is
    false), every other program's interleave them with the loop indices.
    """

    #: per statement label: the syntactic position numbers (s0, s1, ..., sl)
    positions: Mapping[str, Tuple[int, ...]]
    #: unified vector length (common to all statements, zero-padded)
    width: int

    @staticmethod
    def from_program(program: LoopProgram) -> "UnifiedIndexMap":
        """Position numbers (s0, ..., sl) per statement and the unified width.

        ``position`` stored on each :class:`~repro.ir.program.StatementContext`
        is the path of child indices from the program root; the entry after
        loop ``k`` is exactly the sibling ordinal the paper's mapping needs.
        Statements in the same loop get consecutive ordinals automatically
        because child indices are consecutive.
        """
        positions: Dict[str, Tuple[int, ...]] = {}
        max_depth = 0
        for ctx in program.statement_contexts():
            positions[ctx.statement.label] = tuple(int(x) for x in ctx.position)
            max_depth = max(max_depth, ctx.depth)
        if len(positions) == 1:
            return UnifiedIndexMap(positions, max_depth)
        # Unified width: s0 + (i_k, s_k) per loop level up to the deepest statement.
        return UnifiedIndexMap(positions, 1 + 2 * max_depth)

    @property
    def interleaved(self) -> bool:
        """Whether the vectors carry position digits: false only for a
        one-statement program, whose unified vector is its iteration vector."""
        return len(self.positions) != 1

    def depth_of(self, label: str) -> int:
        return len(self.positions[label]) - 1

    def unify(self, label: str, iteration: Sequence[int]) -> Point:
        """The unified index vector of one statement instance."""
        if not self.interleaved:
            return tuple(int(iv) for iv in iteration)
        pos = self.positions[label]
        coords: List[int] = [pos[0]]
        for k, iv in enumerate(iteration):
            coords.append(int(iv))
            coords.append(pos[k + 1])
        coords.extend([0] * (self.width - len(coords)))
        return tuple(coords)

    def unify_array(self, label: str, iterations: np.ndarray) -> np.ndarray:
        """Unified vectors of a whole batch of one statement's iterations.

        ``iterations`` is ``(n, depth)``; the result is ``(n, width)`` — in
        the interleaved layout the iteration coordinates land in the odd
        columns ``1, 3, ..., 2·depth-1`` (one strided interleave), the
        position digits broadcast into the even columns, and the tail stays
        zero-padded; a one-statement program's iterations come back as they
        are.  This is the vectorised twin of :meth:`unify`:
        ``unify_array(l, a)[k] == unify(l, a[k])`` row by row.
        """
        pos = self.positions[label]
        iters = np.asarray(iterations, dtype=np.int64)
        if iters.ndim != 2:
            raise ValueError("iterations must be an (n, depth) array")
        depth = iters.shape[1]
        if depth != len(pos) - 1:
            raise ValueError(
                f"statement {label!r} has depth {len(pos) - 1}, "
                f"got iteration vectors of rank {depth}"
            )
        if not self.interleaved:
            return iters
        out = np.zeros((len(iters), self.width), dtype=np.int64)
        out[:, 0] = pos[0]
        if depth:
            out[:, 1 : 2 * depth : 2] = iters
            out[:, 2 : 2 * depth + 1 : 2] = np.asarray(pos[1:], dtype=np.int64)
        return out

    # -- column views of unified rows ------------------------------------------

    def iteration_columns(self, rows: np.ndarray) -> np.ndarray:
        """The loop-index columns of unified rows (a view): the iteration
        vectors, zero-padded past each statement's depth."""
        return rows[:, 1::2] if self.interleaved else rows

    def position_columns(self, rows: np.ndarray) -> np.ndarray:
        """The position-digit columns of unified rows (none for a
        one-statement program)."""
        return rows[:, 0::2] if self.interleaved else rows[:, :0]

    def prefix(self, rows: np.ndarray, depth: int) -> np.ndarray:
        """The columns of unified rows down to loop level ``depth``:
        ``(s0, i1, ..., s_{d-1}, i_d)``, or ``(i1, ..., i_d)`` without
        position digits."""
        return rows[:, : 2 * depth] if self.interleaved else rows[:, :depth]


class StatementLevelSpace:
    """The unified statement-instance space of a program at concrete bounds.

    Array-backed: ``unified_array`` holds every instance's unified vector as
    an ``(n, width)`` int64 row (lexicographic == sequential order) with
    ``stmt_ids`` naming the statement of each row (given as the int ``0``
    for a one-statement program, and read back as a zero-stride view).

    Rd is held as row indices: ``rd_lo[k] < rd_hi[k]`` index the earlier and
    the later instance of the ``k``-th dependence, the pairs unique and
    ascending by ``(lo, hi)``.  The rows are unique and sorted, so
    ``rd = FiniteRelation(rows[rd_lo], rows[rd_hi])`` is canonical as it
    stands.  ``pair_flags`` tells, parallel to the analysis'
    ``reference_pairs``, which reference pair has a dependence.
    """

    __slots__ = (
        "program_name",
        "index_map",
        "stmt_labels",
        "stmt_depths",
        "_stmt_ids",
        "unified_array",
        "rd_lo",
        "rd_hi",
        "rd",
        "pair_flags",
        "_codec",
        "_space_keys",
    )

    def __init__(
        self,
        program_name: str,
        index_map: UnifiedIndexMap,
        stmt_labels: Tuple[str, ...],
        stmt_ids: Union[int, np.ndarray],
        unified_array: np.ndarray,
        rd_lo: np.ndarray,
        rd_hi: np.ndarray,
        pair_flags: Tuple[bool, ...] = (),
    ):
        self.program_name = program_name
        self.index_map = index_map
        self.stmt_labels = tuple(stmt_labels)
        self.stmt_depths = tuple(index_map.depth_of(l) for l in self.stmt_labels)
        self.unified_array = readonly_view(np.asarray(unified_array, dtype=np.int64))
        if isinstance(stmt_ids, (int, np.integer)):
            self._stmt_ids: Union[int, np.ndarray] = int(stmt_ids)
        else:
            self._stmt_ids = readonly_view(np.asarray(stmt_ids, dtype=np.int64))
            if len(self._stmt_ids) != len(self.unified_array):
                raise ValueError("stmt_ids must be parallel to unified_array")
        if self.unified_array.ndim != 2:
            raise ValueError("unified_array must be an (n, width) array")
        self.rd_lo = readonly_view(np.asarray(rd_lo, dtype=np.int64))
        self.rd_hi = readonly_view(np.asarray(rd_hi, dtype=np.int64))
        self.rd = FiniteRelation(self.unified_array[self.rd_lo], self.unified_array[self.rd_hi])
        self.pair_flags = tuple(pair_flags)
        self._codec: Optional[PointCodec] = None
        self._space_keys: Optional[np.ndarray] = None

    # -- mapping helpers -------------------------------------------------------

    @property
    def positions(self) -> Mapping[str, Tuple[int, ...]]:
        return self.index_map.positions

    @property
    def width(self) -> int:
        return self.index_map.width

    def unify_array(self, label: str, iterations: np.ndarray) -> np.ndarray:
        """Unified vectors of a batch of one statement's iterations (see
        :meth:`UnifiedIndexMap.unify_array`)."""
        return self.index_map.unify_array(label, iterations)

    # -- array views -----------------------------------------------------------

    @property
    def stmt_ids(self) -> np.ndarray:
        """The ``(n,)`` statement of each row (read-only)."""
        if isinstance(self._stmt_ids, int):
            return np.broadcast_to(np.int64(self._stmt_ids), (len(self.unified_array),))
        return self._stmt_ids

    def keys(self) -> Tuple[PointCodec, np.ndarray]:
        """A codec over the unified rows and the (ascending) key of every
        row, built once per space."""
        if self._codec is None:
            codec = PointCodec.for_arrays(self.unified_array)
            self._codec = codec
            self._space_keys = codec.encode(self.unified_array)
        return self._codec, self._space_keys

    def row_indices_of(self, rows: np.ndarray) -> np.ndarray:
        """Indices into :attr:`unified_array` of the given unified rows.

        Vectorised membership by codec key + ``searchsorted`` (the space rows
        are lexicographically sorted, so their keys are ascending).  Raises
        :class:`KeyError` when some row is not an instance of this space.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return np.zeros(0, dtype=np.int64)
        if not len(self):
            raise KeyError("an empty statement space has no instances")
        codec, space_keys = self.keys()
        keys = codec.encode(rows)
        idx = np.searchsorted(space_keys, keys).clip(max=len(space_keys) - 1)
        ok = codec.contains(rows) & (space_keys[idx] == keys)
        if not ok.all():
            raise KeyError("some rows are not instances of this statement space")
        return idx

    def stmt_ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The statement id (index into :attr:`stmt_labels`) of each unified row."""
        return self.stmt_ids[self.row_indices_of(rows)]

    def split(self, rows: np.ndarray) -> Tuple[Union[int, np.ndarray], np.ndarray]:
        """``(stmt_ids, iters)`` of rows of this space, as a
        :class:`~repro.core.schedule.Phase` holds them: the statement of each
        row (the int ``0`` for a one-statement program, found by one
        vectorised lookup otherwise) and its iteration columns."""
        if not self.index_map.interleaved:
            return 0, rows
        return self.stmt_ids_of(rows), self.index_map.iteration_columns(rows)

    def phase(
        self, name: str, rows: np.ndarray, unit_offsets: Optional[np.ndarray] = None
    ) -> Phase:
        """Rows of this space as one :class:`~repro.core.schedule.Phase`
        (``unit_offsets`` as there: ``None`` is one row per unit)."""
        return Phase(name, *self.split(rows), unit_offsets)

    def __len__(self) -> int:
        return len(self.unified_array)

    def __repr__(self) -> str:
        return (
            f"StatementLevelSpace({self.program_name!r}, <{len(self)} instances, "
            f"width {self.width}, {len(self.rd)} dependences>)"
        )


def build_statement_space(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: Optional[DependenceAnalysis] = None,
) -> StatementLevelSpace:
    """Build the unified statement-instance space and its dependence relation.

    Every instance of every statement becomes one unified row; the
    per-statement domains come from the analysis' cached enumeration, one
    :meth:`UnifiedIndexMap.unify_array` interleave maps each statement's
    block, and a lexicographic merge puts the blocks in sequential order (a
    single block is already in order).

    Rd (eq. 4 / eq. 7 on statement instances) is built once, as row-index
    pairs into the merged rows: each ``(statement, reference)``'s addresses
    are encoded once per array, each reference pair is one sort/merge join
    of those keys shifted to global rows through the merge permutation, and
    the matches lose their self-pairs, are oriented ``(min, max)`` and
    deduplicated by one scalar unique
    (:func:`~repro.dependence.exact.dependence_index_pairs`).  The same join
    yields each reference pair's non-empty flag, so no per-pair relation is
    materialised.  Planning code reads the analysis' cached copy,
    :attr:`~repro.dependence.analysis.DependenceAnalysis.space`.
    """
    analysis = analysis or DependenceAnalysis(program, params)
    index_map = UnifiedIndexMap.from_program(program)
    contexts = program.statement_contexts()
    stmt_labels = tuple(ctx.statement.label for ctx in contexts)

    domains = {label: analysis.statement_domain_array(label) for label in stmt_labels}
    blocks = [index_map.unify_array(label, domains[label]) for label in stmt_labels]
    ids_all: Union[int, np.ndarray]
    # row_index[label][k]: the space row of the label's k-th domain row.
    if len(blocks) == 1:
        unified_all, ids_all = blocks[0], 0
        row_index = {stmt_labels[0]: np.arange(len(unified_all), dtype=np.int64)}
    elif blocks:
        unified_all = np.concatenate(blocks)
        ids_all = np.repeat(
            np.arange(len(blocks), dtype=np.int64), [len(b) for b in blocks]
        )
        order = lexsort_rows(unified_all)
        unified_all = unified_all[order]
        ids_all = ids_all[order]
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order), dtype=np.int64)
        bounds = np.cumsum([0] + [len(b) for b in blocks])
        row_index = {
            label: position[start:stop]
            for label, start, stop in zip(stmt_labels, bounds, bounds[1:])
        }
    else:
        unified_all = np.zeros((0, index_map.width), dtype=np.int64)
        ids_all = np.zeros(0, dtype=np.int64)
        row_index = {}

    rd_lo, rd_hi, pair_flags = dependence_index_pairs(
        analysis.reference_pairs, domains, row_index, len(unified_all)
    )
    return StatementLevelSpace(
        program_name=program.name,
        index_map=index_map,
        stmt_labels=stmt_labels,
        stmt_ids=ids_all,
        unified_array=unified_all,
        rd_lo=rd_lo,
        rd_hi=rd_hi,
        pair_flags=pair_flags,
    )


def statement_dataflow_schedule(name: str, space: StatementLevelSpace) -> Schedule:
    """Dataflow-partition a statement-level space into a wavefront schedule.

    The wavefronts stay in array form end to end: the peeling runs on the
    space's Rd row indices, the partition's CSR rows are unified vectors, :meth:`StatementLevelSpace.split` recovers their
    statements and iteration columns in one pass, and each level becomes one
    DOALL :class:`~repro.core.schedule.Phase` (interpretation stops at each
    statement's depth, so the padding is never read).  Instances run in
    lexicographic order within each wavefront.
    """
    partition = dataflow_partition_indexed(
        space.unified_array, space.rd_lo, space.rd_hi, space.rd
    )
    level_offsets, point_rows = partition.level_arrays()
    return Schedule.from_levels(
        name,
        space.stmt_labels,
        space.stmt_depths,
        level_offsets,
        *space.split(point_rows),
        scheme="dataflow",
        num_steps=partition.num_steps,
    )
