"""Statement-level iteration space extension (§3.3) — array-native.

Imperfectly nested loops (Example 3, the Cholesky kernel) and loops with
several statements cannot be partitioned on plain iteration vectors, because
two statement instances can share an iteration vector while being distinct
units of work.  The paper adopts the affine mapping framework of Kelly & Pugh:
every statement instance ``S(i)`` with ``l`` surrounding loops is given a
*unified index vector*

    s_i = (s0, i1, s1, i2, s2, ..., il, sl, 0, 0, ...)

where ``s_k`` is the statement's ordinal position among its siblings after
loop ``L_k`` (``s0`` is the position of the whole nest in the program) and the
vector is zero-padded on the right so all statements share one space.  The
lexicographic order of unified vectors is exactly the sequential execution
order, so the three-set and dataflow partitioners apply unchanged — they just
operate on unified vectors instead of iteration vectors.

The mapping itself lives in :class:`UnifiedIndexMap` (a pure function of the
program's syntax, usable without building any space);
:class:`StatementLevelSpace` is the concrete unified space of a program at
given bounds, held as arrays:

* one ``(n, width)`` int64 row per instance in unified (== sequential)
  order, with a parallel ``stmt_ids`` vector naming the statement of each
  row, and ``rd`` as an array-backed
  :class:`~repro.isl.relations.FiniteRelation` over unified rows;
* the tuple views :attr:`StatementLevelSpace.instances`,
  :attr:`~StatementLevelSpace.unified` and
  :attr:`~StatementLevelSpace.points`, derived lazily on first access.

:func:`build_statement_space` runs one :meth:`UnifiedIndexMap.unify_array`
gather/interleave per statement, lex-merges the per-statement blocks, and
maps the exact analyser's pair relations into unified space with the
:class:`~repro.isl.relations.PointCodec` sort/merge machinery of
``FiniteRelation.oriented_forward`` — no per-instance Python tuples anywhere.
``tests/core/test_statement_differential.py`` pins it bit-identical to a
brute-force per-instance oracle on Hypothesis-generated programs; the array
path assumes a unit-stride (normalized) program, exactly like the rest of
the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.lexorder import lex_lt
from ..isl.relations import FiniteRelation, PointCodec, lexsort_rows, readonly_view
from .dataflow import dataflow_partition
from .schedule import Instance, Schedule

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
        # Unified width: s0 + (i_k, s_k) per loop level up to the deepest statement.
        return UnifiedIndexMap(positions, 1 + 2 * max_depth)

    def depth_of(self, label: str) -> int:
        return len(self.positions[label]) - 1

    def unify(self, label: str, iteration: Sequence[int]) -> Point:
        """The unified index vector of one statement instance."""
        pos = self.positions[label]
        coords: List[int] = [pos[0]]
        for k, iv in enumerate(iteration):
            coords.append(int(iv))
            coords.append(pos[k + 1])
        coords.extend([0] * (self.width - len(coords)))
        return tuple(coords)

    def unify_array(self, label: str, iterations: np.ndarray) -> np.ndarray:
        """Unified vectors of a whole batch of one statement's iterations.

        ``iterations`` is ``(n, depth)``; the result is ``(n, width)`` — the
        iteration coordinates land in the odd columns ``1, 3, ..., 2·depth-1``
        (one strided interleave), the position digits broadcast into the even
        columns, and the tail stays zero-padded.  This is the vectorised twin
        of :meth:`unify`: ``unify_array(l, a)[k] == unify(l, a[k])`` row by
        row.
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
        out = np.zeros((len(iters), self.width), dtype=np.int64)
        out[:, 0] = pos[0]
        if depth:
            out[:, 1 : 2 * depth : 2] = iters
            out[:, 2 : 2 * depth + 1 : 2] = np.asarray(pos[1:], dtype=np.int64)
        return out


class StatementLevelSpace:
    """The unified statement-instance space of a program at concrete bounds.

    Array-backed: ``unified_array`` holds every instance's unified vector as
    an ``(n, width)`` int64 row (lexicographic == sequential order) with
    ``stmt_ids`` naming the statement of each row; the tuple views
    (:attr:`instances`, :attr:`unified`, :attr:`points`,
    :meth:`instance_of`) are derived lazily on first access and cached, so a
    purely array-path consumer (the vectorised dataflow branch) never boxes a
    single instance.
    """

    __slots__ = (
        "program_name",
        "index_map",
        "stmt_labels",
        "stmt_depths",
        "stmt_ids",
        "unified_array",
        "rd",
        "_instances",
        "_unified",
        "_points",
        "_codec",
        "_space_keys",
    )

    def __init__(
        self,
        program_name: str,
        index_map: UnifiedIndexMap,
        stmt_labels: Tuple[str, ...],
        stmt_ids: np.ndarray,
        unified_array: np.ndarray,
        rd: FiniteRelation,
    ):
        self.program_name = program_name
        self.index_map = index_map
        self.stmt_labels = tuple(stmt_labels)
        self.stmt_depths = tuple(index_map.depth_of(l) for l in self.stmt_labels)
        self.stmt_ids = readonly_view(np.asarray(stmt_ids, dtype=np.int64))
        self.unified_array = readonly_view(np.asarray(unified_array, dtype=np.int64))
        if self.unified_array.ndim != 2 or len(self.unified_array) != len(self.stmt_ids):
            raise ValueError("unified_array must be (n, width) parallel to stmt_ids")
        self.rd = rd
        self._instances: Optional[Tuple[Instance, ...]] = None
        self._unified: Optional[Tuple[Point, ...]] = None
        self._points: Optional[FrozenSet[Point]] = None
        self._codec: Optional[PointCodec] = None
        self._space_keys: Optional[np.ndarray] = None

    # -- mapping helpers -------------------------------------------------------

    @property
    def positions(self) -> Mapping[str, Tuple[int, ...]]:
        return self.index_map.positions

    @property
    def width(self) -> int:
        return self.index_map.width

    def unify(self, label: str, iteration: Sequence[int]) -> Point:
        """The unified index vector of one statement instance."""
        return self.index_map.unify(label, iteration)

    def unify_array(self, label: str, iterations: np.ndarray) -> np.ndarray:
        """Batch form of :meth:`unify` (see :meth:`UnifiedIndexMap.unify_array`)."""
        return self.index_map.unify_array(label, iterations)

    # -- array views -----------------------------------------------------------

    @property
    def space_array(self) -> np.ndarray:
        """The unified space as ``(n, width)`` rows — the partitioners'
        natural input (lexicographic row order)."""
        return self.unified_array

    def _keys(self) -> Tuple[PointCodec, np.ndarray]:
        """Codec over the unified box + the (ascending) keys of every row."""
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
        codec, space_keys = self._keys()
        keys = codec.encode(rows)
        idx = np.searchsorted(space_keys, keys).clip(max=len(space_keys) - 1)
        ok = codec.contains(rows) & (space_keys[idx] == keys)
        if not ok.all():
            raise KeyError("some rows are not instances of this statement space")
        return idx

    def stmt_ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The statement id (index into :attr:`stmt_labels`) of each unified row."""
        return self.stmt_ids[self.row_indices_of(rows)]

    # -- tuple views (lazy) ----------------------------------------------------

    @property
    def instances(self) -> Tuple[Instance, ...]:
        """Every statement instance as (label, iteration vector), in
        sequential (== unified lexicographic) order — materialised on first
        access for array-built spaces."""
        if self._instances is None:
            labels, depths = self.stmt_labels, self.stmt_depths
            out: List[Instance] = []
            for sid, row in zip(self.stmt_ids.tolist(), self.unified_array.tolist()):
                out.append((labels[sid], tuple(row[1 : 2 * depths[sid] : 2])))
            self._instances = tuple(out)
        return self._instances

    @property
    def unified(self) -> Tuple[Point, ...]:
        """Unified vector of every instance, parallel to :attr:`instances`."""
        if self._unified is None:
            self._unified = tuple(map(tuple, self.unified_array.tolist()))
        return self._unified

    @property
    def points(self) -> FrozenSet[Point]:
        if self._points is None:
            self._points = frozenset(self.unified)
        return self._points

    def instance_of(self) -> Dict[Point, List[Instance]]:
        """Map a unified point back to the statement instance(s) it denotes."""
        out: Dict[Point, List[Instance]] = {}
        for inst, point in zip(self.instances, self.unified):
            out.setdefault(point, []).append(inst)
        return out

    def __len__(self) -> int:
        return len(self.unified_array)

    def __repr__(self) -> str:
        return (
            f"StatementLevelSpace({self.program_name!r}, <{len(self)} instances, "
            f"width {self.width}, {len(self.rd)} dependences>)"
        )

    # -- invariants ------------------------------------------------------------

    def sequential_order_is_lexicographic(
        self, sequential: Sequence[Instance]
    ) -> bool:
        """Property of the §3.3 mapping: program order == lexicographic order."""
        previous: Optional[Point] = None
        for label, iteration in sequential:
            current = self.unify(label, iteration)
            if previous is not None and not lex_lt(previous, current):
                return False
            previous = current
        return True


def build_statement_space(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: Optional[DependenceAnalysis] = None,
) -> StatementLevelSpace:
    """Build the unified statement-instance space and its dependence relation.

    The dependences come from the exact per-reference-pair analysis; each pair
    ``(i of S1) -> (j of S2)`` is mapped to unified vectors and then oriented
    so the lexicographically earlier instance is the source, dropping
    self-pairs — the statement-level analogue of eq. 4 / eq. 7.

    Everything is built on arrays: per-statement domains come from the
    analysis' cached enumeration, one :meth:`UnifiedIndexMap.unify_array`
    interleave maps each statement's block, a lexicographic merge puts the
    blocks in sequential order, and the pair relations are concatenated and
    oriented on the :class:`~repro.isl.relations.PointCodec` path
    (:meth:`~repro.isl.relations.FiniteRelation.oriented_forward`), yielding an
    array-backed ``rd`` whose tuple pairs stay unbuilt until a validator asks.
    """
    analysis = analysis or DependenceAnalysis(program, params)
    index_map = UnifiedIndexMap.from_program(program)
    contexts = program.statement_contexts()
    stmt_labels = tuple(ctx.statement.label for ctx in contexts)

    blocks: List[np.ndarray] = []
    ids: List[np.ndarray] = []
    for sid, ctx in enumerate(contexts):
        iters = analysis.statement_domain_array(ctx.statement.label)
        blocks.append(index_map.unify_array(ctx.statement.label, iters))
        ids.append(np.full(len(iters), sid, dtype=np.int64))
    if blocks:
        unified_all = np.concatenate(blocks)
        ids_all = np.concatenate(ids)
        order = lexsort_rows(unified_all)
        unified_all = unified_all[order]
        ids_all = ids_all[order]
    else:
        unified_all = np.zeros((0, index_map.width), dtype=np.int64)
        ids_all = np.zeros(0, dtype=np.int64)

    src_blocks: List[np.ndarray] = []
    dst_blocks: List[np.ndarray] = []
    for dep in analysis.pair_dependences:
        if dep.is_empty():
            continue
        src, dst = dep.relation.as_arrays()
        src_blocks.append(index_map.unify_array(dep.source_label, src))
        dst_blocks.append(index_map.unify_array(dep.target_label, dst))
    if src_blocks:
        combined = FiniteRelation.from_arrays(
            np.concatenate(src_blocks), np.concatenate(dst_blocks)
        )
        rd = combined.oriented_forward()
    else:
        rd = FiniteRelation(frozenset(), index_map.width, index_map.width)
    return StatementLevelSpace(
        program_name=program.name,
        index_map=index_map,
        stmt_labels=stmt_labels,
        stmt_ids=ids_all,
        unified_array=unified_all,
        rd=rd,
    )


def statement_dataflow_schedule(name: str, space: StatementLevelSpace) -> Schedule:
    """Dataflow-partition a statement-level space into a wavefront schedule.

    The wavefronts stay in array form end to end: the partition's CSR rows
    are unified vectors, the statement of each row is recovered with one
    vectorised :meth:`StatementLevelSpace.stmt_ids_of` lookup, and the result
    is a :class:`~repro.core.schedule.UnifiedArrayPhase` schedule — no
    frozenset of unified points, no per-instance
    :class:`~repro.core.schedule.ExecutionUnit` boxing.  Instances run in
    lexicographic order within each wavefront.
    """
    partition = dataflow_partition(space.space_array, space.rd)
    level_offsets, point_rows = partition.level_arrays()
    return Schedule.from_unified_arrays(
        name,
        level_offsets,
        point_rows,
        space.stmt_ids_of(point_rows),
        space.stmt_labels,
        space.stmt_depths,
        scheme="dataflow",
        num_steps=partition.num_steps,
    )
