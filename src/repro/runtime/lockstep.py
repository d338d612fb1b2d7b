"""The lockstep executor: a materialised schedule as array operations.

The paper's generated code separates its DOALL nests and WHILE-loop chains
by barriers, so the units of one phase are independent and step ``t`` of
every unit can run at once.  :func:`lower_schedule` turns a schedule into
that form once, vectorised in NumPy with no per-instance Python: each
phase's instances are ordered step-major (step ``t`` of every unit, then
step ``t + 1``), split by statement, and every read and write of each
``(step, statement)`` block becomes one array of flat indices into its
array, next to the block's iteration term (the part of the order-sensitive
semantics that depends on the iteration vector, see
:func:`~repro.ir.semantics.iteration_weights`).  Running a
:class:`LoweredSchedule` is then, per block, gather → the statement
semantics' vectorised twin (:func:`~repro.ir.semantics.vectorized`) →
scatter, into the caller's arrays.

Inside a block every instance belongs to a different unit, so no instance
reads what another one writes (that would be a dependence between two
units of one phase, which :meth:`Schedule.respects
<repro.core.schedule.Schedule.respects>` rules out), and the blocks of one
unit run in its order: the result is the interpreter's, bit for bit.  A
phase of long chains has about one block per instance, and a block costs
more than an interpreted instance, so such a phase (several blocks
averaging fewer than :data:`MIN_BLOCK` instances) runs through the
interpreter instead.

The ``compiled`` backend (:mod:`repro.runtime.backends`) runs every
schedule this way except single-statement ``symbolic`` plans, whose
generated kernel never materialises the plan at all.
:func:`ensure_lowered` caches the lowered form on the schedule
(:attr:`Schedule.lowered <repro.core.schedule.Schedule.lowered>`), keyed on
the program's statements and the store's array shapes, so it is freed with
the plan; each build counts as a miss in
:func:`~repro.codegen.python_source.kernel_cache_stats`.
"""

from __future__ import annotations

import time
import weakref
from itertools import groupby
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.schedule import Phase, Schedule
from ..ir.program import LoopProgram
from ..ir.semantics import iteration_weights, vectorized
from .executor import run_instances

__all__ = ["LoweredSchedule", "lower_schedule", "cached_lowering", "ensure_lowered"]

#: One ``(step, statement)`` block: ``(semantics twin, reads, writes,
#: iteration term)``.  ``writes`` pair an array slot (an index into
#: :attr:`LoweredSchedule.arrays`) with the block's flat indices; ``reads``
#: pair a slot with a ``(k, n)`` index array for each run of consecutive
#: reads of one array, so a statement whose reads share an array gathers
#: them all in one step, read ``j`` in row ``j``.
Block = Tuple[object, tuple, tuple, np.ndarray]

_NO_READS = np.zeros(0, dtype=np.int64)

#: A phase of several blocks that average fewer instances than this runs
#: through the interpreter instead: a block costs about as much NumPy call
#: overhead (some 10 µs) as two interpreted instances, so a phase of long
#: chains — one block per instance — would run at half the interpreter's
#: speed.  A one-block phase stays: the interpreter's per-phase set-up
#: costs about as much as the block.
MIN_BLOCK = 2


class LoweredSchedule:
    """A schedule lowered against one program and one set of array shapes.

    ``arrays`` lists the ``(name, shape)`` the flat indices address and
    ``phases`` holds ``(name, instances, body)`` per phase: its blocks in
    execution order, or, for a phase of many small blocks (:data:`MIN_BLOCK`),
    its :class:`~repro.core.schedule.Phase`, which runs unit by unit through
    :func:`~repro.runtime.executor.run_instances` on the program's
    ``contexts``.  Calling it on a store runs the schedule, filling the
    store's arrays in place, and returns ``[(phase name, instances,
    seconds), ...]`` like the symbolic kernel.
    """

    __slots__ = ("arrays", "phases", "contexts", "program", "__weakref__")

    def __init__(
        self,
        arrays: Tuple[Tuple[str, Tuple[int, ...]], ...],
        phases: Tuple[Tuple[str, int, Union[Tuple[Block, ...], Phase]], ...],
        contexts: Sequence,
    ):
        self.arrays = arrays
        self.phases = phases
        self.contexts = contexts
        #: A weak reference to the last program object it ran with, which
        #: :func:`cached_lowering` compares by identity.
        self.program = None

    def fits(self, store: Mapping[str, np.ndarray]) -> bool:
        """True when ``store`` holds every array in the lowered shape."""
        return all(
            name in store and store[name].shape == shape for name, shape in self.arrays
        )

    def __call__(self, store: Mapping[str, np.ndarray]) -> List[Tuple[str, int, float]]:
        if not self.fits(store):
            raise ValueError(f"store does not hold the lowered arrays {self.arrays}")
        # A flat view of each C-contiguous array; any other layout (Fortran
        # order, a strided view) is flattened into a copy that is written
        # back at the end, since its reshape(-1) would be a copy already.
        flats, copies = [], []
        for name, _shape in self.arrays:
            array = store[name]
            if array.flags.c_contiguous:
                flats.append(array.reshape(-1))
            else:
                flat = np.ascontiguousarray(array).reshape(-1)
                copies.append((array, flat))
                flats.append(flat)
        stats = []
        for name, work, blocks in self.phases:
            t0 = time.perf_counter()
            if isinstance(blocks, Phase):
                views = {a: flat.reshape(shape) for (a, shape), flat in zip(self.arrays, flats)}
                run_instances(self.contexts, blocks.stmt_ids, blocks.iters, views)
                blocks = ()
            for semantics, reads, writes, term in blocks:
                if len(reads) == 1:
                    slot, idx = reads[0]
                    gathered = flats[slot][idx]
                elif reads:
                    gathered = np.concatenate([flats[slot][idx] for slot, idx in reads])
                else:
                    gathered = _NO_READS
                value = semantics(gathered, term)
                for slot, idx in writes:
                    flats[slot][idx] = value
            stats.append((name, work, time.perf_counter() - t0))
        for array, flat in copies:
            array[...] = flat.reshape(array.shape)
        return stats


def _steps(phase: Phase) -> np.ndarray:
    """Each instance's position inside its unit."""
    if phase.unit_offsets is None:
        return np.zeros(phase.work, dtype=np.int64)
    starts = phase.unit_offsets[:-1]
    return np.arange(phase.work, dtype=np.int64) - np.repeat(starts, np.diff(phase.unit_offsets))


def _flat_index(ref, iters: np.ndarray, column: Mapping[str, int], shape) -> np.ndarray:
    """The C-order flat index of ``ref`` at every row of ``iters``.
    Negative subscripts count from the end and others must be in range,
    as when NumPy indexes with the subscript tuple."""
    if len(shape) != len(ref.subscript_rows):
        raise IndexError(f"{ref} has {len(ref.subscript_rows)} subscripts for a {len(shape)}-d array")
    flat = np.zeros(len(iters), dtype=np.int64)
    for (terms, constant, _den), extent in zip(ref.subscript_rows, shape):
        value = np.full(len(iters), constant, dtype=np.int64)
        for name, coeff in terms:
            value += coeff * iters[:, column[name]]
        value = np.where(value < 0, value + extent, value)
        if len(value) and (value.min() < 0 or value.max() >= extent):
            raise IndexError(f"{ref} is out of bounds for an axis of size {extent}")
        flat = flat * extent + value
    return flat


def lower_schedule(
    program: LoopProgram,
    schedule: Schedule,
    shapes: Mapping[str, Tuple[int, ...]],
) -> LoweredSchedule:
    """Lower ``schedule`` for ``program``'s statements and arrays of the
    given ``shapes``.  Every statement must have a vectorised semantics and
    integer subscripts over its loop indices
    (:func:`~repro.codegen.python_source.kernel_reason`)."""
    contexts = program.statement_contexts()
    names = sorted({ref.array for ctx in contexts for ref in ctx.statement.references()})
    slot = {name: k for k, name in enumerate(names)}
    phases = [phase.lower() for phase in schedule.phases]
    works = [p.work for p in phases]
    n = sum(works)
    iters = np.zeros((n, max((p.iters.shape[1] for p in phases), default=0)), dtype=np.int64)
    for lo, p in zip(np.cumsum([0] + works).tolist(), phases):
        iters[lo:lo + p.work, : p.iters.shape[1]] = p.iters
    sids = np.concatenate([p.stmt_ids for p in phases] + [np.zeros(0, np.int64)])
    phase_of = np.repeat(np.arange(len(phases)), works)
    steps = np.concatenate([_steps(p) for p in phases] + [np.zeros(0, np.int64)])

    # Step-major inside each phase, then by statement: one block per run of
    # equal (phase, step, statement).
    order = np.lexsort((sids, steps, phase_of))
    phase_of, steps, sids = phase_of[order], steps[order], sids[order]
    cut = np.flatnonzero(
        (np.diff(phase_of) != 0) | (np.diff(steps) != 0) | (np.diff(sids) != 0)
    ) + 1
    starts = np.concatenate(([0], cut)) if n else cut

    # Every statement's indices and iteration term, for its instances in
    # block order; each block then takes the next slice of them.
    per_statement = []
    for s, ctx in enumerate(contexts):
        rows = iters[order[sids == s]]
        column = {name: k for k, name in enumerate(ctx.index_names)}
        term = np.zeros(len(rows), dtype=np.int64)
        for name, weight in iteration_weights(ctx.index_names):
            term += weight * rows[:, column[name]]

        def index(ref):
            return _flat_index(ref, rows, column, shapes[ref.array])

        reads = tuple(
            (slot[array], np.stack([index(ref) for ref in run]))
            for array, run in groupby(ctx.statement.reads, key=lambda ref: ref.array)
        )
        writes = tuple((slot[ref.array], index(ref)) for ref in ctx.statement.writes)
        per_statement.append((vectorized(ctx.statement.semantics), reads, writes, term))

    blocks: List[List[Block]] = [[] for _ in phases]
    taken = [0] * len(contexts)
    bounds = np.concatenate((starts, [n])).tolist()
    for lo, hi, ph, s in zip(bounds, bounds[1:], phase_of[starts].tolist(), sids[starts].tolist()):
        a = taken[s]
        b = taken[s] = a + hi - lo
        twin, reads, writes, term = per_statement[s]
        blocks[ph].append((
            twin,
            tuple((k, idx[:, a:b]) for k, idx in reads),
            tuple((k, idx[a:b]) for k, idx in writes),
            term[a:b],
        ))
    return LoweredSchedule(
        tuple((name, tuple(shapes[name])) for name in names),
        tuple(
            (phase.name, lowered.work,
             lowered if 1 < len(phase_blocks) and lowered.work < MIN_BLOCK * len(phase_blocks)
             else tuple(phase_blocks))
            for phase, lowered, phase_blocks in zip(schedule.phases, phases, blocks)
        ),
        contexts,
    )


def _lowering_key(contexts: Sequence, store: Mapping[str, np.ndarray]) -> tuple:
    """What a lowered form depends on: each statement's loop indices,
    semantics twin and references, and the shapes of the arrays."""
    statements = tuple(
        (
            ctx.index_names,
            vectorized(ctx.statement.semantics),
            tuple((ref.array, ref.subscript_rows) for ref in ctx.statement.reads),
            tuple((ref.array, ref.subscript_rows) for ref in ctx.statement.writes),
        )
        for ctx in contexts
    )
    arrays = {ref.array for ctx in contexts for ref in ctx.statement.references()}
    return statements, tuple(sorted((name, store[name].shape) for name in arrays))


def cached_lowering(
    program: LoopProgram, schedule: Schedule, store: Mapping[str, np.ndarray]
) -> Optional[LoweredSchedule]:
    """The lowered form ``schedule`` last ran with this very ``program``
    object, when ``store`` still fits it, else ``None``: the hot path of
    repeated runs, which skips rebuilding the lowering key.  A hit counts in
    :func:`~repro.codegen.python_source.kernel_cache_stats`."""
    from ..codegen.python_source import count_kernel_lookup

    for lowered in schedule.lowered.values():
        if lowered.program is not None and lowered.program() is program and lowered.fits(store):
            count_kernel_lookup("hit")
            return lowered
    return None


def ensure_lowered(
    program: LoopProgram, schedule: Schedule, store: Mapping[str, np.ndarray]
) -> Tuple[LoweredSchedule, str]:
    """The lowered form of ``schedule`` for ``program`` and ``store``'s
    array shapes, built at most once per schedule; returns ``(lowered,
    "hit" | "miss")``.  The schedule keeps one lowered form, for the last
    statements and shapes it ran with; a content-equal program (a plan
    server's freshly decoded request, say) hits it too."""
    from ..codegen.python_source import count_kernel_lookup

    key = _lowering_key(program.statement_contexts(), store)
    cache: Dict[object, LoweredSchedule] = schedule.lowered
    lowered = cache.get(key)
    status = "hit"
    if lowered is None:
        lowered = lower_schedule(program, schedule, {name: shape for name, shape in key[1]})
        cache.clear()
        cache[key] = lowered
        status = "miss"
    lowered.program = weakref.ref(program)
    count_kernel_lookup(status)
    return lowered, status
