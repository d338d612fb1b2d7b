"""The lockstep executor: a schedule as array operations.

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

A symbolic phase (:mod:`repro.core.symbolic`) lowers in closed form,
without enumerating its points: over a box every reference's flat index is
an affine function ``C + F·p`` of the iteration, so a DOALL box phase is
one block of outer sums of per-axis ``arange``s, and a coset phase, its
chains sorted by descending length, has one block per step ``t``: the
still-active chains' ``flat(start) + t·flat(u)``.  Every other phase is
materialised (``phase.lower()``) and sorted.

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
schedule this way, and each ``process`` worker (:mod:`repro.runtime.process`)
runs its sub-phases this way, one phase at a time
(:meth:`LoweredSchedule.run`) with its barrier in between.  The kernel
lookup of ``compiled``,
:func:`~repro.codegen.python_source.ensure_symbolic_kernel`, caches the
lowered form on the schedule (:attr:`Schedule.lowered
<repro.core.schedule.Schedule.lowered>`), keyed on :func:`lowering_key`, so
it is freed with the plan; each build counts as a miss in
:func:`~repro.codegen.python_source.kernel_cache_stats`.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import groupby, product
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.schedule import Phase, Schedule
from ..core.symbolic import CosetChainPhase, SymbolicDoallPhase
from ..ir.program import LoopProgram
from ..ir.semantics import iteration_weights, vectorized
from .executor import run_instances

__all__ = ["LoweredSchedule", "lower_schedule", "lowering_key", "cached_lowering"]

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
    seconds), ...]``, the rows the ``compiled`` backend turns into
    :class:`~repro.runtime.backends.PhaseStats`; :meth:`run` yields the
    same rows one phase at a time, which is how a ``process`` worker puts
    its barrier between phases.
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
        return list(self.run(store))

    def run(self, store: Mapping[str, np.ndarray]) -> Iterator[Tuple[str, int, float]]:
        """Run the schedule one phase at a time: yields ``(phase name,
        instances, seconds)`` as each phase ends, so a caller can wait at a
        barrier before asking for the next; the store is complete once the
        iterator is exhausted."""
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
        for name, work, blocks in self.phases:
            t0 = time.perf_counter()
            if isinstance(blocks, Phase):
                views = {a: flat.reshape(shape) for (a, shape), flat in zip(self.arrays, flats)}
                run_instances(self.contexts, blocks, views)
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
            yield name, work, time.perf_counter() - t0
        for array, flat in copies:
            array[...] = flat.reshape(array.shape)


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
    _check_rank(ref, shape)
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


def _check_rank(ref, shape) -> None:
    if len(shape) != len(ref.subscript_rows):
        raise IndexError(f"{ref} has {len(ref.subscript_rows)} subscripts for a {len(shape)}-d array")


def _affine_flat(ref, axis: Mapping[str, int], shape, corners: np.ndarray):
    """``(constant, coeffs)`` such that ``constant + coeffs · p`` is the
    C-order flat index of ``ref`` at every point ``p`` of a set whose
    affine functions take their extremes at the rows of ``corners``; or
    ``None`` when a subscript is negative on part of the set only (NumPy
    counts a negative subscript from the end, which is not affine across
    zero).  Out-of-range subscripts raise as in :func:`_flat_index`."""
    _check_rank(ref, shape)
    constant, coeffs = 0, np.zeros(len(axis), dtype=np.int64)
    for (terms, offset, _den), extent in zip(ref.subscript_rows, shape):
        row = np.zeros(len(axis), dtype=np.int64)
        for name, coeff in terms:
            row[axis[name]] += coeff
        values = corners @ row + offset
        lo, hi = int(values.min()), int(values.max())
        if lo < -extent or hi >= extent:
            raise IndexError(f"{ref} is out of bounds for an axis of size {extent}")
        if lo < 0 <= hi:
            return None
        constant = constant * extent + offset + (extent if hi < 0 else 0)
        coeffs = coeffs * extent + row
    return constant, coeffs


def _box_values(box, constant: int, coeffs: np.ndarray) -> np.ndarray:
    """``constant + coeffs · p`` at every point ``p`` of ``box``, in
    lexicographic order: an outer sum of one ``arange`` per axis."""
    out = np.int64(constant)
    for c, (lo, hi) in zip(coeffs.tolist(), box):
        out = np.add.outer(out, c * np.arange(lo, hi + 1, dtype=np.int64))
    return out.reshape(-1)


def _statement_arrays(ctx, index, term, slot) -> tuple:
    """``(twin, reads, writes, term)`` of one statement over its instances in
    block order, ``index(ref)`` giving a reference's flat indices: consecutive
    reads of one array stacked into one ``(k, n)`` array."""
    reads = []
    for array, run in groupby(ctx.statement.reads, key=lambda ref: ref.array):
        rows = [index(ref) for ref in run]
        reads.append((slot[array], rows[0][None] if len(rows) == 1 else np.stack(rows)))
    writes = tuple((slot[ref.array], index(ref)) for ref in ctx.statement.writes)
    return vectorized(ctx.statement.semantics), tuple(reads), writes, term


def _block(arrays, a: int, b: int) -> Block:
    """The block of instances ``a:b`` of one statement's arrays."""
    twin, reads, writes, term = arrays
    return (
        twin,
        tuple((k, idx[:, a:b]) for k, idx in reads),
        tuple((k, idx[a:b]) for k, idx in writes),
        term[a:b],
    )


def _symbolic_body(phase, ctx, shapes, slot):
    """The blocks of a symbolic phase in closed form, from its boxes or its
    cosets; ``None`` when a subscript wraps on part of the phase, which then
    takes the generic path.

    A DOALL phase is one block, each index an outer sum over its boxes.  A
    coset phase sorts its chains by descending length, so the chains still
    active at step ``t`` are a prefix; block ``t`` holds ``start + t·u`` for
    that prefix, and every index is ``flat(start) + t·flat(u)``."""
    if not phase.work:
        return ()
    if 1 < phase.span and phase.work < MIN_BLOCK * phase.span:
        return phase.lower()
    if isinstance(phase, SymbolicDoallPhase):
        regions = [
            (np.array(list(product(*box)), dtype=np.int64), partial(_box_values, box))
            for box in phase.boxes
        ]
        cuts = [0, phase.work]
    else:
        starts, lens = phase.chains()
        order = np.argsort(-lens, kind="stable")
        starts, lens = starts[order], lens[order]
        active = np.searchsorted(-lens, -np.arange(lens[0]))  # chains still running at each step
        cuts = np.concatenate(([0], np.cumsum(active))).tolist()
        u = np.asarray(phase.step, dtype=np.int64)

        def coset_values(constant, coeffs):
            base, stride = constant + starts @ coeffs, int(coeffs @ u)
            out = np.empty(phase.work, dtype=np.int64)
            for t, (a, b) in enumerate(zip(cuts, cuts[1:])):
                np.add(base[: b - a], t * stride, out=out[a:b])
            return out

        ends = starts + (lens - 1)[:, None] * u
        regions = [(np.concatenate((starts, ends)), coset_values)]

    axis = {name: k for k, name in enumerate(ctx.index_names)}
    forms = {
        ref: [_affine_flat(ref, axis, shapes[ref.array], corners) for corners, _ in regions]
        for ref in ctx.statement.references()
    }
    if any(form is None for per_region in forms.values() for form in per_region):
        return None

    def values(per_region):
        parts = [evaluate(*form) for form, (_, evaluate) in zip(per_region, regions)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    weights = np.zeros(len(axis), dtype=np.int64)
    for name, weight in iteration_weights(ctx.index_names):
        weights[axis[name]] = weight
    arrays = _statement_arrays(
        ctx, lambda ref: values(forms[ref]), values([(0, weights)] * len(regions)), slot
    )
    return tuple(_block(arrays, a, b) for a, b in zip(cuts, cuts[1:]))


def _generic_bodies(contexts, phases, shapes, slot) -> list:
    """The bodies of materialised phases, lowered together: every instance
    sorted step-major inside its phase, then by statement, one block per run
    of equal ``(phase, step, statement)``."""
    phases = [phase.lower() for phase in phases]
    works = [p.work for p in phases]
    n = sum(works)
    iters = np.zeros((n, max((p.iters.shape[1] for p in phases), default=0)), dtype=np.int64)
    for lo, p in zip(np.cumsum([0] + works).tolist(), phases):
        iters[lo:lo + p.work, : p.iters.shape[1]] = p.iters
    sids = np.concatenate([p.stmt_ids for p in phases] + [np.zeros(0, np.int64)])
    phase_of = np.repeat(np.arange(len(phases)), works)
    steps = np.concatenate([_steps(p) for p in phases] + [np.zeros(0, np.int64)])

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
        per_statement.append(_statement_arrays(
            ctx, lambda ref: _flat_index(ref, rows, column, shapes[ref.array]), term, slot
        ))

    blocks: List[List[Block]] = [[] for _ in phases]
    taken = [0] * len(contexts)
    bounds = np.concatenate((starts, [n])).tolist()
    for lo, hi, ph, s in zip(bounds, bounds[1:], phase_of[starts].tolist(), sids[starts].tolist()):
        a = taken[s]
        b = taken[s] = a + hi - lo
        blocks[ph].append(_block(per_statement[s], a, b))
    return [
        lowered if 1 < len(phase_blocks) and lowered.work < MIN_BLOCK * len(phase_blocks)
        else tuple(phase_blocks)
        for lowered, phase_blocks in zip(phases, blocks)
    ]


def lower_schedule(
    program: LoopProgram,
    schedule: Schedule,
    shapes: Mapping[str, Tuple[int, ...]],
) -> LoweredSchedule:
    """Lower ``schedule`` for ``program``'s statements and arrays of the
    given ``shapes``.  Every statement must have a vectorised semantics and
    integer subscripts over its loop indices
    (:func:`~repro.codegen.python_source.kernel_reason`).  Symbolic phases
    lower in closed form from their boxes and cosets (they hold instances of
    the program's one statement); every other phase is materialised."""
    contexts = program.statement_contexts()
    names = sorted({ref.array for ctx in contexts for ref in ctx.statement.references()})
    slot = {name: k for k, name in enumerate(names)}
    bodies = [
        _symbolic_body(phase, contexts[0], shapes, slot)
        if isinstance(phase, (SymbolicDoallPhase, CosetChainPhase)) else None
        for phase in schedule.phases
    ]
    generic = [k for k, body in enumerate(bodies) if body is None]
    if generic:
        lowered = _generic_bodies(contexts, [schedule.phases[k] for k in generic], shapes, slot)
        for k, body in zip(generic, lowered):
            bodies[k] = body
    return LoweredSchedule(
        tuple((name, tuple(shapes[name])) for name in names),
        tuple((phase.name, phase.work, body) for phase, body in zip(schedule.phases, bodies)),
        contexts,
    )


def lowering_key(contexts: Sequence, store: Mapping[str, np.ndarray]) -> tuple:
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
