"""Executing loop programs and schedules over concrete numpy arrays.

* :func:`execute_sequential` — runs the program in original sequential order;
  this is the semantic ground truth.
* :func:`split_phase` — the one way a schedule phase is dealt to workers,
  shared by the ``serial`` and ``process`` backends of
  :mod:`repro.runtime.backends` (and by ``compiled``'s serial fallback for
  custom semantics).  Every phase is (or lowers through ``phase.lower()``
  into) one :class:`~repro.core.schedule.Phase` of flat ``(stmt_ids,
  iters, unit_offsets)`` arrays; its units are shuffled (to emulate an
  arbitrary interleaving: a schedule that is only correct under some lucky
  intra-phase order is exposed) and dealt round-robin, each worker's units
  a sub-phase of their own.  Instances inside a unit keep their order (a
  WHILE chain is sequential by construction).
* :func:`run_instances` — the interpreter loop that runs a (sub-)phase
  instance by instance: ``serial`` runs every phase through it, the
  ``process`` workers and :mod:`repro.runtime.lockstep` only a program or a
  phase the lockstep kernel does not take.

The lockstep executor runs the same phases without the interpreter: it
executes step ``t`` of every unit of a phase at once, as NumPy gathers, the
statement semantics' vectorised twins and scatters — the ``compiled``
backend on whole phases, the ``process`` workers on their sub-phases.

Array stores are dictionaries ``name -> numpy int64 array``; statement
semantics are exact integer functions (see :mod:`repro.ir.semantics`), so
"schedule result == sequential result" is an exact equality check, performed
by :func:`validate_schedule` together with the coverage and dependence
checks, which run on the statement-level space's codec keys
(:meth:`~repro.core.schedule.Schedule.covers` /
:meth:`~repro.core.schedule.Schedule.respects`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.schedule import Phase, Schedule
from ..core.statement import StatementLevelSpace
from ..dependence.analysis import DependenceAnalysis
from ..ir.nodes import Statement
from ..ir.program import LoopProgram
from ..ir.semantics import DEFAULT_SEMANTICS

__all__ = [
    "ArrayStore",
    "make_store",
    "execute_sequential",
    "split_phase",
    "run_instances",
    "validate_schedule",
    "ValidationReport",
]

ArrayStore = Dict[str, np.ndarray]


def make_store(program: LoopProgram, fill: str = "index", seed: int = 0) -> ArrayStore:
    """Allocate the arrays a program touches.

    ``fill='index'`` initialises each array with distinct small integers
    (deterministic), which maximises the chance that an ordering bug changes
    the final contents; ``fill='zeros'`` gives all-zero arrays;
    ``fill='random'`` draws seeded uniform integers in ``[1, 1009)`` —
    deterministic for a given ``seed``, used by the differential harness to
    vary the initial contents across examples (``seed`` is ignored by the
    other fill modes).
    """
    store: ArrayStore = {}
    rng = np.random.default_rng(seed) if fill == "random" else None
    for name, shape in program.array_shapes.items():
        size = int(np.prod(shape))
        if fill == "index":
            data = (np.arange(size, dtype=np.int64) % 1009) + 1
        elif fill == "zeros":
            data = np.zeros(size, dtype=np.int64)
        elif fill == "random":
            data = rng.integers(1, 1009, size=size, dtype=np.int64)
        else:
            raise ValueError(f"unknown fill mode {fill!r}")
        store[name] = data.reshape(shape)
    missing = [a for a in program.arrays() if a not in store]
    if missing:
        raise ValueError(
            f"program {program.name!r} references arrays without declared shapes: {missing}"
        )
    return store


#: A statement resolved against a store once: ``(reads, writes, semantics)``,
#: where ``reads`` and ``writes`` pair each reference's target array with its
#: bound :meth:`~repro.ir.nodes.ArrayRef.evaluate`.
BoundStatement = Tuple[tuple, tuple, object]


def _bind(stmt: Statement, store: ArrayStore) -> BoundStatement:
    """Resolve a statement's target arrays, subscript evaluators and
    semantics against ``store``, once per phase rather than once per instance."""
    return (
        tuple((store[ref.array], ref.evaluate) for ref in stmt.reads),
        tuple((store[ref.array], ref.evaluate) for ref in stmt.writes),
        stmt.semantics or DEFAULT_SEMANTICS,
    )


def _execute_instance_env(
    bound: BoundStatement, env: Mapping[str, int], store: ArrayStore
) -> None:
    """Run one statement instance against a prebuilt environment: gather
    reads, compute, store through writes.

    The single definition of statement dispatch: :func:`execute_sequential`
    and :func:`run_instances` (hence every interpreted run, on any backend)
    run this body (the differential harness pins them bit-identical, which
    only holds while they share it).  Subscripts evaluate on integer rows,
    so no ``Fraction`` is built per instance.
    """
    reads, writes, semantics = bound
    read_values = [int(array[subscript(env)]) for array, subscript in reads]
    value = int(semantics(store, env, read_values))
    for array, subscript in writes:
        array[subscript(env)] = value


def execute_sequential(
    program: LoopProgram,
    params: Mapping[str, int],
    store: Optional[ArrayStore] = None,
) -> ArrayStore:
    """Run the program in its original sequential order; returns the final store."""
    store = store if store is not None else make_store(program)
    table = {
        ctx.statement.label: (ctx.index_names, _bind(ctx.statement, store))
        for ctx in program.statement_contexts()
    }
    for label, iteration in program.sequential_iterations(params):
        names, bound = table[label]
        _execute_instance_env(bound, dict(zip(names, iteration)), store)
    return store


def split_phase(
    phase: Phase, workers: int, rng: Optional[random.Random]
) -> List[Phase]:
    """Shuffle a phase's units and deal them round-robin.

    ``rng.shuffle`` permutes a list of unit indices — the same permutation it
    would apply to a list of the units themselves, so a seed fixes the visit
    order — and worker ``k`` takes units ``k::workers`` (``serial`` is
    ``workers=1``).  Returns each worker's units as a sub-phase
    (:meth:`Phase.take <repro.core.schedule.Phase.take>`: every unit's
    instances contiguous and in order); workers without a unit get none.
    """
    order = list(range(len(phase)))
    if rng is not None:
        rng.shuffle(order)
    return [phase.take(order[k::workers]) for k in range(min(workers, len(order)))]


def run_instances(contexts: Sequence, phase: Phase, store: ArrayStore) -> int:
    """The interpreter loop: execute a phase's instances in order.

    ``contexts`` is ``program.statement_contexts()``.  No locking: the
    instances of one phase are independent by construction, which
    :meth:`Plan.validate() <repro.core.strategy.Plan.validate>` checks
    against the dependence relation.  Returns the instance count.
    """
    table = [(ctx.index_names, _bind(ctx.statement, store)) for ctx in contexts]
    for sid, row in zip(phase.stmt_ids.tolist(), phase.iters.tolist()):
        names, bound = table[sid]
        _execute_instance_env(bound, dict(zip(names, row)), store)
    return phase.work


@dataclass(frozen=True)
class ValidationReport:
    """Result of validating a schedule against the sequential execution."""

    program: str
    schedule: str
    covers_all_instances: bool
    respects_dependences: bool
    arrays_match: bool
    mismatched_arrays: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        # respects_dependences defaults to True when no dependences were
        # supplied, so including it here makes `ok` cover the dependence
        # check exactly when the caller asked for one — a schedule that
        # violates dependences but got lucky on the tested shuffles must
        # not report OK.
        return (
            self.covers_all_instances
            and self.respects_dependences
            and self.arrays_match
        )

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"[{status}] schedule {self.schedule!r} on {self.program!r}: "
            f"coverage={self.covers_all_instances}, deps={self.respects_dependences}, "
            f"arrays={self.arrays_match}"
            + (f" (mismatch in {', '.join(self.mismatched_arrays)})" if self.mismatched_arrays else "")
        )


def validate_schedule(
    program: LoopProgram,
    schedule: Schedule,
    params: Mapping[str, int] | None = None,
    dependences=None,
    seeds: Sequence[int] = (0, 1, 2),
) -> ValidationReport:
    """Check a schedule end to end: coverage, dependence safety, and semantics.

    ``dependences`` (optional) is the program's statement-level space, or a
    relation over a one-statement program's iteration vectors, checked with
    :meth:`~repro.core.schedule.Schedule.respects`.  Coverage is checked
    against the statement-level space (``dependences`` itself when it is
    one, else the program's, built here) with
    :meth:`~repro.core.schedule.Schedule.covers`.  The semantic check runs
    the schedule with several intra-phase shuffle seeds and compares every
    array against the sequential execution, exactly.
    """
    params = dict(params or {})
    space = dependences
    if not isinstance(space, StatementLevelSpace):
        space = DependenceAnalysis(program, params).space
    covers = schedule.covers(space)
    respects = True
    if dependences is not None:
        respects = schedule.respects(dependences)

    from .backends import execute

    reference = execute_sequential(program, params)
    arrays_match = True
    mismatched: List[str] = []
    for seed in seeds:
        result = execute(program, schedule, params, seed=seed).store
        for name in reference:
            if not np.array_equal(reference[name], result[name]):
                arrays_match = False
                if name not in mismatched:
                    mismatched.append(name)
        if not arrays_match:
            break
    return ValidationReport(
        program=program.name,
        schedule=schedule.name,
        covers_all_instances=covers,
        respects_dependences=respects,
        arrays_match=arrays_match,
        mismatched_arrays=tuple(mismatched),
    )
