"""The execution-backend registry: one entry point for running schedules.

Symmetric to the planning side's :class:`~repro.core.strategy.PartitionStrategy`
registry: where ``plan()`` puts one facade in front of the partitioning
schemes, this module puts one facade in front of the runtime's executors.
Every way of running a schedule is an :class:`ExecutionBackend` in a
registry, takes the same ``(program, schedule, params, store, ExecConfig)``
inputs and returns the same :class:`RunResult` (final store + per-phase
instance/worker/timing counters):

``serial``
    the shuffled single-process reference executor;
``process``
    the ``multiprocessing.shared_memory`` worker pool
    (:mod:`repro.runtime.process`): arrays live in one shared segment,
    each worker receives its sub-phase of every phase in one message, runs
    them on the lockstep kernel and meets the others at a pipe barrier
    between phases — the backend that runs the paper's barriers for real;
``compiled``
    one vectorised NumPy kernel, no per-instance Python: every schedule
    runs through the lockstep executor (:mod:`repro.runtime.lockstep`),
    lowered once into gather / semantics / scatter blocks and cached on the
    schedule — a symbolic plan's phases in closed form from their boxes and
    cosets.  Only a program the kernel cannot run — custom statement
    semantics, or subscripts that are not integer combinations of the loop
    indices — falls back to ``serial``, with the reason recorded in
    ``RunResult.meta``.

``serial`` and ``process`` deal work the same way: each phase is lowered
once into its arrays (``phase.lower()``), its units shuffled and dealt
round-robin (:func:`~repro.runtime.executor.split_phase`), one sub-phase per
worker.  ``serial`` runs its one sub-phase inline through the interpreter
loop (:func:`~repro.runtime.executor.run_instances`), phase by phase; the
shared-memory workers get all their sub-phases up front and run them as
lowered blocks on the lockstep executor, interpreting only what
``compiled`` would interpret too.  ``compiled`` lowers the whole schedule,
symbolic phases in closed form.
:meth:`Plan.execute(backend=...) <repro.core.strategy.Plan.execute>` reaches
the same registry through the planning facade.  Third-party executors (a GPU runner, a no-GIL thread pool)
plug in via :func:`register_backend` without touching any call site.  The
deterministic SMP cost model is not a backend: Figure 3 and the selection
table call :func:`~repro.runtime.simulator.simulate_schedule` directly.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from .executor import ArrayStore, make_store, run_instances, split_phase

__all__ = [
    "ExecConfig",
    "PhaseStats",
    "RunResult",
    "ExecutionBackend",
    "BackendUnavailable",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_table",
    "execute",
]

#: The backend registry (populated at the bottom of this module); declared
#: here so ``ExecConfig.__post_init__`` can validate names against it.
_REGISTRY: "OrderedDict[str, ExecutionBackend]" = OrderedDict()


# ---------------------------------------------------------------------------
# configuration and result objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecConfig:
    """Every knob of schedule execution, in one hashable object.

    The execution twin of :class:`~repro.core.strategy.PlanConfig`, which
    carries only planning knobs:

    ``backend``
        Registry name of the executor: ``"serial"``, ``"process"`` or
        ``"compiled"`` (plus anything registered later).
    ``workers``
        Process count for the ``process`` backend; the others ignore it.
    ``seed``
        Intra-phase shuffle seed (``None`` disables shuffling); one default
        (``0``) for every backend.

    Every field is checked on construction: an unregistered backend is a
    ``ValueError`` naming the registered ones, a non-integer (or bool)
    ``workers`` or ``seed`` a ``TypeError``.
    """

    backend: str = "serial"
    workers: int = 4
    seed: Optional[int] = 0

    def __post_init__(self):
        if self.backend not in _REGISTRY:
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: {', '.join(_REGISTRY)}"
            )
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise TypeError(f"seed must be an int or None, got {self.seed!r}")


@dataclass(frozen=True)
class PhaseStats:
    """Counters for one executed phase: size, distribution and wall-clock."""

    name: str
    instances: int
    units: int
    workers: int
    elapsed_s: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """The unified result of executing a schedule through any backend.

    The final store plus per-phase instance/worker/timing counters, the
    same shape whether the run was serial, multi-process or a compiled
    kernel.
    """

    store: ArrayStore
    backend: str
    workers: int
    phase_stats: Tuple[PhaseStats, ...]
    elapsed_s: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def phases_executed(self) -> int:
        return len(self.phase_stats)

    @property
    def instances_executed(self) -> int:
        return sum(p.instances for p in self.phase_stats)

    def phase_elapsed(self) -> Tuple[float, ...]:
        return tuple(p.elapsed_s for p in self.phase_stats)

    def __repr__(self) -> str:
        return (
            f"RunResult(backend={self.backend!r}, workers={self.workers}, "
            f"phases={self.phases_executed}, instances={self.instances_executed}, "
            f"elapsed={self.elapsed_s:.4f}s)"
        )


class BackendUnavailable(RuntimeError):
    """The selected backend cannot run in this environment (see ``reason``)."""


# ---------------------------------------------------------------------------
# backend protocol and registry
# ---------------------------------------------------------------------------

#: A backend runner: (program, schedule, params, store, config) -> RunResult.
BackendRunner = Callable[
    [LoopProgram, Schedule, Dict[str, int], Optional[ArrayStore], ExecConfig],
    RunResult,
]


def _always_available() -> Optional[str]:
    return None


@dataclass(frozen=True)
class ExecutionBackend:
    """One way of executing schedules, behind the registry.

    ``available()`` returns ``None`` when the backend can run here or a
    human-readable reason when it cannot (surfaced by
    :class:`BackendUnavailable`); ``runner`` does the work and is only called
    after the availability probe passed.
    """

    name: str
    description: str
    runner: BackendRunner
    available: Callable[[], Optional[str]] = _always_available


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add a backend to the registry.  Re-registering a name replaces the
    entry in place (so a plugin can refine a built-in)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names in registration order."""
    return tuple(_REGISTRY)


def backend_table() -> List[Dict[str, str]]:
    """The registry as rows (name / description / availability) for docs."""
    return [
        {
            "name": b.name,
            "description": b.description,
            "available": b.available() or "yes",
        }
        for b in _REGISTRY.values()
    ]


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


def execute(
    program: LoopProgram,
    schedule: Schedule,
    params: Optional[Mapping[str, int]] = None,
    store: Optional[ArrayStore] = None,
    config: Optional[ExecConfig] = None,
    pool=None,
    **overrides,
) -> RunResult:
    """Run ``schedule`` through the configured backend; returns a
    :class:`RunResult`.

    ``config`` carries every knob (``None`` = defaults: serial, shuffle seed
    0); keyword ``overrides`` (``backend=``, ``workers=``, ``seed=``) are
    applied on top via :func:`dataclasses.replace`, so one-off calls don't
    need to build a config — ``execute(prog, sched, backend="process",
    workers=4)``.

    ``pool`` injects a live :class:`~repro.runtime.process.ProcessPool`
    (``backend="process"`` only): the run hands a fresh shared store to the
    already-running workers (:meth:`ProcessPool.run
    <repro.runtime.process.ProcessPool.run>`, one message and one ack per
    worker) instead of forking a pool of its own — the serving daemon's warm
    path (:mod:`repro.serving`).  The pool must have been built for a
    structurally identical program; its worker count wins over
    ``config.workers``.

    Raises :class:`BackendUnavailable` when the backend's probe says it
    cannot run here (e.g. the process backend without ``/dev/shm``).
    """
    cfg = config if config is not None else ExecConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    backend = get_backend(cfg.backend)
    reason = backend.available()
    if reason is not None:
        raise BackendUnavailable(f"backend {cfg.backend!r} unavailable: {reason}")
    if pool is not None:
        if cfg.backend != "process":
            raise ValueError(
                f"an injected pool requires backend='process' "
                f"(got {cfg.backend!r})"
            )
        return backend.runner(
            program, schedule, dict(params or {}), store, cfg, pool=pool
        )
    return backend.runner(program, schedule, dict(params or {}), store, cfg)


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------


def _serial_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
) -> RunResult:
    """The reference executor: one process, phases in order, units shuffled."""
    store = store if store is not None else make_store(program)
    contexts = program.statement_contexts()
    rng = None if config.seed is None else random.Random(config.seed)
    stats = []
    t_run = time.perf_counter()
    for phase in schedule.phases:
        t0 = time.perf_counter()
        subs = split_phase(phase.lower(), 1, rng)
        executed = sum(run_instances(contexts, sub, store) for sub in subs)
        stats.append(
            PhaseStats(phase.name, executed, len(phase), len(subs), time.perf_counter() - t0)
        )
    return RunResult(
        store=store,
        backend="serial",
        workers=1,
        phase_stats=tuple(stats),
        elapsed_s=time.perf_counter() - t_run,
    )


def _process_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    pool=None,
) -> RunResult:
    from .process import ProcessPool

    store = store if store is not None else make_store(program)
    meta = {} if pool is None else {"pool": "injected"}
    t_run = time.perf_counter()
    # An injected pool is the serving daemon's warm path: the caller owns
    # the running workers.  run() fills the caller's store in place, so the
    # mutate-in-place contract matches every other backend.
    with ProcessPool(program, workers=config.workers) if pool is None else nullcontext(pool) as live:
        rows = live.run(schedule, store, config.seed)
    stats = tuple(
        PhaseStats(phase.name, executed, len(phase), tasks, elapsed)
        for phase, (executed, tasks, elapsed) in zip(schedule.phases, rows)
    )
    return RunResult(
        store=store,
        backend="process",
        workers=live.workers,
        phase_stats=stats,
        elapsed_s=time.perf_counter() - t_run,
        meta={"start_method": live.start_method, **meta},
    )


def _process_available() -> Optional[str]:
    try:
        from .process import process_unavailable_reason
    except Exception as exc:  # pragma: no cover - import is stdlib-only
        return f"process backend import failed: {exc}"
    return process_unavailable_reason()


def _compiled_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
) -> RunResult:
    """Run the schedule on the lockstep executor: lowered once, cached on
    the schedule, every phase gather / vectorised semantics / scatter.  A
    program it cannot run — custom statement semantics, or subscripts that
    are not integer combinations of the loop indices — falls back to the
    ``serial`` runner with the reason recorded in ``meta``."""
    from ..codegen.python_source import ensure_symbolic_kernel
    from .lockstep import cached_lowering

    store = store if store is not None else make_store(program)
    kernel, cache_status = cached_lowering(program, schedule, store), "hit"
    if kernel is None:
        kernel, cache_status = ensure_symbolic_kernel(program, schedule, store)
    if kernel is None:  # cache_status is kernel_reason's refusal
        res = _serial_runner(program, schedule, params, store, config)
        return replace(
            res,
            backend="compiled",
            meta={**res.meta, "fallback": "serial", "reason": cache_status},
        )
    t_run = time.perf_counter()
    rows = kernel(store)
    elapsed = time.perf_counter() - t_run
    stats = tuple(
        PhaseStats(name, executed, len(phase), 1, dt)
        for (name, executed, dt), phase in zip(rows, schedule.phases)
    )
    return RunResult(
        store=store,
        backend="compiled",
        workers=1,
        phase_stats=stats,
        elapsed_s=elapsed,
        meta={"kernel": True, "kernel_cache": cache_status},
    )


register_backend(ExecutionBackend(
    name="serial",
    description="single process, phases in order, shuffled intra-phase order",
    runner=_serial_runner,
))
register_backend(ExecutionBackend(
    name="process",
    description="shared-memory process pool (wall-clock speedup on multi-core)",
    runner=_process_runner,
    available=_process_available,
))
register_backend(ExecutionBackend(
    name="compiled",
    description="vectorised NumPy lockstep kernel "
    "(serial fallback for custom semantics)",
    runner=_compiled_runner,
))
