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
``threaded``
    a real thread pool with phase barriers — correctness under true
    concurrency, GIL-bound for speed; ``lock_free=False`` adds per-array
    locks for schedules of unvalidated provenance;
``process``
    the ``multiprocessing.shared_memory`` worker pool
    (:mod:`repro.runtime.process`): arrays live in one shared segment,
    workers attach once and receive their slices of each phase, phases end
    in real barriers — the backend that turns partition schedules into
    wall-clock speedups on multi-core hosts;
``simulated``
    the deterministic SMP cost model (no arrays are touched;
    ``RunResult.store`` is ``None`` and the speedup lands in ``meta``);
``compiled``
    the generated-NumPy-kernel runner for symbolic plans
    (:mod:`repro.codegen.python_source`): the whole schedule executes as
    vectorized strided-slice assignments, compiled once and cached on the
    plan fingerprint — schedules without a kernel fall back to ``serial``
    with the reason recorded in ``RunResult.meta``.

``serial``, ``threaded`` and ``process`` differ only in transport: each
phase is lowered once (:func:`~repro.runtime.executor.lower_phase`), its
units shuffled and dealt round-robin
(:func:`~repro.runtime.executor.split_phase`), and every slice runs through
the one interpreter loop (:func:`~repro.runtime.executor.run_instances`) —
inline, on a ``ThreadPoolExecutor``, or in the shared-memory workers.
:meth:`Plan.execute(backend=...) <repro.core.strategy.Plan.execute>` reaches
the same registry through the planning facade.  Third-party executors (a GPU
runner, a free-threaded pool) plug in via :func:`register_backend` without
touching any call site.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from .executor import ArrayStore, lower_phase, make_store, run_instances, split_phase
from .simulator import CostModel, simulate_schedule

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

_MP_CONTEXTS = (None, "fork", "spawn", "forkserver")


# ---------------------------------------------------------------------------
# configuration and result objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecConfig:
    """Every knob of schedule execution, in one hashable object.

    The execution twin of :class:`~repro.core.strategy.PlanConfig` (and
    attachable to it as ``PlanConfig(exec_config=...)``):

    ``backend``
        Registry name of the executor: ``"serial"``, ``"threaded"``,
        ``"process"`` or ``"simulated"`` (plus anything registered later).
    ``workers``
        Thread/process/processor count for the parallel backends; the serial
        backend ignores it.
    ``seed``
        Intra-phase shuffle seed (``None`` disables shuffling); one default
        (``0``) for every backend.
    ``lock_free``
        Threaded backend only: ``False`` adds per-array locks around each
        instance.  The process backend rejects ``False`` (cross-process
        locking would serialise the pool; its schedules are race-free by
        construction).
    ``mp_context``
        Process backend: multiprocessing start method (``None`` = ``fork``
        where available, else ``spawn``).
    ``cost_model``
        Simulated backend: the :class:`~repro.runtime.simulator.CostModel`
        (``None`` = defaults).
    """

    backend: str = "serial"
    workers: int = 4
    seed: Optional[int] = 0
    lock_free: bool = True
    mp_context: Optional[str] = None
    cost_model: Optional[CostModel] = None

    def __post_init__(self):
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty registry name")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed is not None and not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int or None, got {self.seed!r}")
        if self.mp_context not in _MP_CONTEXTS:
            raise ValueError(
                f"unknown mp_context {self.mp_context!r}; use one of {_MP_CONTEXTS}"
            )


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
    same shape whether
    the run was serial, threaded, multi-process or simulated (a simulated
    run's ``store`` is ``None`` — nothing was executed).  Feed it to
    :func:`repro.runtime.metrics.run_metrics` /
    :func:`repro.runtime.metrics.measured_speedups` for reporting.
    """

    store: Optional[ArrayStore]
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

#: A backend runner: (program, schedule, params, store, config, rng) -> RunResult.
BackendRunner = Callable[
    [LoopProgram, Schedule, Dict[str, int], Optional[ArrayStore], ExecConfig, Optional[random.Random]],
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


_REGISTRY: "OrderedDict[str, ExecutionBackend]" = OrderedDict()


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
    rng: Optional[random.Random] = None,
    pool=None,
    **overrides,
) -> RunResult:
    """Run ``schedule`` through the configured backend; returns a
    :class:`RunResult`.

    ``config`` carries every knob (``None`` = defaults: serial, shuffle seed
    0); keyword ``overrides`` (``backend=``, ``workers=``, ``seed=``, ...)
    are applied on top via :func:`dataclasses.replace`, so one-off calls
    don't need to build a config — ``execute(prog, sched, backend="process",
    workers=4)``.  ``rng`` supplies a caller-owned shuffle generator
    (overrides ``seed``).

    ``pool`` injects a live :class:`~repro.runtime.process.ProcessPool`
    (``backend="process"`` only): the run attaches a fresh shared store to
    the already-running workers instead of forking a pool of its own — the
    serving daemon's warm path (:mod:`repro.serving`).  The pool must have
    been built for a structurally identical program; its worker count wins
    over ``config.workers``.

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
            program, schedule, dict(params or {}), store, cfg, rng, pool=pool
        )
    return backend.runner(program, schedule, dict(params or {}), store, cfg, rng)


def _resolve_rng(
    config: ExecConfig, rng: Optional[random.Random]
) -> Optional[random.Random]:
    """The shared seed/rng contract: an explicit ``rng`` wins, else ``seed``
    creates a private generator, and ``seed=None`` disables shuffling."""
    if rng is not None:
        return rng
    if config.seed is not None:
        return random.Random(config.seed)
    return None


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------


def _phase_stats(schedule: Schedule, run_phase) -> Tuple[PhaseStats, ...]:
    """Run the phases in order; ``run_phase(phase) -> (instances, tasks)``
    returns only once every task of the phase finished — the barrier."""
    stats = []
    for phase in schedule.phases:
        t0 = time.perf_counter()
        executed, tasks = run_phase(phase)
        stats.append(
            PhaseStats(phase.name, executed, len(phase), tasks, time.perf_counter() - t0)
        )
    return tuple(stats)


def _run_local(program, schedule, store, rng, workers, map_tasks, locks=None):
    """Phase stats for an in-process transport: ``map_tasks`` is ``map``
    (inline) or a thread pool's ``map``."""
    contexts = program.statement_contexts()
    label_ids = {ctx.statement.label: i for i, ctx in enumerate(contexts)}

    def run_task(task) -> int:
        return run_instances(contexts, task[0], task[1], store, locks)

    def run_phase(phase):
        tasks = split_phase(lower_phase(phase, label_ids), workers, rng)
        return sum(map_tasks(run_task, tasks)), len(tasks)

    return _phase_stats(schedule, run_phase)


def _serial_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """The reference executor: one process, phases in order, units shuffled."""
    store = store if store is not None else make_store(program)
    t_run = time.perf_counter()
    stats = _run_local(program, schedule, store, _resolve_rng(config, rng), 1, map)
    return RunResult(
        store=store,
        backend="serial",
        workers=1,
        phase_stats=stats,
        elapsed_s=time.perf_counter() - t_run,
    )


def _threaded_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """A real thread pool: each phase's units round-robin over the threads,
    a barrier between phases.  With ``lock_free=False`` every instance holds
    the locks of the arrays it touches."""
    store = store if store is not None else make_store(program)
    locks = None
    if not config.lock_free:
        by_array = {name: threading.Lock() for name in store}
        locks = [
            tuple(by_array[a] for a in sorted({r.array for r in ctx.statement.references()}))
            for ctx in program.statement_contexts()
        ]
    t_run = time.perf_counter()
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        stats = _run_local(
            program, schedule, store, _resolve_rng(config, rng), config.workers,
            pool.map, locks,
        )
    return RunResult(
        store=store,
        backend="threaded",
        workers=config.workers,
        phase_stats=stats,
        elapsed_s=time.perf_counter() - t_run,
        meta={"lock_free": config.lock_free},
    )


def _process_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
    pool=None,
) -> RunResult:
    from .process import ProcessPool

    if not config.lock_free:
        raise ValueError(
            "the process backend is lock-free only: partition schedules are "
            "race-free inside a phase; use backend='threaded' for per-array "
            "locking of unvalidated schedules"
        )
    store = store if store is not None else make_store(program)
    rng = _resolve_rng(config, rng)
    meta = {} if pool is None else {"pool": "injected"}
    t_run = time.perf_counter()
    # An injected pool is the serving daemon's warm path: the caller owns
    # the running workers and this run only ships a fresh descriptor table
    # and the phase slices.  detach_store() in the finally destroys the
    # per-run segment even on a worker crash.
    with ProcessPool(
        program, workers=config.workers, mp_context=config.mp_context
    ) if pool is None else nullcontext(pool) as live:
        live.attach_store(store)
        try:
            stats = _phase_stats(schedule, lambda phase: live.run_phase(phase, rng))
            # The shared segment is authoritative; fill the caller's store so
            # the mutate-in-place contract matches every other backend.
            live.copy_out(store)
        finally:
            live.detach_store()
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


def _simulated_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """Wrap the deterministic SMP cost model: nothing is executed, the
    modelled per-phase makespans become the timing counters and the headline
    numbers land in ``meta``."""
    sim = simulate_schedule(
        schedule, processors=config.workers, cost_model=config.cost_model
    )
    stats = tuple(
        PhaseStats(ph.name, ph.work, len(ph), config.workers, float(t))
        for ph, t in zip(schedule.phases, sim.phase_times)
    )
    return RunResult(
        store=None,
        backend="simulated",
        workers=config.workers,
        phase_stats=stats,
        elapsed_s=float(sim.parallel_time),
        meta={
            "simulated": True,
            "speedup": sim.speedup,
            "sequential_time": sim.sequential_time,
            "efficiency": sim.efficiency,
            "utilization": sim.utilization,
        },
    )


def _compiled_runner(
    program: LoopProgram,
    schedule: Schedule,
    params: Dict[str, int],
    store: Optional[ArrayStore],
    config: ExecConfig,
    rng: Optional[random.Random],
) -> RunResult:
    """Run a symbolic plan's generated NumPy kernel (compiled once, cached on
    the plan fingerprint).  Schedules without a kernel — any non-symbolic
    plan, or a statement whose semantics cannot be vectorized — fall back to
    the ``serial`` runner with the reason recorded in ``meta``."""
    from ..codegen.python_source import ensure_symbolic_kernel, symbolic_kernel_reason

    reason = symbolic_kernel_reason(program, schedule)
    if reason is None and not schedule.meta.get("kernel_key"):
        reason = "schedule has no kernel_key (not built by the symbolic strategy)"
    if reason is not None:
        res = _serial_runner(program, schedule, params, store, config, rng)
        return replace(
            res,
            backend="compiled",
            meta={**res.meta, "fallback": "serial", "reason": reason},
        )
    kernel, cache_status = ensure_symbolic_kernel(program, schedule)
    store = store if store is not None else make_store(program)
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
    name="threaded",
    description="thread pool with phase barriers (correctness under the GIL)",
    runner=_threaded_runner,
))
register_backend(ExecutionBackend(
    name="process",
    description="shared-memory process pool (wall-clock speedup on multi-core)",
    runner=_process_runner,
    available=_process_available,
))
register_backend(ExecutionBackend(
    name="simulated",
    description="deterministic SMP cost model (no arrays touched)",
    runner=_simulated_runner,
))
register_backend(ExecutionBackend(
    name="compiled",
    description="generated NumPy kernel for symbolic plans (serial fallback)",
    runner=_compiled_runner,
))
