"""repro.runtime — executing, simulating and measuring partitioned schedules.

* :mod:`repro.runtime.backends` — the **execution-backend registry**: one
  :func:`~repro.runtime.backends.execute` entry point over the registered
  ``serial`` / ``process`` / ``compiled`` backends, configured by one
  :class:`~repro.runtime.backends.ExecConfig` ``(backend, workers, seed)``
  and all returning a unified :class:`~repro.runtime.backends.RunResult`;
* :mod:`repro.runtime.executor` — sequential reference execution, exact
  semantic validation, and the one phase lowering and interpreter loop that
  ``serial`` (inline) and ``process`` (the shared-memory workers) share;
* :mod:`repro.runtime.process` / :mod:`repro.runtime.shm` — the
  shared-memory process pool: arrays in one ``multiprocessing.shared_memory``
  segment, one message per worker per execution, worker-side phase barriers
  — wall-clock speedups on multi-core hosts;
* :mod:`repro.runtime.simulator` — the deterministic SMP cost model behind the
  figure-3 speedup reproductions and the selection table, called directly
  (it is not an execution backend);
* :mod:`repro.runtime.metrics` — parallelism metrics, speedup tables and
  scheme comparisons, plus :func:`~repro.runtime.metrics.run_metrics` /
  :func:`~repro.runtime.metrics.measured_speedups` over RunResults.
"""

from .backends import (
    BackendUnavailable,
    ExecConfig,
    ExecutionBackend,
    PhaseStats,
    RunResult,
    backend_names,
    backend_table,
    execute,
    get_backend,
    register_backend,
)
from .executor import (
    ArrayStore,
    ValidationReport,
    execute_sequential,
    make_store,
    validate_schedule,
)
from .metrics import (
    SpeedupTable,
    compare_schemes,
    crossover_points,
    measured_speedups,
    run_metrics,
    schedule_parallelism,
)
from .simulator import CostModel, SimulationResult, simulate_schedule, speedup_curve

__all__ = [
    "ArrayStore",
    "make_store",
    "execute_sequential",
    "validate_schedule",
    "ValidationReport",
    "execute",
    "ExecConfig",
    "ExecutionBackend",
    "PhaseStats",
    "RunResult",
    "BackendUnavailable",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_table",
    "CostModel",
    "SimulationResult",
    "simulate_schedule",
    "speedup_curve",
    "SpeedupTable",
    "compare_schemes",
    "crossover_points",
    "run_metrics",
    "measured_speedups",
    "schedule_parallelism",
]
