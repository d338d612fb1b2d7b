"""repro.runtime — executing, simulating and measuring partitioned schedules.

* :mod:`repro.runtime.backends` — the **execution-backend registry**: one
  :func:`~repro.runtime.backends.execute` entry point over the registered
  ``serial`` / ``process`` / ``compiled`` backends, configured by one
  :class:`~repro.runtime.backends.ExecConfig` ``(backend, workers, seed)``
  and all returning a unified :class:`~repro.runtime.backends.RunResult`;
* :mod:`repro.runtime.executor` — sequential reference execution, exact
  semantic validation, the one way a phase is dealt into per-worker
  sub-phases (``serial`` and ``process`` share it) and the interpreter loop;
* :mod:`repro.runtime.lockstep` — the kernel of ``compiled`` and of the
  ``process`` workers: each phase's units stepped at once as NumPy
  gather / vectorised semantics / scatter blocks, lowered once per schedule;
* :mod:`repro.runtime.process` / :mod:`repro.runtime.shm` — the
  shared-memory process pool: arrays in one ``multiprocessing.shared_memory``
  segment, one message per worker per execution, lowered blocks on the
  workers and a pipe barrier among them between phases;
* :mod:`repro.runtime.simulator` — the deterministic SMP cost model behind the
  figure-3 speedup reproductions and the selection table, called directly
  (it is not an execution backend);
* :mod:`repro.runtime.metrics` — speedup tables and scheme comparisons over
  the simulator's curves.
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
]
