"""repro — a reproduction of "Non-Uniform Dependences Partitioned by Recurrence
Chains" (Yijun Yu & Erik H. D'Hollander, ICPP 2004).

The package parallelizes loop nests whose coupled affine array subscripts
produce *non-uniform* dependence distances.  The central idea (recurrence
chain partitioning) splits the iteration space into an initial fully parallel
set, an intermediate set of disjoint monotonic recurrence chains executed as
WHILE loops, and a final fully parallel set — exposing outermost DOALL
parallelism that uniformization-based schemes (PDM, direction vectors) and
DOACROSS-style schemes cannot reach.

Sub-packages
============

================  ============================================================
``repro.isl``     exact integer sets, relations, Fourier–Motzkin, diophantine
                  solving (the Omega-library substitute)
``repro.ir``      the loop-nest IR (affine bounds, affine references)
``repro.dependence``  exact and conservative dependence analysis
``repro.core``    the paper's contribution: three-set partitioning, recurrence
                  chains, dataflow partitioning, Algorithm 1, Theorem 1 — and
                  the unified planning facade (``plan``/``PlanConfig``/``Plan``)
``repro.codegen`` the ``compiled`` backend's kernel lookup
``repro.runtime`` executors, SMP cost-model simulator, validation, metrics
``repro.baselines``  PDM, PL, unique sets, DOACROSS, tiling, inner-DOALL
``repro.workloads``  the paper's example loops and synthetic corpora
``repro.analysis``   program features, statistics, experiment harness, reporting
``repro.serving``    the memory-resident plan server (warm caches, persistent
                  worker pools, admission batching)
================  ============================================================

Quick start
===========

Everything goes through one entry point: :func:`repro.plan` selects the best
applicable partitioning strategy (Algorithm 1's recurrence-chain and dataflow
branches, falling back to the six baseline schemes), and returns an
executable :class:`~repro.core.strategy.Plan`:

>>> import repro
>>> prog = repro.workloads.figure1_loop(10, 10)
>>> p = repro.plan(prog)
>>> p.strategy
'recurrence-chains'
>>> p.schedule.num_phases
3
>>> p.validate().ok
True

Re-planning the same loop nest hits the LRU plan cache and returns the
identical object (the serving scenario — no re-analysis):

>>> repro.plan(repro.workloads.figure1_loop(10, 10)) is p
True

Strategy selection has one policy: ``plan()`` reduces the nest to a
:class:`~repro.analysis.features.ProgramFeatures` record, looks its feature
bucket up in the corpus-calibrated win table and probes the bucket's
calibrated strategies first; the rest of the registry follows in Algorithm
1's chain order, which is all an uncalibrated bucket gets.
``Plan.explain()`` shows the features and the calibrated scores:

>>> print(p.explain())  # doctest: +ELLIPSIS
plan for 'figure1' (params {}):
  selection: calibrated workload table
  features: depth=2 statements=1 (perfect, rect), 100 points, 18 dependences...
  bucket: perfect|1cp|coupled|nonuniform|rect|d2|dep
  - score recurrence-chains 1.00: calibrated: 1.00x the bucket's best simulated time
  - score dataflow 0.99: calibrated: 1.01x the bucket's best simulated time
...

:class:`~repro.core.strategy.PlanConfig` holds the planning knob — the
pinned strategy order; execution knobs (backend, workers, shuffle seed) are
:class:`~repro.runtime.backends.ExecConfig`'s and go to ``Plan.execute``:

>>> forced = repro.plan(prog, config=repro.PlanConfig(strategies=("pdm",)))
>>> forced.scheme
'pdm'
>>> imperfect = repro.plan(repro.workloads.example3_loop(8))
>>> imperfect.strategy
'dataflow'
>>> imperfect.selection.source  # an uncalibrated bucket walks the registry chain
'bucket not calibrated; registry order'

Execution mirrors planning: every executor is a registered backend behind
one entry point.  ``p.execute(backend="process", workers=2)`` runs the
schedule on a **shared-memory process pool** — the program's arrays live in
one ``multiprocessing.shared_memory`` segment, each worker receives its
sub-phase of every phase in one message and runs them as lowered blocks on
the lockstep kernel, the workers meet at a pipe barrier between phases, and
the result is the unified
:class:`~repro.runtime.backends.RunResult` with per-phase counters.  Every
backend declares an availability probe (``None`` means usable); the rare
host without POSIX shared memory falls back to the serial backend here:

>>> pool = "process" if repro.runtime.get_backend("process").available() is None else "serial"
>>> run = p.execute(backend=pool, workers=2)
>>> run.instances_executed
100
>>> serial = p.execute(backend="serial")
>>> all((run.store[a] == serial.store[a]).all() for a in run.store)
True

The registered backends (``repro.runtime.backend_names()``):

>>> repro.runtime.backend_names()
('serial', 'process', 'compiled')

For many requests, don't loop over one-shot calls — stand up the
memory-resident :class:`~repro.serving.PlanServer`.  It shares one
thread-safe plan cache across all client threads and, on the ``process``
backend, keeps the forked worker pool alive between requests (each request
re-ships only a tiny shared-memory descriptor table).  Repeat requests
report the warm paths they rode:

>>> with repro.serving.PlanServer() as server:
...     cold = server.request(prog)
...     warm = server.request(prog)
>>> (cold.plan_cache_hit, warm.plan_cache_hit)
(False, True)
>>> all((warm.result.store[a] == serial.store[a]).all() for a in warm.result.store)
True
"""

from . import (
    analysis,
    baselines,
    codegen,
    core,
    dependence,
    ir,
    isl,
    runtime,
    serving,
    workloads,
)
from .core.strategy import (
    PartitionStrategy,
    Plan,
    PlanCache,
    PlanConfig,
    SelectionReport,
    default_plan_cache,
    plan,
    strategy_names,
    strategy_table,
)
from .runtime.backends import (
    ExecConfig,
    ExecutionBackend,
    RunResult,
    backend_names,
    backend_table,
)

__version__ = "1.2.0"

__all__ = [
    "analysis",
    "baselines",
    "core",
    "codegen",
    "dependence",
    "ir",
    "isl",
    "runtime",
    "serving",
    "workloads",
    "plan",
    "Plan",
    "PlanConfig",
    "PlanCache",
    "PartitionStrategy",
    "SelectionReport",
    "default_plan_cache",
    "strategy_names",
    "strategy_table",
    "ExecConfig",
    "ExecutionBackend",
    "RunResult",
    "backend_names",
    "backend_table",
    "__version__",
]
