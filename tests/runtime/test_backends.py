"""Tests for repro.runtime.backends: the execution-backend registry.

The registry's contract: every registered backend takes the same inputs,
returns the same :class:`RunResult` shape, and (for the executing backends)
produces a final store bit-identical to the sequential reference on every
example workload — the execution twin of the planning facade's
``plan() ≡ old dispatch`` pinning in ``tests/core/test_strategy.py``.
"""

import numpy as np
import pytest

import repro
from repro.core.strategy import PlanConfig, plan
from repro.runtime import (
    BackendUnavailable,
    ExecConfig,
    ExecutionBackend,
    RunResult,
    ThreadedRun,
    backend_names,
    backend_table,
    execute,
    execute_schedule,
    execute_schedule_threaded,
    execute_sequential,
    get_backend,
    make_store,
    measured_speedups,
    register_backend,
    run_metrics,
)
from repro.workloads.examples import (
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.synthetic import large_cholesky_nest, large_uniform_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))

EXECUTING_BACKENDS = ("serial", "threaded", "process")

#: (program, PlanConfig) pairs covering unit phases (recurrence chains),
#: ArrayPhase wavefronts and statement-level UnifiedArrayPhase wavefronts.
WORKLOADS = [
    (figure1_loop(10, 12), None),
    (figure2_loop(16), None),
    (example2_loop(10), None),
    (example3_loop(8), None),
    (large_uniform_loop(12, 9), PlanConfig(strategies=("dataflow",))),
    (large_cholesky_nest(14), PlanConfig(strategies=("dataflow",))),
]


def _stores_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == (
            "serial", "threaded", "process", "simulated", "compiled"
        )

    def test_get_backend_unknown_name(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("gpu")

    def test_backend_table_rows(self):
        rows = backend_table()
        assert [r["name"] for r in rows] == list(backend_names())
        assert all(r["description"] for r in rows)

    def test_register_backend_replaces_in_place(self):
        original = get_backend("serial")
        try:
            replacement = ExecutionBackend(
                name="serial", description="stub", runner=original.runner
            )
            register_backend(replacement)
            assert get_backend("serial") is replacement
            assert backend_names()[0] == "serial"  # order preserved
        finally:
            register_backend(original)

    def test_unavailable_backend_raises(self):
        probe = ExecutionBackend(
            name="always-broken",
            description="test stub",
            runner=get_backend("serial").runner,
            available=lambda: "not on this machine",
        )
        register_backend(probe)
        try:
            prog = figure1_loop(4, 4)
            result = plan(prog, config=ALGORITHM1, cache=False)
            with pytest.raises(BackendUnavailable, match="not on this machine"):
                execute(prog, result.schedule, {}, backend="always-broken")
        finally:
            from repro.runtime import backends as backends_module

            del backends_module._REGISTRY["always-broken"]


class TestExecConfig:
    def test_defaults(self):
        cfg = ExecConfig()
        assert cfg.backend == "serial"
        assert cfg.workers == 4
        assert cfg.seed == 0
        assert cfg.lock_free

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecConfig(workers=0)
        with pytest.raises(ValueError):
            ExecConfig(mp_context="greenlet")
        with pytest.raises(ValueError):
            ExecConfig(backend="")

    def test_hashable_for_plan_config(self):
        """ExecConfig rides inside PlanConfig, which keys the plan cache."""
        a = PlanConfig(exec_config=ExecConfig(backend="process", workers=2))
        b = PlanConfig(exec_config=ExecConfig(backend="process", workers=2))
        assert a == b and hash(a) == hash(b)
        with pytest.raises(TypeError):
            PlanConfig(exec_config="process")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
    def test_bit_identical_to_sequential_on_every_workload(self, backend):
        for prog, config in WORKLOADS:
            p = plan(prog, config=config, cache=False)
            ref = execute_sequential(prog, {})
            result = execute(prog, p.schedule, {}, backend=backend, workers=2)
            assert isinstance(result, RunResult)
            assert _stores_equal(ref, result.store), (prog.name, backend)
            assert result.backend == backend
            assert result.instances_executed == p.schedule.total_work
            assert result.phases_executed == p.schedule.num_phases

    @pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
    def test_shuffle_seeds_do_not_change_results(self, backend):
        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        for seed in (None, 0, 7):
            result = execute(
                prog, p.schedule, {}, backend=backend, workers=2, seed=seed
            )
            assert _stores_equal(ref, result.store), (backend, seed)

    def test_caller_store_is_mutated_in_place(self):
        """Every backend fills the store the caller passed (the historical
        contract), including the process backend's shared-memory copy-out."""
        prog = figure2_loop(12)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        for backend in EXECUTING_BACKENDS:
            store = make_store(prog)
            result = execute(prog, p.schedule, {}, store=store, backend=backend, workers=2)
            assert result.store is store
            assert _stores_equal(ref, store), backend

    def test_phase_stats_shape(self):
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        result = execute(prog, p.schedule, {}, backend="serial")
        assert len(result.phase_stats) == p.schedule.num_phases
        for stat, phase in zip(result.phase_stats, p.schedule.phases):
            assert stat.name == phase.name
            assert stat.instances == phase.work
            assert stat.units == len(phase)
            assert stat.workers == 1
            assert stat.elapsed_s >= 0.0
        assert result.elapsed_s >= sum(result.phase_elapsed()) - 1e-9

    def test_config_and_overrides_compose(self):
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        cfg = ExecConfig(backend="serial", seed=3)
        result = execute(prog, p.schedule, {}, config=cfg, backend="threaded", workers=2)
        assert result.backend == "threaded"
        assert result.workers == 2


class TestSimulatedBackend:
    def test_wraps_cost_model(self):
        from repro.runtime import CostModel, simulate_schedule

        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        result = execute(prog, p.schedule, {}, backend="simulated", workers=4)
        assert result.store is None  # nothing executed
        assert result.meta["simulated"] is True
        sim = simulate_schedule(p.schedule, processors=4)
        assert result.meta["speedup"] == pytest.approx(sim.speedup)
        assert result.elapsed_s == pytest.approx(sim.parallel_time)
        assert result.phase_elapsed() == pytest.approx(sim.phase_times)

    def test_custom_cost_model_via_config(self):
        from repro.runtime import CostModel, simulate_schedule

        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        cm = CostModel(barrier_cost=50.0)
        result = execute(
            prog, p.schedule, {},
            config=ExecConfig(backend="simulated", workers=2, cost_model=cm),
        )
        assert result.elapsed_s == pytest.approx(
            simulate_schedule(p.schedule, processors=2, cost_model=cm).parallel_time
        )


class TestShims:
    """The historical entry points keep working over the registry."""

    def test_execute_schedule_shim_matches_serial_backend(self):
        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        via_shim = execute_schedule(prog, p.schedule, {}, seed=5)
        via_registry = execute(prog, p.schedule, {}, backend="serial", seed=5)
        assert isinstance(via_shim, dict)
        assert _stores_equal(via_shim, via_registry.store)

    def test_execute_schedule_threaded_shim_returns_threadedrun(self):
        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        run = execute_schedule_threaded(prog, p.schedule, {}, n_threads=3)
        assert isinstance(run, ThreadedRun)
        assert run.n_threads == 3
        assert run.phases_executed == p.schedule.num_phases
        assert run.instances_executed == p.schedule.total_work
        assert _stores_equal(execute_sequential(prog, {}), run.store)


class TestPlanExecuteWiring:
    def test_plan_execute_backend_kwarg(self):
        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        for backend in EXECUTING_BACKENDS:
            result = p.execute(backend=backend, workers=2)
            assert isinstance(result, RunResult)
            assert _stores_equal(ref, result.store), backend

    def test_plan_config_exec_config_default(self):
        """PlanConfig(exec_config=...) makes a bare execute() take the
        registry path with those defaults."""
        prog = figure1_loop(10, 10)
        p = plan(
            prog,
            config=PlanConfig(exec_config=ExecConfig(backend="threaded", workers=2)),
            cache=False,
        )
        result = p.execute()
        assert isinstance(result, RunResult)
        assert result.backend == "threaded"
        assert result.workers == 2
        assert _stores_equal(execute_sequential(prog, {}), result.store)
        # per-call override still wins
        assert p.execute(backend="serial").backend == "serial"

    def test_plan_execute_legacy_paths_unchanged(self):
        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        store = p.execute()
        assert isinstance(store, dict)
        run = p.execute(threads=2)
        assert isinstance(run, ThreadedRun)

    def test_process_backend_rejects_locking(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        with pytest.raises(ValueError, match="lock-free"):
            p.execute(backend="process", workers=2, lock_free=False)


class TestRunMetrics:
    def test_run_metrics_counters(self):
        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        result = execute(prog, p.schedule, {}, backend="serial")
        m = run_metrics(result)
        assert m["backend"] == "serial"
        assert m["instances"] == p.schedule.total_work
        assert m["phases"] == p.schedule.num_phases
        assert m["elapsed_s"] >= m["phase_time_s"] - 1e-9
        assert m["instances_per_s"] > 0

    def test_measured_speedups_baseline(self):
        prog = figure1_loop(10, 12)
        p = plan(prog, cache=False)
        serial = execute(prog, p.schedule, {}, backend="serial")
        threaded = execute(prog, p.schedule, {}, backend="threaded", workers=2)
        table = measured_speedups({"serial": serial, "threaded@2": threaded})
        assert table["serial"] == pytest.approx(1.0)
        assert table["threaded@2"] == pytest.approx(
            serial.elapsed_s / threaded.elapsed_s
        )


def test_top_level_exports():
    for name in ("ExecConfig", "RunResult", "backend_names", "backend_table"):
        assert name in repro.__all__
        assert hasattr(repro, name)
