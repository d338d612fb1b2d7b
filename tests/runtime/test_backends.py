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
    backend_names,
    backend_table,
    execute,
    execute_sequential,
    get_backend,
    make_store,
    register_backend,
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

EXECUTING_BACKENDS = ("serial", "process", "compiled")

#: (program, PlanConfig) pairs covering chain units (recurrence chains),
#: iteration-level and statement-level wavefronts.
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
        assert backend_names() == ("serial", "process", "compiled")

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

    def test_three_fields(self):
        """Backend, workers and seed are every execution knob; the retired
        ones are rejected, not ignored."""
        from dataclasses import fields

        assert [f.name for f in fields(ExecConfig)] == ["backend", "workers", "seed"]
        for retired in ("lock_free", "mp_context", "cost_model"):
            with pytest.raises(TypeError):
                ExecConfig(**{retired: None})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecConfig(workers=0)
        with pytest.raises(ValueError):
            ExecConfig(backend="")

    @pytest.mark.parametrize("name", ["threaded", "simulated"])
    def test_unregistered_backend_rejected_on_construction(self, name):
        with pytest.raises(ValueError, match="registered: serial, process, compiled"):
            ExecConfig(backend=name)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": "7"}, {"workers": True}, {"workers": 2.0},
            {"seed": [1]}, {"seed": "0"}, {"seed": True},
        ],
        ids=["workers-str", "workers-bool", "workers-float", "seed-list", "seed-str", "seed-bool"],
    )
    def test_integer_fields_are_not_coerced(self, kwargs):
        with pytest.raises(TypeError):
            ExecConfig(**kwargs)

    def test_execution_knobs_are_not_plan_config_fields(self):
        """The plan cache is keyed by PlanConfig, so an execution knob on it
        would split cache entries for identical schedules."""
        for retired in ({"rng_seed": 1}, {"exec_config": ExecConfig()}):
            with pytest.raises(TypeError):
                PlanConfig(**retired)


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
        result = execute(prog, p.schedule, {}, config=cfg, backend="process", workers=2)
        assert result.backend == "process"
        assert result.workers == 2

    def test_override_is_validated(self):
        prog = figure1_loop(4, 4)
        p = plan(prog, cache=False)
        with pytest.raises(ValueError, match="unknown backend 'threaded'"):
            execute(prog, p.schedule, {}, backend="threaded")


def _logging_program(log):
    """A depth-2 single-statement nest whose semantics log each visited
    iteration ``(I, J)`` in execution order."""
    from repro.ir.builder import aref, assign, loop, program

    def record(arrays, env, read_values):
        log.append((env["I"], env["J"]))
        return 0

    body = assign("s", aref("x", "I", "J"), semantics=record)
    return program(
        "visit-log", loop("I", 0, 3, loop("J", 0, 3, body)),
        array_shapes={"x": (4, 4)},
    )


class TestShuffleContract:
    """The serial visit order per seed: each phase runs its units in the
    order ``random.Random(seed).shuffle(list(range(n_units)))`` permutes
    them, the generator drawn phase after phase."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_serial_visits_units_in_shuffled_index_order(self, seed):
        import random

        from repro.core import Phase, Schedule
        from repro.core.symbolic import SymbolicDoallPhase

        chains = [[(i, j) for j in range(4)] for i in range(4)]
        points = [(i, j) for i in range(4) for j in range(4)]
        ids = np.zeros(len(points), dtype=np.int64)
        phases = (
            Phase("units", ids, np.array(points), np.arange(5) * 4),
            Phase("array", ids, np.array(points)),
            SymbolicDoallPhase("boxes", [((0, 3), (0, 3))]),
        )
        rng = random.Random(seed)
        expected = []
        for units in (chains, [[p] for p in points], [[p] for p in points]):
            order = list(range(len(units)))
            rng.shuffle(order)
            expected.extend(pt for k in order for pt in units[k])

        log = []
        prog = _logging_program(log)
        execute(prog, Schedule("contract", phases, ("s",), (2,)), {}, backend="serial", seed=seed)
        assert log == expected


class TestPlanExecuteWiring:
    def test_plan_execute_backend_kwarg(self):
        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        for backend in EXECUTING_BACKENDS:
            result = p.execute(backend=backend, workers=2)
            assert isinstance(result, RunResult)
            assert _stores_equal(ref, result.store), backend

    def test_plan_execute_always_returns_run_result(self):
        """A bare execute() runs ``ExecConfig()`` through the registry: the
        serial backend shuffled by seed 0."""
        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        run = p.execute()
        assert isinstance(run, RunResult)
        assert run.backend == "serial"
        expected = execute(prog, p.schedule, {}, config=ExecConfig()).store
        assert _stores_equal(expected, run.store)

    @pytest.mark.parametrize("retired", [{"lock_free": False}, {"rng": None}])
    def test_plan_execute_rejects_retired_knobs(self, retired):
        p = plan(figure1_loop(6, 6), cache=False)
        with pytest.raises(TypeError):
            p.execute(**retired)


def test_top_level_exports():
    for name in ("ExecConfig", "RunResult", "backend_names", "backend_table"):
        assert name in repro.__all__
        assert hasattr(repro, name)
