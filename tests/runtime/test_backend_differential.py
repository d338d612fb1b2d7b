"""Property-based differential tests for the execution-backend registry.

The planning side pins its array engine bit-identical to a brute-force
oracle on Hypothesis-generated programs
(``tests/core/test_statement_differential.py``); this module does the same
for the runtime side: **every executing backend of
the registry — serial, process, compiled — must produce a final store
bit-identical to ``execute_sequential``** on the same generated program
stream, over *varied* initial stores (``make_store(fill="random", seed=...)``
— a schedule bug that only corrupts some initial contents still has to be
caught).

The schedules are the oracle's one-unit-per-instance wavefronts
(``tests/oracle.py::unit_schedule``, built from instance lists, never from
the planner) and **every registered strategy's schedule on a draw it
applies to** — so each builder (dataflow, recurrence chains, PDM, PL,
unique sets, DOACROSS, tiling, inner-parallel, symbolic boxes and coset
chains) is pinned bit-identical to the sequential run on every backend.
Every accepting strategy's plan must also pass ``Plan.validate()``, also
on loop trees with symbolic upper bounds (``parametric_programs()``).
Draws come from ``loop_programs()`` (loop trees: sibling loops at any
level, several top-level nests), ``symbolic_programs()`` (where
``symbolic`` and ``recurrence-chains`` apply) or ``lemma1_programs()`` (the
non-uniform single-pair nests where ``recurrence-chains`` builds chains by
Lemma 1).  The
process-backend properties start one pool per example (2 workers, and 3, so
the pipe barrier runs with more than one peer) and run every schedule
through it, on a reduced example budget; further process cases pin the
worker paths the generated programs do not reach: interpreted custom
semantics, the lockstep kernel's long-chain fallback, the pipe barrier
under more workers than cores, and re-lowering when one pool serves stores
of two shapes.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import oracle
from repro.codegen.python_source import kernel_reason
from repro.core.partitioner import PartitioningNotApplicable, dataflow_branch
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanConfig, plan, strategy_names
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.executor import split_phase
from repro.runtime.lockstep import lower_schedule
from repro.runtime.process import ProcessPool, process_unavailable_reason
from repro.workloads.synthetic import large_triangular_loop, large_uniform_loop
from strategies import lemma1_programs, loop_programs, parametric_programs, symbolic_programs

#: Every schedule source: the oracle's units, then each registered strategy.
KINDS = ("units",) + strategy_names()


needs_process = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)


def _custom_semantics(arrays, env, reads):
    """Order-sensitive, with no vectorised twin (module-level, so a
    ``spawn`` worker can unpickle it)."""
    acc = 5
    for v in reads:
        acc = (acc * 37 + int(v)) % 1_000_003
    return (acc + sum((k + 3) * int(env[name]) for k, name in enumerate(sorted(env)))) % 1_000_003


def _schedules(prog):
    """``{kind: schedule}`` for every kind that applies to ``prog``."""
    out = {"units": oracle.unit_schedule(prog)}
    for name in KINDS[1:]:
        try:
            out[name] = plan(
                prog, config=PlanConfig(strategies=(name,)), cache=False
            ).schedule
        except PartitioningNotApplicable:
            continue
    return out


programs = st.one_of(loop_programs(), symbolic_programs(), lemma1_programs())


def _execute(prog, schedule, init, backend, **overrides):
    store = {k: v.copy() for k, v in init.items()}
    return execute(prog, schedule, {}, store=store, backend=backend, **overrides)


def _run(prog, schedule, init, backend, **overrides):
    return _execute(prog, schedule, init, backend, **overrides).store


def _assert_every_schedule_matches(prog, fill_seed, backend, **overrides):
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in init.items()})
    for kind, schedule in _schedules(prog).items():
        result = _execute(prog, schedule, init, backend, seed=fill_seed, **overrides)
        if backend == "compiled":
            assert result.meta.get("kernel") is True, (kind, result.meta)
        out = result.store
        for name in ref:
            assert np.array_equal(ref[name], out[name]), (
                f"{backend} diverged from sequential on {name!r} "
                f"running the {kind} schedule"
            )


class TestBackendDifferential:
    @given(prog=loop_programs(min_statements=2))
    def test_every_accepting_strategy_validates(self, prog):
        """Coverage, the dependence check against the analysis' one space,
        and the sequential result, for every strategy that accepts a loop
        tree of several statements — where sibling nests that reuse an
        index name occur."""
        for name in strategy_names():
            try:
                p = plan(prog, config=PlanConfig(strategies=(name,)), cache=False)
            except PartitioningNotApplicable:
                continue
            report = p.validate(seeds=(0,))
            assert report.ok, f"{name}: {report}"

    @given(drawn=parametric_programs())
    def test_every_accepting_strategy_validates_parametric(self, drawn):
        """The same, for loop trees with symbolic upper bounds, planned and
        validated at a drawn value of the parameter."""
        prog, params = drawn
        for name in strategy_names():
            try:
                p = plan(prog, params, config=PlanConfig(strategies=(name,)), cache=False)
            except PartitioningNotApplicable:
                continue
            report = p.validate(seeds=(0,))
            assert report.ok, f"{name}: {report}"

    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_serial_backend_bit_identical(self, prog, fill_seed):
        _assert_every_schedule_matches(prog, fill_seed, "serial")

    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_compiled_backend_bit_identical(self, prog, fill_seed):
        """Every schedule runs a kernel, never the serial fallback: the
        generated programs use the built-in semantics and integer
        subscripts.  Every schedule runs on the lockstep executor, symbolic
        plans lowered in closed form from their boxes and cosets."""
        _assert_every_schedule_matches(prog, fill_seed, "compiled")

    @needs_process
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical(self, prog, fill_seed):
        with ProcessPool(prog, workers=2) as pool:
            _assert_every_schedule_matches(prog, fill_seed, "process", pool=pool)

    @needs_process
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical_three_workers(self, prog, fill_seed):
        with ProcessPool(prog, workers=3) as pool:
            _assert_every_schedule_matches(prog, fill_seed, "process", pool=pool)

    @needs_process
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=loop_programs(), fill_seed=st.integers(0, 2**16))
    def test_process_workers_interpret_custom_semantics(self, prog, fill_seed):
        """Semantics with no vectorised twin: the kernel refuses the
        program, so the workers interpret their sub-phases."""
        for stmt in prog.statements():
            object.__setattr__(stmt, "semantics", _custom_semantics)
        assert kernel_reason(prog) is not None
        with ProcessPool(prog, workers=2) as pool:
            _assert_every_schedule_matches(prog, fill_seed, "process", pool=pool)

    @given(prog=loop_programs(min_statements=2), fill_seed=st.integers(0, 2**16))
    def test_backends_agree_across_engines(self, prog, fill_seed):
        """The oracle's units and the planned dataflow arrays of the same
        program execute to the same store through the registry."""
        init = make_store(prog, fill="random", seed=fill_seed)
        outs = [
            _run(prog, schedule, init, "serial")
            for schedule in (oracle.unit_schedule(prog), dataflow_branch(prog, {}).schedule)
        ]
        for name in outs[0]:
            assert np.array_equal(outs[0][name], outs[1][name])


@needs_process
class TestProcessWorkerPaths:
    def test_long_chain_phase_takes_the_interpreter_fallback(self):
        """``unique-sets`` on a small triangular loop has a phase of one long
        chain: the worker that gets it lowers it to the interpreter
        fallback, as ``compiled`` does, and the result stays bit-identical."""
        prog = large_triangular_loop(8)
        p = plan(prog, config=PlanConfig(strategies=("unique-sets",)), cache=False)
        shapes = dict(prog.array_shapes)
        subs = [sub for phase in p.schedule.phases for sub in split_phase(phase, 2, None)]
        bodies = [
            lower_schedule(prog, Schedule("sub", (sub,), (), ()), shapes).phases[0][2]
            for sub in subs
        ]
        fallbacks = [isinstance(body, Phase) for body in bodies]
        assert any(fallbacks) and not all(fallbacks)
        init = make_store(prog, fill="random", seed=3)
        ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in init.items()})
        with ProcessPool(prog, workers=2) as pool:
            for seed in (None, 0, 1):
                out = _run(prog, p.schedule, init, "process", seed=seed, pool=pool)
                for name in ref:
                    assert np.array_equal(ref[name], out[name]), (seed, name)

    def test_pipe_barrier_under_more_workers_than_cores(self):
        """Four workers through the 30 wavefronts of a dataflow plan, each
        wavefront reading the last: a worker that left a barrier early
        would read a cell before its write.  Bounded in time, so a barrier
        that never opens fails instead of hanging."""
        prog = large_uniform_loop(30, 30)
        p = plan(prog, config=PlanConfig(strategies=("dataflow",)), cache=False)
        assert p.schedule.num_phases == 30
        init = make_store(prog, fill="random", seed=4)
        ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in init.items()})
        outs = []
        with ProcessPool(prog, workers=4) as pool:
            def serve():
                for seed in range(5):
                    outs.append(_run(prog, p.schedule, init, "process", seed=seed, pool=pool))

            runner = threading.Thread(target=serve, daemon=True)
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive(), "a pipe barrier never opened"
        assert len(outs) == 5
        for out in outs:
            for name in ref:
                assert np.array_equal(ref[name], out[name])

    def test_one_pool_relowers_for_stores_of_another_shape(self):
        """One pool, one schedule and seed, stores of two shapes in
        alternation: the workers' lowered blocks address the arrays by flat
        index, so every change of shape must lower again."""
        prog = large_triangular_loop(6)
        p = plan(prog, cache=False)
        small = make_store(prog, fill="random", seed=1)
        rng = np.random.default_rng(2)
        large = {
            name: rng.integers(1, 1009, size=(a.shape[0] + 3, a.shape[1] + 1), dtype=np.int64)
            for name, a in small.items()
        }
        with ProcessPool(prog, workers=2) as pool:
            for init in (small, large, small, large):
                ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in init.items()})
                out = _run(prog, p.schedule, init, "process", pool=pool)
                for name in ref:
                    assert np.array_equal(ref[name], out[name]), init[name].shape
