"""Tests for the ``threaded`` backend: real thread-pool execution."""

import random

import numpy as np
import pytest

import oracle
from repro.core import PlanConfig, plan
from repro.runtime import execute, execute_sequential
from repro.workloads.examples import (
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.synthetic import large_cholesky_nest, large_uniform_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def _threaded(prog, schedule, workers, **kwargs):
    return execute(prog, schedule, {}, backend="threaded", workers=workers, **kwargs)


class TestThreadedExecution:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_matches_sequential(self, n_threads):
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = _threaded(prog, result.schedule, n_threads, seed=None)
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.workers == n_threads
        assert run.instances_executed == result.schedule.total_work
        assert run.phases_executed == result.schedule.num_phases

    def test_other_examples(self):
        for prog in (figure2_loop(20), example2_loop(12)):
            result = plan(prog, config=ALGORITHM1, cache=False)
            ref = execute_sequential(prog, {})
            run = _threaded(prog, result.schedule, 3)
            for name in ref:
                assert np.array_equal(ref[name], run.store[name]), prog.name

    def test_invalid_thread_count(self):
        prog = figure2_loop(10)
        result = plan(prog, config=ALGORITHM1, cache=False)
        with pytest.raises(ValueError):
            _threaded(prog, result.schedule, 0)

    def test_shuffled_distribution_matches_sequential(self):
        """seed/rng shuffle the worker distribution without changing the
        result."""
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        for kwargs in ({"seed": 7}, {"rng": random.Random(123)}):
            run = _threaded(prog, result.schedule, 3, **kwargs)
            assert np.array_equal(ref["a"], run.store["a"]), kwargs
            assert run.instances_executed == result.schedule.total_work

    def test_shuffled_array_phase_matches_sequential(self):
        """ArrayPhase row permutation under seed keeps results exact."""
        from repro.core import ArrayPhase

        prog = large_uniform_loop(12, 9)
        p = plan(prog, config=PlanConfig(strategies=("dataflow",)), cache=False)
        assert any(isinstance(ph, ArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = _threaded(prog, p.schedule, 4, seed=1)
        assert np.array_equal(ref["x"], run.store["x"])

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_locked_execution_matches_sequential(self, n_threads):
        """lock_free=False serializes per-array but must not change results."""
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = _threaded(prog, result.schedule, n_threads, lock_free=False)
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.instances_executed == result.schedule.total_work


def _planned(strategy):
    return lambda prog: plan(
        prog, config=PlanConfig(strategies=(strategy,)), cache=False
    ).schedule


#: One schedule per phase kind the lowering handles: (program, schedule
#: builder, the phase class the schedule must contain).
_PHASE_KINDS = {
    # tuple units on an imperfect nest touching two arrays
    "units": (lambda: example3_loop(10), oracle.unit_schedule, "ParallelPhase"),
    "array": (lambda: large_uniform_loop(10, 8), _planned("dataflow"), "ArrayPhase"),
    # statement level: several arrays per statement, sorted-lock acquisition
    "unified": (
        lambda: large_cholesky_nest(12), _planned("dataflow"), "UnifiedArrayPhase"
    ),
    "symbolic-doall": (
        lambda: large_uniform_loop(10, 8), _planned("symbolic"), "SymbolicDoallPhase"
    ),
    "coset-chains": (
        lambda: large_uniform_loop(10, 8), _planned("symbolic"), "CosetChainPhase"
    ),
}


class TestLockedPhaseKinds:
    @pytest.mark.parametrize("kind", sorted(_PHASE_KINDS))
    def test_locked_phase_kind_matches_sequential(self, kind):
        """lock_free=False runs every phase kind under per-array locks and
        still produces the sequential result."""
        build_prog, build_schedule, phase_class = _PHASE_KINDS[kind]
        prog = build_prog()
        schedule = build_schedule(prog)
        assert phase_class in {type(ph).__name__ for ph in schedule.phases}
        ref = execute_sequential(prog, {})
        run = _threaded(prog, schedule, 3, lock_free=False, seed=2)
        for name in ref:
            assert np.array_equal(ref[name], run.store[name])
        assert run.instances_executed == schedule.total_work


class TestLockStress:
    def test_locks_make_each_read_modify_write_atomic(self):
        """Every instance increments the same element inside one phase — a
        schedule only per-array locks make safe.  More threads than cores
        and a tiny switch interval would expose a lost update."""
        import sys

        from repro.core import ExecutionUnit, ParallelPhase, Schedule
        from repro.ir.builder import aref, assign, loop, program
        from repro.ir.semantics import sum_semantics

        n = 2000
        body = assign("s", aref("x", 0), [aref("x", 0)], semantics=sum_semantics)
        prog = program("counter", loop("I", 1, n, body), array_shapes={"x": (1,)})
        phase = ParallelPhase(
            "racy", tuple(ExecutionUnit.single("s", (i,)) for i in range(1, n + 1))
        )
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = _threaded(prog, Schedule("racy", (phase,)), 8, lock_free=False)
        finally:
            sys.setswitchinterval(old)
        assert run.store["x"][0] == 1 + n  # make_store's index fill starts x at 1
