"""Tests for repro.runtime.threaded: real thread-pool execution."""

import numpy as np
import pytest

from repro.core import PlanConfig, plan
from repro.runtime.executor import execute_sequential
from repro.runtime.threaded import execute_schedule_threaded
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


class TestThreadedExecution:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_matches_sequential(self, n_threads):
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(prog, result.schedule, {}, n_threads=n_threads)
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.n_threads == n_threads
        assert run.instances_executed == result.schedule.total_work
        assert run.phases_executed == result.schedule.num_phases

    def test_other_examples(self):
        for prog in (figure2_loop(20), example2_loop(12)):
            result = plan(prog, config=ALGORITHM1, cache=False)
            ref = execute_sequential(prog, {})
            run = execute_schedule_threaded(prog, result.schedule, {}, n_threads=3)
            for name in ref:
                assert np.array_equal(ref[name], run.store[name]), prog.name

    def test_invalid_thread_count(self):
        prog = figure2_loop(10)
        result = plan(prog, config=ALGORITHM1, cache=False)
        with pytest.raises(ValueError):
            execute_schedule_threaded(prog, result.schedule, {}, n_threads=0)

    def test_shuffled_distribution_matches_sequential(self):
        """seed/rng (aligned with execute_schedule's signature) shuffle the
        worker distribution without changing the result."""
        import random

        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        for kwargs in ({"seed": 7}, {"rng": random.Random(123)}):
            run = execute_schedule_threaded(
                prog, result.schedule, {}, n_threads=3, **kwargs
            )
            assert np.array_equal(ref["a"], run.store["a"]), kwargs
            assert run.instances_executed == result.schedule.total_work

    def test_shuffled_array_phase_matches_sequential(self):
        """ArrayPhase row permutation under seed keeps results exact."""
        from repro.core import ArrayPhase, PlanConfig, plan
        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(12, 9)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert any(isinstance(ph, ArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(prog, p.schedule, {}, n_threads=4, seed=1)
        assert np.array_equal(ref["x"], run.store["x"])

    @pytest.mark.parametrize("n_threads", [1, 4])
    def test_locked_execution_matches_sequential(self, n_threads):
        """lock_free=False serializes per-array but must not change results."""
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(
            prog, result.schedule, {}, n_threads=n_threads, lock_free=False
        )
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.instances_executed == result.schedule.total_work


class TestLockedPhaseKinds:
    """lock_free=False exercises the per-array-lock worker bodies of all
    three phase kinds: unit phases (above), ArrayPhase and UnifiedArrayPhase."""

    def test_locked_array_phase_matches_sequential(self):
        """The _run_rows lock path: ArrayPhase wavefronts under per-array
        locks still produce the sequential result."""
        from repro.core import ArrayPhase, PlanConfig, plan

        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(10, 8)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert all(isinstance(ph, ArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(
            prog, p.schedule, {}, n_threads=3, lock_free=False, seed=2
        )
        assert np.array_equal(ref["x"], run.store["x"])
        assert run.instances_executed == p.schedule.total_work

    def test_locked_unified_array_phase_matches_sequential(self):
        """The _run_unified_rows lock path: statement-level UnifiedArrayPhase
        wavefronts (multiple arrays per statement, sorted-lock acquisition)
        under per-array locks still produce the sequential result."""
        from repro.core import PlanConfig, UnifiedArrayPhase, plan

        from repro.workloads.synthetic import large_cholesky_nest

        prog = large_cholesky_nest(12)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert all(isinstance(ph, UnifiedArrayPhase) for ph in p.schedule.phases)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(
            prog, p.schedule, {}, n_threads=3, lock_free=False, seed=2
        )
        for name in ref:
            assert np.array_equal(ref[name], run.store[name])
        assert run.instances_executed == p.schedule.total_work

    def test_locked_unit_phase_multi_array(self):
        """The _run_units lock path on an imperfect nest touching two arrays
        (locks acquired in sorted name order, no deadlock)."""
        from repro.workloads.examples import example3_loop

        import oracle

        prog = example3_loop(10)
        schedule = oracle.unit_schedule(prog)
        ref = execute_sequential(prog, {})
        run = execute_schedule_threaded(
            prog, schedule, {}, n_threads=4, lock_free=False, seed=5
        )
        for name in ref:
            assert np.array_equal(ref[name], run.store[name])
