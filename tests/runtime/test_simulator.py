"""Tests for repro.runtime.simulator: the SMP cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Phase, PlanConfig, Schedule, plan
from repro.runtime.simulator import CostModel, simulate_schedule, speedup_curve
from repro.workloads.examples import figure1_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def uniform_schedule(units, work_per_unit=1, phases=1):
    """``phases`` phases of ``units`` chains, each ``work_per_unit`` long."""
    phase_list = [
        Phase(
            f"p{p}",
            np.zeros(units * work_per_unit, dtype=np.int64),
            [(p, u, k) for u in range(units) for k in range(work_per_unit)],
            np.arange(units + 1) * work_per_unit,
        )
        for p in range(phases)
    ]
    return Schedule.from_phases("uniform", phase_list, ("s",), (3,))


class TestCostModel:
    def test_sequential_time(self):
        cm = CostModel(iteration_cost=2.0)
        assert cm.sequential_time(10) == 20.0

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            simulate_schedule(uniform_schedule(4), 0)


class TestSimulation:
    def test_perfect_scaling_without_overheads(self):
        cm = CostModel(barrier_cost=0, unit_overhead=0, phase_start_overhead=0)
        sched = uniform_schedule(units=8, work_per_unit=10)
        for p in (1, 2, 4, 8):
            res = simulate_schedule(sched, p, cm)
            assert res.parallel_time == pytest.approx(80 / p)
            assert res.speedup == pytest.approx(p)

    def test_speedup_bounded_by_unit_count(self):
        cm = CostModel(barrier_cost=0, unit_overhead=0, phase_start_overhead=0)
        sched = uniform_schedule(units=3, work_per_unit=10)
        res = simulate_schedule(sched, 8, cm)
        assert res.speedup <= 3.0 + 1e-9

    def test_monotone_in_processors(self):
        result = plan(figure1_loop(20, 40), config=ALGORITHM1, cache=False)
        times = [
            simulate_schedule(result.schedule, p).parallel_time for p in (1, 2, 3, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_busy_time_is_work_conserving(self):
        cm = CostModel(unit_overhead=0, instance_cost_factor=1.0, bound_evaluation_cost=0)
        sched = uniform_schedule(units=5, work_per_unit=3, phases=2)
        res = simulate_schedule(sched, 4, cm)
        assert res.busy_time == pytest.approx(sched.total_work * cm.iteration_cost)

    def test_barrier_cost_per_phase(self):
        cm0 = CostModel(barrier_cost=0, unit_overhead=0, phase_start_overhead=0)
        cm5 = CostModel(barrier_cost=5, unit_overhead=0, phase_start_overhead=0)
        sched = uniform_schedule(units=2, work_per_unit=1, phases=3)
        t0 = simulate_schedule(sched, 2, cm0).parallel_time
        t5 = simulate_schedule(sched, 2, cm5).parallel_time
        assert t5 == pytest.approx(t0 + 15)

    def test_instance_cost_factor_superlinear_speedup(self):
        cm = CostModel(
            barrier_cost=0, unit_overhead=0, phase_start_overhead=0, instance_cost_factor=0.5
        )
        sched = uniform_schedule(units=4, work_per_unit=100)
        res = simulate_schedule(sched, 2, cm)
        # 400 sequential vs 0.5*400/2 parallel -> speedup 4 > 2
        assert res.speedup == pytest.approx(4.0)

    def test_sequential_work_override(self):
        sched = uniform_schedule(units=4, work_per_unit=10)
        cm = CostModel(barrier_cost=0, unit_overhead=0, phase_start_overhead=0)
        res = simulate_schedule(sched, 1, cm, sequential_work=80)
        assert res.speedup == pytest.approx(2.0)

    def test_efficiency_and_utilization(self):
        cm = CostModel(barrier_cost=0, unit_overhead=0, phase_start_overhead=0)
        res = simulate_schedule(uniform_schedule(units=4, work_per_unit=10), 4, cm)
        assert res.efficiency == pytest.approx(1.0)
        assert res.utilization == pytest.approx(1.0)

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_speedup_never_exceeds_processors_without_cost_factor(self, p, units, work):
        sched = uniform_schedule(units=units, work_per_unit=work)
        res = simulate_schedule(sched, p)
        assert res.speedup <= p + 1e-9


class TestSpeedupCurve:
    def test_curve_keys(self):
        result = plan(figure1_loop(15, 20), config=ALGORITHM1, cache=False)
        curve = speedup_curve(result.schedule, (1, 2, 4))
        assert set(curve) == {1, 2, 4}
        assert curve[4] >= curve[1]
