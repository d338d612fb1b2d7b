"""A deterministic SMP cost-model simulator for partitioned schedules.

The paper's figure 3 measures speedups on a 4-CPU Itanium SMP with the Intel
OpenMP backend.  We do not have that machine; what we *can* reproduce is the
shape of the speedup curves, which is governed by quantities the schedule and
a small overhead model expose:

* the work of each phase and the length of its longest unit (critical path),
* how evenly the phase's units pack onto ``p`` processors (load imbalance),
* a barrier cost per phase boundary,
* a per-unit scheduling/loop-bound-evaluation overhead (the paper attributes
  REC's super-linear single-thread speedups to *simplified subscript
  calculation* inside the WHILE chains, and its drop beyond 3 threads to
  *loop bounds calculation overhead* — both are explicit knobs here),
* a per-instance cost factor per schedule (so a scheme that simplifies the
  subscript arithmetic can be modelled as executing instances slightly
  cheaper than the original sequential loop).

The simulator performs classic LPT-style list scheduling of the units of each
phase onto ``p`` identical processors and sums phase makespans plus overheads.
It is deterministic, fast, and exercised by both the benchmarks (figure 3
reproduction) and the property tests (monotonicity, work conservation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.schedule import Schedule

__all__ = ["CostModel", "SimulationResult", "simulate_schedule", "speedup_curve"]


@dataclass(frozen=True)
class CostModel:
    """Per-event costs (arbitrary time units; only ratios matter).

    The defaults model a light-weight OpenMP runtime: iterations cost 1.0,
    barriers cost a few iterations, per-unit dispatch costs a fraction of an
    iteration.  ``instance_cost_factor`` scales the work of the schedule being
    simulated relative to the sequential baseline (values < 1 model the
    subscript-simplification effect of the WHILE chains; values > 1 model
    extra bound/guard evaluation in generated code).
    """

    iteration_cost: float = 1.0
    barrier_cost: float = 5.0
    unit_overhead: float = 0.02
    phase_start_overhead: float = 2.0
    instance_cost_factor: float = 1.0
    #: extra per-unit cost that grows with the number of convex-set bound
    #: expressions the generated loop has to evaluate (the "loop bounds
    #: calculation overhead" of §4); schedules record this in their metadata.
    bound_evaluation_cost: float = 0.0

    def sequential_time(self, total_work: int) -> float:
        """Time of the original sequential loop (no overheads, factor 1)."""
        return total_work * self.iteration_cost


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one schedule on ``processors`` CPUs."""

    schedule: str
    processors: int
    parallel_time: float
    sequential_time: float
    phase_times: Tuple[float, ...]
    busy_time: float

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.parallel_time if self.parallel_time else float("inf")

    @property
    def efficiency(self) -> float:
        return self.speedup / self.processors

    @property
    def utilization(self) -> float:
        return self.busy_time / (self.parallel_time * self.processors) if self.parallel_time else 0.0


def _phase_makespan(
    unit_costs: Sequence[float], processors: int, unit_overhead: float
) -> float:
    """LPT list scheduling of independent units onto identical processors."""
    if not unit_costs:
        return 0.0
    loads = [0.0] * max(1, processors)
    heapq.heapify(loads)
    for cost in sorted(unit_costs, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + cost + unit_overhead)
    return max(loads)


def simulate_schedule(
    schedule: Schedule,
    processors: int,
    cost_model: Optional[CostModel] = None,
    sequential_work: Optional[int] = None,
) -> SimulationResult:
    """Simulate a schedule on ``processors`` CPUs under the cost model.

    ``sequential_work`` defaults to the schedule's own total work; pass the
    original loop's instance count when the schemes being compared execute a
    different number of instances (e.g. guard-filtered DOALL nests).
    """
    cm = cost_model or CostModel()
    if processors < 1:
        raise ValueError("processors must be >= 1")
    phase_times: List[float] = []
    busy = 0.0
    for phase in schedule.phases:
        unit_costs = [
            work * cm.iteration_cost * cm.instance_cost_factor + cm.bound_evaluation_cost
            for work in phase.lower().unit_lengths().tolist()
        ]
        busy += sum(unit_costs)
        makespan = _phase_makespan(unit_costs, processors, cm.unit_overhead)
        phase_times.append(cm.phase_start_overhead + makespan + cm.barrier_cost)
    parallel_time = sum(phase_times)
    seq_work = sequential_work if sequential_work is not None else schedule.total_work
    return SimulationResult(
        schedule=schedule.name,
        processors=processors,
        parallel_time=parallel_time,
        sequential_time=cm.sequential_time(seq_work),
        phase_times=tuple(phase_times),
        busy_time=busy,
    )


def speedup_curve(
    schedule: Schedule,
    processors: Sequence[int] = (1, 2, 3, 4),
    cost_model: Optional[CostModel] = None,
    sequential_work: Optional[int] = None,
) -> Dict[int, float]:
    """Speedup for each processor count — one figure-3 series."""
    return {
        p: simulate_schedule(schedule, p, cost_model, sequential_work).speedup
        for p in processors
    }
