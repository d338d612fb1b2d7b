"""repro.core — the paper's contribution: recurrence-chain partitioning.

* :mod:`repro.core.partition` — the three-set partitioning of §3.1 (eq. 5),
  exact, on row indices;
* :mod:`repro.core.recurrence` — the affine recurrence ``i ← i·T + u`` of
  §3.2 and the Theorem 1 chain-length bound;
* :mod:`repro.core.chains` — monotonic dependence chains (Definition 1): the
  P2 phase built from the relation's arrays, one unit per chain (Lemma 1);
* :mod:`repro.core.dataflow` — the iterative dataflow partitioning branch of
  Algorithm 1 for multiple coupled subscripts with constant bounds;
* :mod:`repro.core.statement` — the statement-level iteration space of §3.3,
  the one space every program is planned in;
* :mod:`repro.core.partitioner` — Algorithm 1 end to end, producing a
  :class:`~repro.core.schedule.Schedule`;
* :mod:`repro.core.schedule` — the schedule representation shared by every
  partitioning scheme (including the baselines);
* :mod:`repro.core.strategy` — the unified planning facade: the
  :class:`~repro.core.strategy.PartitionStrategy` registry over Algorithm 1
  and all six baselines, :class:`~repro.core.strategy.PlanConfig`,
  executable :class:`~repro.core.strategy.Plan` objects, the LRU
  :class:`~repro.core.strategy.PlanCache` and the
  :func:`~repro.core.strategy.plan` entry point.
"""

from .chains import chain_phase
from .dataflow import DataflowPartition, dataflow_partition, dataflow_schedule
from .partition import (
    ThreeSetPartition,
    three_set_partition,
)
from .partitioner import (
    PartitioningNotApplicable,
    RecurrencePartitionResult,
    dataflow_branch,
    recurrence_branch,
    three_phase_schedule,
)
from .recurrence import (
    AffineRecurrence,
    iteration_space_diameter,
    theorem1_bound,
)
from .schedule import Instance, Phase, Schedule
from .statement import (
    StatementLevelSpace,
    UnifiedIndexMap,
    build_statement_space,
    statement_dataflow_schedule,
)

# Imported last: the strategy registry wraps the baselines package, which in
# turn imports repro.core submodules — by this point they are all loaded.
from .strategy import (
    PartitionStrategy,
    Plan,
    PlanCache,
    PlanConfig,
    default_plan_cache,
    get_strategy,
    plan,
    program_fingerprint,
    register_strategy,
    strategy_names,
    strategy_table,
)

__all__ = [
    "ThreeSetPartition",
    "three_set_partition",
    "AffineRecurrence",
    "theorem1_bound",
    "iteration_space_diameter",
    "chain_phase",
    "DataflowPartition",
    "dataflow_partition",
    "dataflow_schedule",
    "StatementLevelSpace",
    "UnifiedIndexMap",
    "build_statement_space",
    "statement_dataflow_schedule",
    "recurrence_branch",
    "dataflow_branch",
    "RecurrencePartitionResult",
    "PartitioningNotApplicable",
    "three_phase_schedule",
    "plan",
    "Plan",
    "PlanConfig",
    "PlanCache",
    "PartitionStrategy",
    "default_plan_cache",
    "program_fingerprint",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "strategy_table",
    "Schedule",
    "Phase",
    "Instance",
]
