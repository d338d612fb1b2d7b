"""Algorithm 1 — the recurrence partitioning scheme, end to end.

The two branches of the paper's Algorithm 1 for concrete parameter values,
each producing a :class:`~repro.core.schedule.Schedule`:

1. Build the unified iteration space Φ and the exact dependence relation Rd
   (iteration-level for perfect single-statement nests, statement-level via
   §3.3 otherwise).
2. If the program has a **single coupled reference pair with square,
   full-rank A and B** — the Lemma 1 case — apply the three-set partitioning
   (eq. 5) and execute the intermediate set as disjoint monotonic recurrence
   chains (WHILE loops) starting from the set W:

       DOALL(P1)  ;  DOALL over chains(W)  ;  DOALL(P3)

3. Otherwise, if the loop bounds are compile-time constants, run the
   **iterative dataflow partitioning**: peel P1 = Φ \\ ran Rd until Φ is empty,
   one DOALL phase per step.

Both branches hand the concrete sets to the array partitioners of
:mod:`repro.core.partition` and :mod:`repro.core.dataflow` (int64-key
membership and CSR peeling at every size).
4. Otherwise Algorithm 1 does not apply and the caller should fall back to the
   PDM scheme (``repro.baselines.pdm``); :func:`recurrence_branch` raises
   :class:`PartitioningNotApplicable` so the fallback is an explicit decision.

The two branches are exposed separately — :func:`recurrence_branch` (the
Lemma 1 single-pair case) and :func:`dataflow_branch` (iterative dataflow
partitioning) — because the strategy registry of :mod:`repro.core.strategy`
registers them as two independent strategies of the unified ``plan()``
facade, which walks a fallback chain over every registered scheme and
records why strategies were skipped.

The returned schedule always satisfies (and the tests verify):
``schedule.covers(all statement instances)`` and
``schedule.respects(Rd)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from .chains import CHAIN_PHASE, chain_phase
from .dataflow import dataflow_schedule
from .partition import ThreeSetPartition, three_set_partition
from .recurrence import AffineRecurrence, iteration_space_diameter, theorem1_bound
from .schedule import Phase, Schedule
from .statement import (
    StatementLevelSpace,
    build_statement_space,
    statement_dataflow_schedule,
)

__all__ = [
    "PartitioningNotApplicable",
    "RecurrencePartitionResult",
    "recurrence_branch",
    "dataflow_branch",
    "three_phase_schedule",
]

class PartitioningNotApplicable(RuntimeError):
    """Raised when neither branch of Algorithm 1 applies (PDM fallback needed)."""


@dataclass(frozen=True)
class RecurrencePartitionResult:
    """Everything the partitioner derived, for reporting and validation."""

    program: LoopProgram
    params: Mapping[str, int]
    scheme: str  # "recurrence-chains" | "dataflow"
    schedule: Schedule
    partition: Optional[ThreeSetPartition]
    recurrence: Optional[AffineRecurrence]
    statement_space: Optional[StatementLevelSpace]
    analysis: DependenceAnalysis

    @property
    def num_phases(self) -> int:
        return self.schedule.num_phases

    def chain_length_bound(self) -> Optional[int]:
        """The Theorem 1 bound for this problem instance (None when α ≤ 1).

        The diameter comes from the partition's ``(n, dim)`` rows (per-axis
        min/max), so the space is never boxed into point tuples.
        """
        if self.recurrence is None or self.partition is None:
            return None
        diameter = iteration_space_diameter(self.partition.space_array())
        return theorem1_bound(self.recurrence, diameter)

    def chain_lengths(self) -> np.ndarray:
        """Points per chain, in unit order: the P2 phase's unit lengths
        (empty for the dataflow branch and for an empty P2, whose phase the
        schedule drops)."""
        for phase in self.schedule.phases:
            if phase.name == CHAIN_PHASE:
                return phase.unit_lengths()
        return np.zeros(0, dtype=np.int64)

    def longest_chain(self) -> int:
        return int(self.chain_lengths().max(initial=0))

    def summary(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "program": self.program.name,
            "scheme": self.scheme,
            **self.schedule.summary(),
        }
        if self.partition is not None:
            info.update(self.partition.counts())
        n_chains = len(self.chain_lengths())
        if n_chains:
            info["n_chains"] = n_chains
            info["longest_chain"] = self.longest_chain()
            bound = self.chain_length_bound()
            if bound is not None:
                info["theorem1_bound"] = bound
        return info


def three_phase_schedule(
    name: str,
    label: str,
    partition: ThreeSetPartition,
    chains: Phase,
) -> Schedule:
    """Build the P1 → chains → P3 schedule of the single-pair branch.

    The fully parallel DOALL phases (P1, P3) are the partition's sorted row
    arrays — lexicographic instance order, one instance per unit; ``chains``
    is the P2 phase of :func:`~repro.core.chains.chain_phase`, one unit per
    chain (a WHILE chain is inherently sequential).
    """
    p1, p3 = partition.p1_array(), partition.p3_array()
    dim = p1.shape[1]
    phases = [
        Phase("P1 (independent + initial)", 0, p1),
        chains,
        Phase("P3 (final)", 0, p3),
    ]
    return Schedule.from_phases(name, phases, (label,), (dim,), scheme="recurrence-chains")


def recurrence_not_applicable_reason(analysis: DependenceAnalysis) -> Optional[str]:
    """Why the Lemma 1 single-pair branch does not apply (``None`` == applies).

    The condition is exactly the historical ``use_chains`` test of Algorithm 1;
    the strategy registry surfaces the returned reason in ``Plan.explain()``.
    """
    statements = analysis.program.statements()
    if len(statements) != 1:
        # The three-phase schedule of this branch executes exactly one
        # statement label; a second statement's instances would never be
        # scheduled and its dependences (e.g. a WAW rewrite of a constant
        # cell) never ordered.  Multi-statement programs take the §3.3
        # statement-level dataflow branch instead.
        return (
            "the chain branch schedules a single statement, but the program "
            f"has {len(statements)} (other statements' instances and "
            "dependences would not be covered)"
        )
    single_pair = analysis.single_coupled_pair()
    if single_pair is None:
        coupled = [
            d
            for d in analysis.pair_dependences
            if d.pair.is_coupled() and not d.is_empty()
        ]
        return (
            "needs exactly one coupled reference pair with dependences "
            f"(found {len(coupled)})"
        )
    if not single_pair.is_square_full_rank():
        return (
            "the coupled pair's subscript matrices are not square and "
            "full-rank (no Lemma 1 recurrence)"
        )
    if single_pair.source_indices != single_pair.target_indices:
        return "the coupled references do not share one iteration space"
    return None


def recurrence_branch(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> RecurrencePartitionResult:
    """The single-pair branch of Algorithm 1 (Lemma 1 recurrence chains).

    Raises :class:`PartitioningNotApplicable` when the program does not have
    exactly one square, full-rank coupled reference pair over one iteration
    space, or when the P2-internal dependences do not split into disjoint
    chains (Lemma 1 does not hold in practice).
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    reason = recurrence_not_applicable_reason(analysis)
    if reason is not None:
        raise PartitioningNotApplicable(
            f"recurrence-chain branch does not apply to {program.name!r}: {reason}"
        )
    single_pair = analysis.single_coupled_pair()
    label = single_pair.source_ctx.statement.label
    partition = three_set_partition(
        analysis.iteration_space_array, analysis.iteration_dependences
    )
    recurrence = AffineRecurrence.from_pair(single_pair)
    try:
        chains = chain_phase(partition)
    except ValueError as err:
        # An extra dependence (e.g. an uncoupled constant-subscript
        # reference) threads through P2 beside the coupled pair's recurrence.
        raise PartitioningNotApplicable(
            f"recurrence-chain branch does not apply to {program.name!r}: "
            f"{err}; the dataflow branch handles this shape"
        ) from None
    schedule = three_phase_schedule(f"{program.name}-REC", label, partition, chains)
    return RecurrencePartitionResult(
        program=program,
        params=params,
        scheme="recurrence-chains",
        schedule=schedule,
        partition=partition,
        recurrence=recurrence,
        statement_space=None,
        analysis=analysis,
    )


def dataflow_branch(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> RecurrencePartitionResult:
    """The iterative dataflow branch of Algorithm 1.

    Needs concrete bounds, which ``params`` guarantees here
    (:class:`~repro.dependence.analysis.DependenceAnalysis` refuses unbound
    parameters).  Single-statement programs (always a perfect nest) are peeled
    directly on the iteration-level relation; multi-statement and imperfect
    nests go through the statement-level unified space of §3.3, which is
    itself array-native — the peeling consumes the unified ``(n, width)`` rows
    and each wavefront is one :class:`~repro.core.schedule.Phase` over them —
    so the branch is array-native end to end either way.
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    contexts = program.statement_contexts()
    if len(contexts) == 1:
        schedule = dataflow_schedule(
            f"{program.name}-REC-dataflow",
            analysis.iteration_space_array,
            analysis.iteration_dependences,
            label=contexts[0].statement.label,
        )
        return RecurrencePartitionResult(
            program=program,
            params=params,
            scheme="dataflow",
            schedule=schedule,
            partition=None,
            recurrence=None,
            statement_space=None,
            analysis=analysis,
        )
    stmt_space = build_statement_space(program, params, analysis)
    schedule = statement_dataflow_schedule(f"{program.name}-REC-dataflow", stmt_space)
    return RecurrencePartitionResult(
        program=program,
        params=params,
        scheme="dataflow",
        schedule=schedule,
        partition=None,
        recurrence=None,
        statement_space=stmt_space,
        analysis=analysis,
    )

