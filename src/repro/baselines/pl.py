"""Partitioning & labeling / direction-vector uniformization baseline ("PL").

The PL curve of figure 3 corresponds to the classic uniform-dependence
machinery (D'Hollander '92 partitioning and labeling, Wolf & Lam unimodular
transformations): the non-uniform distances are abstracted into *direction
vectors*, which — as the paper's related-work section explains — is equivalent
to covering the dependences with the primitive (gcd-reduced) basis of the
vector space the distances span.  That lattice is denser than the PDM's, so
more artificial dependences are introduced, the sequential chains (labels)
inside each partition are longer, and there are fewer independent partitions —
which is why PL trails PDM and REC in figure 3.

Mechanically the scheme is the same coset construction as PDM with a different
generator set; see :mod:`repro.baselines.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Tuple

from ..core.partition import space_rows
from ..core.schedule import Phase, Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation
from .lattice import direction_basis
from .pdm import PDMPartition

__all__ = ["PLPartition", "pl_partition", "pl_schedule", "pl_schedule_and_partition"]


@dataclass(frozen=True, eq=False)
class PLPartition(PDMPartition):
    """The PL coset partition (direction-vector lattice).

    Structurally identical to :class:`~repro.baselines.pdm.PDMPartition` —
    the ``pdm`` field holds the primitive direction basis instead of the
    pseudo distance matrix — but carried as its own type so consumers (the
    strategy-registry diagnostics, reports) can tell the two uniformization
    schemes apart without inspecting which lattice generated the cosets.
    """

    scheme: ClassVar[str] = "pl"


def pl_partition(space, rd: FiniteRelation) -> PLPartition:
    """Coset partition under the primitive direction-vector lattice."""
    points = space_rows(space, rd.dim_in)
    basis = direction_basis(sorted(rd.distances()), points.shape[1])
    return PLPartition.of(basis, points)


def pl_schedule_and_partition(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Tuple[Schedule, PLPartition]:
    """:func:`pl_schedule` together with the partition it was built from."""
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    partition = pl_partition(
        analysis.iteration_space_array, analysis.iteration_dependences
    )
    phase = Phase.of_points(
        "PL partitions (labels executed in order)",
        partition.points,
        len(program.statement_contexts()),
        partition.coset_offsets,
    )
    schedule = Schedule.for_program(
        f"{program.name}-PL",
        program,
        [phase],
        scheme="pl",
        basis=[list(v) for v in partition.pdm],
        parallel_sets=partition.num_parallel_sets,
        longest_chain=partition.longest_chain,
    )
    return schedule, partition


def pl_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a perfect-nest program under the PL (direction vector) scheme."""
    return pl_schedule_and_partition(program, params, analysis)[0]
