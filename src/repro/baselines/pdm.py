"""The pseudo-distance-matrix (PDM) partitioning baseline (Yu & D'Hollander, ICPP 2000).

The PDM scheme uniformizes non-uniform dependences: it derives a small set of
lexicographically positive *pseudo distance vectors* whose integer
combinations cover every real dependence distance, and then partitions the
iteration space as if those vectors were real uniform distances.  Iterations
in different lattice cosets of the PDM are independent and run fully in
parallel (the outermost DOALL the scheme advertises); iterations within a
coset are executed sequentially in lexicographic order, which serializes both
the real dependences and the *artificial* ones the covering introduces — the
over-serialization the recurrence-chain paper improves on.

At statement level (imperfect nests / multiple statements) the scheme is
applied per uniformizable dimension group; this reproduction applies it to the
iteration vectors of perfect nests and, for imperfect programs such as the
Cholesky kernel, to each statement's iteration domain with the dependence
distances projected onto the shared outer loops — enough to reproduce the
paper's Example 4 comparison, where PDM parallelizes the outermost ``L`` /
``I`` loops and wins on load balance beyond 3 threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.partition import space_rows
from ..core.schedule import Phase, Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, readonly_view
from .lattice import DistanceLattice, pseudo_distance_matrix

__all__ = [
    "PDMPartition",
    "pdm_partition",
    "pdm_schedule",
    "pdm_schedule_and_partition",
]

Point = Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PDMPartition:
    """The PDM partition: pseudo distance vectors and the resulting cosets.

    ``points`` lists the space coset by coset (ascending coset key, each
    coset in lexicographic order) and ``coset_offsets`` delimits the cosets
    CSR-style.  ``scheme`` names the uniformization scheme that produced
    the partition; the PL baseline's :class:`~repro.baselines.pl.PLPartition`
    subclass overrides it so registry diagnostics report the right scheme
    even though both schemes share the coset mechanics.
    """

    scheme: ClassVar[str] = "pdm"

    pdm: Tuple[Point, ...]
    lattice: DistanceLattice
    points: np.ndarray
    coset_offsets: np.ndarray

    @classmethod
    def of(cls, vectors: Sequence[Point], points: np.ndarray) -> "PDMPartition":
        """Partition ``(n, dim)`` points by the lattice ``vectors`` generate."""
        lattice = DistanceLattice.from_vectors(vectors, points.shape[1])
        order, offsets = lattice.group(points)
        return cls(
            pdm=tuple(vectors),
            lattice=lattice,
            points=readonly_view(points[order]),
            coset_offsets=readonly_view(offsets),
        )

    @property
    def num_parallel_sets(self) -> int:
        return len(self.coset_offsets) - 1

    @property
    def longest_chain(self) -> int:
        return int(np.diff(self.coset_offsets).max()) if self.num_parallel_sets else 0

    def covers(self, distances) -> bool:
        return self.lattice.covers(distances)


def pdm_partition(
    space: Union[np.ndarray, Sequence[Point]], rd: FiniteRelation
) -> PDMPartition:
    """Build the PDM and the coset partition for a concrete iteration space."""
    points = space_rows(space, rd.dim_in)
    pdm = pseudo_distance_matrix(sorted(rd.distances()), points.shape[1])
    return PDMPartition.of(pdm, points)


def pdm_schedule_and_partition(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Tuple[Schedule, PDMPartition]:
    """:func:`pdm_schedule` together with the partition it was built from."""
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)

    contexts = program.statement_contexts()
    index_names = contexts[0].index_names if contexts else ()
    perfect = all(ctx.index_names == index_names for ctx in contexts)

    name = "PDM cosets (outermost DOALL)"
    if perfect:
        partition = pdm_partition(
            analysis.iteration_space_array, analysis.iteration_dependences
        )
        phase = Phase.of_points(
            name, partition.points, len(contexts), partition.coset_offsets
        )
    else:
        # Statement-level PDM: uniformize over the unified statement index
        # vectors of §3.3, so instances whose unified difference lies in the
        # pseudo-distance lattice share a sequential unit and the remaining
        # (outermost) dimensions stay fully parallel — this is what the
        # paper's Example 4 PDM code achieves with its DOALL over L and I.
        from ..core.statement import build_statement_space

        stmt_space = build_statement_space(program, params, analysis)
        partition = pdm_partition(stmt_space.space_array, stmt_space.rd)
        phase = Phase(
            name,
            stmt_space.stmt_ids_of(partition.points),
            partition.points[:, 1::2],
            partition.coset_offsets,
        )

    schedule = Schedule.for_program(
        f"{program.name}-PDM",
        program,
        [phase],
        scheme="pdm",
        pseudo_distance_matrix=[list(v) for v in partition.pdm],
        parallel_sets=partition.num_parallel_sets,
        longest_chain=partition.longest_chain,
    )
    return schedule, partition


def pdm_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a program under the PDM scheme.

    The schedule is a single parallel phase (the outermost DOALL over cosets);
    each coset is one sequential unit in lexicographic order.  For programs
    with several statements the units carry every statement instance of the
    iterations in the coset, still in sequential program order.
    """
    return pdm_schedule_and_partition(program, params, analysis)[0]
