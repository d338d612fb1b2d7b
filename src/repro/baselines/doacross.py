"""DOACROSS / dependence-uniformization baselines (Tzen & Ni '93, Chen & Yew '96).

These schemes keep the original loop structure and insert point-to-point
synchronization: the dependence distances are covered by a small set of basic
dependence vectors (BDV) and iteration ``i`` may start once the iterations
``i − v`` (for every BDV ``v``) have completed.  The achievable parallelism is
therefore wavefront parallelism over the *uniformized* dependence graph, paid
for with per-iteration synchronization that is more expensive than the barrier
synchronization of DOALL phases — both effects the paper's Example 3
comparison relies on (DOACROSS trails the two-phase DOALL code REC produces).

The reproduction models a DOACROSS execution as a wavefront schedule over the
relation ``{ i → i+v | v ∈ BDV, both in Φ }``: one phase per wavefront level,
single-iteration units.  The extra cost of the per-iteration P/V
synchronization relative to barriers is expressed through the cost model used
when simulating the schedule (see the figure-3 benchmarks).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.dataflow import dataflow_partition
from ..core.partition import space_rows
from ..core.schedule import Phase, Schedule, point_phases
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, PointCodec, in_sorted
from .lattice import pseudo_distance_matrix

__all__ = ["basic_dependence_vectors", "uniformized_relation", "doacross_schedule"]

Point = Tuple[int, ...]


def basic_dependence_vectors(rd: FiniteRelation, dim: int) -> List[Point]:
    """Basic dependence vectors covering every observed distance.

    The published schemes choose a cone basis of the distance set; the pseudo
    distance matrix (lexicographically positive, integrally covering) is a
    faithful stand-in with the same role: every real distance is a combination
    of the returned vectors, so synchronizing on them preserves every real
    dependence.
    """
    return pseudo_distance_matrix(sorted(rd.distances()), dim)


def uniformized_relation(
    space: Union[np.ndarray, Sequence[Point]], vectors: Sequence[Point]
) -> FiniteRelation:
    """The uniform relation ``{ i → i+v | v ∈ vectors, i and i+v in Φ }``.

    One vectorised membership test per vector: the shifted space is encoded
    with the space's :class:`~repro.isl.relations.PointCodec` and looked up
    among the sorted space keys.
    """
    points = space_rows(space, len(vectors[0]) if vectors else 0)
    dim = points.shape[1]
    src_blocks, dst_blocks = [], []
    if len(points):
        codec = PointCodec.for_arrays(points)
        keys = np.sort(codec.encode(points))
        for v in vectors:
            if not any(v):
                continue
            shifted = points + np.asarray(v, dtype=np.int64)
            hit = codec.contains(shifted)
            hit[hit] = in_sorted(codec.encode(shifted[hit]), keys)
            src_blocks.append(points[hit])
            dst_blocks.append(shifted[hit])
    if not sum(len(b) for b in src_blocks):
        return FiniteRelation(frozenset(), dim, dim)
    return FiniteRelation.from_arrays(
        np.concatenate(src_blocks), np.concatenate(dst_blocks)
    )


def doacross_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a program under BDV-synchronized DOACROSS execution.

    Works at iteration level for perfect nests and at statement level (unified
    index vectors) otherwise, so the imperfectly nested Example 3 can be
    scheduled the way Chen & Yew's paper schedules it.  The wavefront levels
    come out of the dataflow peeling as CSR arrays (lexicographic inside a
    level), and each level becomes one phase over slices of them.
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)

    contexts = program.statement_contexts()
    index_names = contexts[0].index_names if contexts else ()
    perfect = all(ctx.index_names == index_names for ctx in contexts)

    if perfect:
        space = analysis.iteration_space_array
        rd = analysis.iteration_dependences
        vectors = basic_dependence_vectors(rd, len(index_names))
        # The wavefront levels are computed over the uniformized relation *plus*
        # the exact one: the BDV edges add the artificial serialization the
        # scheme pays for, and keeping the exact edges guarantees correctness
        # even where an intermediate point i+v falls outside the iteration
        # space (single BDV steps alone would then lose the ordering).
        uniform = uniformized_relation(space, vectors).union(rd)
        offsets, rows = dataflow_partition(space, uniform).level_arrays()
        bounds = offsets.tolist()
        names = [f"doacross-wave-{k}" for k in range(len(bounds) - 1)]
        phases = point_phases(names, rows, bounds, len(contexts))
    else:
        from ..core.statement import build_statement_space

        stmt_space = build_statement_space(program, params, analysis)
        points = stmt_space.space_array
        vectors = basic_dependence_vectors(stmt_space.rd, stmt_space.width)
        uniform = uniformized_relation(points, vectors).union(stmt_space.rd)
        offsets, rows = dataflow_partition(points, uniform).level_arrays()
        bounds = offsets.tolist()
        ids = stmt_space.stmt_ids_of(rows)
        phases = [
            Phase(f"doacross-wave-{k}", ids[lo:hi], rows[lo:hi, 1::2])
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]

    return Schedule.for_program(
        f"{program.name}-DOACROSS",
        program,
        phases,
        scheme="doacross",
        basic_dependence_vectors=[list(v) for v in vectors],
        waves=len(phases),
    )
