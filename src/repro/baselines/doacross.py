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
single-instance units, over the program's one space (the analysis'
statement-level space, whose rows are plain iteration vectors for a
one-statement nest).  The extra cost of the per-iteration P/V
synchronization relative to barriers is expressed through the cost model used
when simulating the schedule (see the figure-3 benchmarks).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.dataflow import dataflow_partition_indexed
from ..core.schedule import Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, PointCodec, unique_index_pairs
from .lattice import pseudo_distance_matrix

__all__ = ["basic_dependence_vectors", "doacross_schedule"]

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


def _shift_pairs(
    rows: np.ndarray, codec: PointCodec, keys: np.ndarray, vectors: Sequence[Point]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices ``(i, j)`` of every pair ``rows[j] == rows[i] + v``.

    ``rows`` are sorted and unique with ascending ``codec`` keys ``keys``;
    zero vectors are skipped.  One vectorised lookup per vector: the
    shifted rows are encoded and searched among the space keys.
    """
    src_blocks, dst_blocks = [], []
    for v in vectors:
        if not any(v):
            continue
        shifted = rows + np.asarray(v, dtype=np.int64)
        at = np.flatnonzero(codec.contains(shifted))
        wanted = codec.encode(shifted[at])
        pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        found = keys[pos] == wanted
        src_blocks.append(at[found])
        dst_blocks.append(pos[found])
    if not src_blocks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(src_blocks), np.concatenate(dst_blocks)


def doacross_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a program under BDV-synchronized DOACROSS execution.

    Works on the analysis' one space — iteration vectors for a one-statement
    nest, unified statement index vectors otherwise — so the imperfectly
    nested Example 3 is scheduled the way Chen & Yew's paper schedules it.
    The wavefront levels come out of the dataflow peeling on row indices
    (the BDV shifts located among the space's keys, joined with Rd's own
    indices) as CSR arrays (lexicographic inside a level), and each level
    becomes one phase over slices of them.
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    space = analysis.space
    vectors = basic_dependence_vectors(space.rd, space.width)
    # The wavefront levels are computed over the uniformized relation *plus*
    # the exact one: the BDV edges add the artificial serialization the
    # scheme pays for, and keeping the exact edges guarantees correctness
    # even where an intermediate point i+v falls outside the space (single
    # BDV steps alone would then lose the ordering).
    lo, hi = space.rd_lo, space.rd_hi
    points = space.unified_array
    if len(points):
        src, dst = _shift_pairs(points, *space.keys(), vectors)
        lo, hi = unique_index_pairs(
            np.concatenate([src, lo]), np.concatenate([dst, hi]), len(points)
        )
    uniform = FiniteRelation(points[lo], points[hi])
    offsets, rows = dataflow_partition_indexed(points, lo, hi, uniform).level_arrays()
    return Schedule.from_levels(
        f"{program.name}-DOACROSS",
        space.stmt_labels,
        space.stmt_depths,
        offsets,
        *space.split(rows),
        phase_names="doacross-wave",
        scheme="doacross",
        basic_dependence_vectors=[list(v) for v in vectors],
        waves=len(offsets) - 1,
    )
