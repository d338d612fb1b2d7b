"""Minimum-distance tiling baseline (Punyamurtula, Chaudhary, Ju & Roy, 1999).

The minimum-distance scheme observes that iterations closer together than the
minimum dependence distance in every dimension cannot depend on each other, so
the iteration space can be tiled with tiles of that size: the iterations of a
tile run fully in parallel (innermost parallelism) and the tiles themselves
execute under the original sequential order (or a DOACROSS scheme for the
inter-tile dependences — the reproduction uses the stricter sequential tile
order, which is sufficient for the comparisons the paper makes: the scheme's
parallelism per synchronization step is bounded by the tile volume, e.g. a
factor ≈ 4 for Example 2, whereas the REC partitioning exposes whole-set
parallelism).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, lexsort_rows

__all__ = ["minimum_distances", "tiling_schedule"]


def minimum_distances(rd: FiniteRelation, dim: int) -> Tuple[int, ...]:
    """Per-dimension minimum positive dependence distance (1 when none).

    The tile extent in dimension ``k`` is the smallest positive ``|d_k|`` over
    all dependence distances with ``d_k != 0``; dimensions never involved in a
    dependence get an unbounded extent, represented here by a large extent that
    in practice means "the whole dimension fits in one tile".
    """
    mins: List[Optional[int]] = [None] * dim
    for d in rd.distances():
        for k, x in enumerate(d):
            if x != 0:
                ax = abs(int(x))
                if mins[k] is None or ax < mins[k]:
                    mins[k] = ax
    return tuple(m if m is not None else 0 for m in mins)


def tiling_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a perfect-nest program under minimum-distance tiling.

    The tiles cut the analysis' one space (iteration vectors for one
    statement, unified vectors for several).  Tiles are visited in
    lexicographic order (one phase per tile); the instances inside a tile
    are the parallel units of that phase.
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    space = analysis.space
    rows = space.unified_array
    if not len(rows):
        return Schedule.for_program(
            f"{program.name}-TILE", program, [], scheme="min-distance-tiling"
        )
    extents = minimum_distances(space.rd, rows.shape[1])
    lows = rows.min(axis=0)
    highs = rows.max(axis=0)
    sizes = tuple(
        int(e if e and e > 0 else (highs[k] - lows[k] + 1)) for k, e in enumerate(extents)
    )
    # Tile of each point by floor division; tiles in lexicographic order,
    # each tile's points in lexicographic order.
    tiles = (rows - lows) // np.asarray(sizes, dtype=np.int64)
    order = lexsort_rows(np.concatenate([tiles, rows], axis=1))
    tiles, points = tiles[order], rows[order]
    starts = np.flatnonzero((tiles[1:] != tiles[:-1]).any(axis=1)) + 1
    bounds = [0, *starts.tolist(), len(points)]
    names = [f"tile{tuple(key)}" for key in tiles[bounds[:-1]].tolist()]
    return Schedule.from_levels(
        f"{program.name}-TILE",
        space.stmt_labels,
        space.stmt_depths,
        bounds,
        *space.split(points),
        phase_names=names,
        scheme="min-distance-tiling",
        tile_size=list(sizes),
        tiles=len(names),
    )
