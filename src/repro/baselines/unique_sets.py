"""Unique-sets oriented partitioning baseline (Ju & Chaudhary, 1997).

The unique-sets scheme also works from the exact dependence information of a
single coupled reference pair, but instead of recurrence chains it splits the
dependence convex hulls into *head* and *tail* sets per recurrence equation
("flow" for the first orientation of the equation, "anti" for the second) and
intersects them, yielding up to five unique sets that are executed as a
sequence of loop nests.  For the paper's Example 2 this produces five phases,
one of which is sequential; the recurrence-chain scheme produces only three
fully parallel partitions, which is exactly the comparison §4/§5 make.

This reproduction keeps the scheme's observable structure:

* iterations touched only as dependence *sources* form the head sets (split by
  flow/anti orientation),
* iterations touched only as *targets* form the tail sets (same split),
* iterations that are both source and target form the intersection set, which
  is executed sequentially (its internal chains are not analysed further —
  that is the very refinement the recurrence-chain paper adds),
* untouched iterations join the first phase.

Phases execute in the order: independent ∪ flow-heads, anti-heads,
intersection (sequential), flow-tails, anti-tails — mirroring the five
DOALL nests of the published example.  Every real dependence is respected
because sources always execute in an earlier phase than their targets, and
the intersection phase is internally sequential in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.partition import space_rows
from ..core.schedule import Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..isl.relations import FiniteRelation, PointCodec, in_sorted, unique_rows

__all__ = [
    "SETS",
    "UniqueSets",
    "unique_sets_partition",
    "unique_sets_schedule",
    "unique_sets_schedule_and_partition",
]

Point = Tuple[int, ...]

#: The sets, in the order their codes are stored in ``UniqueSets.membership``.
SETS = ("independent", "flow_head", "anti_head", "intersection", "flow_tail", "anti_tail")


@dataclass(frozen=True, eq=False)
class UniqueSets:
    """The five unique sets of the Ju & Chaudhary scheme (concrete form).

    ``points`` is the space as lexicographically sorted ``(n, dim)`` rows and
    ``membership`` the index into :data:`SETS` of each row's set.
    """

    points: np.ndarray
    membership: np.ndarray

    def rows(self, *names: str) -> np.ndarray:
        """The sorted rows of the union of the named sets."""
        codes = [SETS.index(name) for name in names]
        return self.points[np.isin(self.membership, codes)]

    def phases(self) -> List[Tuple[str, np.ndarray, bool]]:
        """(name, sorted rows, is_sequential) in execution order."""
        return [
            ("independent + flow heads", self.rows("independent", "flow_head"), False),
            ("anti heads", self.rows("anti_head"), False),
            ("head/tail intersection (sequential)", self.rows("intersection"), True),
            ("flow tails", self.rows("flow_tail"), False),
            ("anti tails", self.rows("anti_tail"), False),
        ]

    def counts(self) -> Dict[str, int]:
        return {name: len(points) for name, points, _ in self.phases()}


def unique_sets_partition(
    space: Union[np.ndarray, Sequence[Point]], rd: FiniteRelation
) -> UniqueSets:
    """Split the iteration space into the unique sets.

    ``rd`` is the oriented (earlier → later) exact relation.  The flow/anti
    split follows the write-to-read direction: a pair whose source is the
    lexicographically earlier iteration of the *write* reference is flow, the
    reverse orientation is anti.  Working from the oriented relation we use
    the sign convention that pairs whose source is also a pure source of the
    relation (never a target) are "flow-like"; the distinction only affects
    which head/tail bucket an iteration lands in, not the safety argument.

    Array-native: the pairs inside Φ are located by codec key in the sorted
    space, and every set follows from per-point in/out degrees.
    """
    points = space_rows(space, rd.dim_in)
    points = unique_rows(points)
    n = len(points)
    out_deg = np.zeros(n, dtype=np.int64)
    in_deg = np.zeros(n, dtype=np.int64)
    forward = np.zeros(n, dtype=bool)
    src, dst = rd.as_arrays() if n and not rd.is_empty() else (points[:0], points[:0])
    if len(src):
        codec = PointCodec.for_arrays(points)
        keys = codec.encode(points)  # ascending: the rows are sorted
        inside = codec.contains(src) & codec.contains(dst)
        s_keys, d_keys = codec.encode(src[inside]), codec.encode(dst[inside])
        keep = in_sorted(s_keys, keys) & in_sorted(d_keys, keys)
        s_idx = np.searchsorted(keys, s_keys[keep])
        d_idx = np.searchsorted(keys, d_keys[keep])
        out_deg = np.bincount(s_idx, minlength=n)
        in_deg = np.bincount(d_idx, minlength=n)
        forward[s_idx[s_idx < d_idx]] = True  # some target is lexicographically later
    dom, ran = out_deg > 0, in_deg > 0
    heads, tails = dom & ~ran, ran & ~dom

    # Flow/anti split of heads and tails: a head with a single, lexicographically
    # later target is flow, and a tail with a single source is flow; the rest are
    # anti.  The split is structural only (both head phases precede every
    # dependent target).
    flow_head = heads & (out_deg == 1) & forward
    flow_tail = tails & (in_deg == 1)
    membership = np.select(
        [heads & ~flow_head, dom & ran, flow_tail, tails & ~flow_tail, flow_head],
        [SETS.index(name) for name in (
            "anti_head", "intersection", "flow_tail", "anti_tail", "flow_head"
        )],
        default=SETS.index("independent"),
    ).astype(np.int8)
    return UniqueSets(points=points, membership=membership)


def unique_sets_schedule_and_partition(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Tuple[Schedule, UniqueSets]:
    """:func:`unique_sets_schedule` together with the sets it was built from."""
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    space = analysis.space
    sets = unique_sets_partition(space.unified_array, space.rd)
    phases = [
        space.phase(name, rows, [0, len(rows)] if sequential else None)
        for name, rows, sequential in sets.phases()
        if len(rows)
    ]
    schedule = Schedule.for_program(
        f"{program.name}-UNIQUE",
        program,
        phases,
        scheme="unique-sets",
        set_sizes=sets.counts(),
    )
    return schedule, sets


def unique_sets_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Schedule:
    """Schedule a perfect-nest program under the unique-sets scheme."""
    return unique_sets_schedule_and_partition(program, params, analysis)[0]
