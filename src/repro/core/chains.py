"""Monotonic recurrence chains in the intermediate set (Definition 1, §3.2).

A *monotonic dependence chain* is a lexicographically increasing sequence of
iterations in which each iteration directly depends on a unique immediate
predecessor.  For a single coupled reference pair with full-rank matrices,
Lemma 1 guarantees that inside the intermediate set P2 every iteration has
exactly one predecessor and one successor, so P2 decomposes into *disjoint*
monotonic chains; each chain is executed sequentially by a WHILE loop whose
start is the chain's first intermediate iteration (the set W) and whose
continuation condition is "the current iteration still has a successor inside
Φ" (``I ∈ Φ ∩ dom Rd``).

This module extracts chains in two independent ways:

* :func:`chains_from_relation` — purely graph-based, walking the exact finite
  relation restricted to P2 (works for any relation, used for validation and
  for the general multi-pair case),
* :func:`chains_from_recurrence` — following the affine map ``i ← i·T + u``
  from each W start (what the generated WHILE loop actually does),

and the test-suite checks they produce identical chains for the single-pair
programs, which is precisely the content of Lemma 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..isl.lexorder import lex_lt
from ..isl.relations import FiniteRelation, PointCodec, SuccessorIndex, in_sorted
from .partition import ThreeSetPartition
from .recurrence import AffineRecurrence

__all__ = [
    "MonotonicChain",
    "split_into_monotonic_pairs",
    "chains_from_relation",
    "chains_from_recurrence",
    "verify_disjoint_chains",
    "chains_respect_relation",
]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class MonotonicChain:
    """One lexicographically increasing chain of directly dependent iterations."""

    points: Tuple[Point, ...]

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if not lex_lt(a, b):
                raise ValueError(
                    f"chain is not lexicographically increasing at {a} -> {b}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    def __str__(self) -> str:
        return " -> ".join(str(p) for p in self.points)


def split_into_monotonic_pairs(relation: FiniteRelation) -> List[Tuple[Point, Point]]:
    """Split arbitrary dependence pairs into monotonic (earlier, later) pairs.

    This is the fig. 2 operation: the solution chain 6 → 9 → 3 → 15 of the
    recurrence is not monotonic, but each *pair* of directly dependent
    iterations, ordered lexicographically, is a (two-element) monotonic chain:
    6 → 9, 3 → 9, 3 → 15.
    """
    out = []
    for a, b in relation.pairs:
        if a == b:
            continue
        out.append((a, b) if lex_lt(a, b) else (b, a))
    return sorted(set(out))


def _p2_successor_lookup(
    partition: ThreeSetPartition,
) -> Tuple[Callable[[Point], List[Point]], List[Point]]:
    """Successor lookup and chain heads of the P2-internal relation, vectorised.

    Builds a :class:`~repro.isl.relations.SuccessorIndex` over the relation's
    edges restricted to P2 (sorted-array binary search instead of
    dict-of-point probing) and finds the heads — P2 points with no predecessor
    inside P2 — with one array membership pass.  P2 must be non-empty.
    """
    src, dst = partition.rd.as_arrays()
    p2_arr = partition.p2_array()
    codec = PointCodec.for_arrays(src, dst, p2_arr)
    p2_keys = np.unique(codec.encode(p2_arr))
    if len(src):
        src_keys = codec.encode(src)
        dst_keys = codec.encode(dst)
        keep = in_sorted(src_keys, p2_keys) & in_sorted(dst_keys, p2_keys)
        src, dst, dst_keys = src[keep], dst[keep], dst_keys[keep]
    else:
        dst_keys = np.zeros(0, dtype=np.int64)
    index = SuccessorIndex(src, dst, codec)
    has_pred = in_sorted(p2_keys, np.unique(dst_keys))
    heads = [tuple(r) for r in codec.decode(p2_keys[~has_pred]).tolist()]
    return index.successors, heads


def chains_from_relation(
    partition: ThreeSetPartition,
) -> List[MonotonicChain]:
    """Extract the maximal chains covering P2 by walking the exact relation.

    Only dependences internal to P2 shape the chains (dependences entering
    from P1 or leaving to P3 are handled by the phase ordering).  Every P2
    iteration belongs to at least one chain; when the internal relation is a
    union of simple paths (the Lemma 1 case) the chains are disjoint simple
    paths; otherwise (multiple coupled pairs) iterations may appear in more
    than one chain and the caller must fall back to dataflow partitioning.

    Successors are looked up by sorted-array binary search
    (:func:`_p2_successor_lookup`).
    """
    if not len(partition.p2_array()):
        return []
    p2 = partition.p2
    succ_of, heads = _p2_successor_lookup(partition)

    chains: List[MonotonicChain] = []
    covered: Set[Point] = set()
    for head in heads:
        # Follow successors greedily; with a functional relation this is the
        # unique path, otherwise we take the lexicographically smallest branch
        # and additional branches start their own chains from their head.
        chain = [head]
        on_chain = {head}
        covered.add(head)
        current = head
        while True:
            nxt = next((q for q in succ_of(current) if q not in on_chain), None)
            if nxt is None:
                break
            chain.append(nxt)
            on_chain.add(nxt)
            covered.add(nxt)
            current = nxt
        chains.append(MonotonicChain(tuple(chain)))
    # Any P2 iteration not reached from a head lies on a cycle or a branch;
    # start an extra chain there so coverage is complete.
    for p in sorted(p2 - covered):
        chain = [p]
        on_chain = {p}
        covered.add(p)
        current = p
        while True:
            nxt = next(
                (q for q in succ_of(current) if q not in on_chain and q not in covered),
                None,
            )
            if nxt is None:
                break
            chain.append(nxt)
            on_chain.add(nxt)
            covered.add(nxt)
            current = nxt
        chains.append(MonotonicChain(tuple(chain)))
    return chains


def chains_from_recurrence(
    partition: ThreeSetPartition,
    recurrence: AffineRecurrence,
) -> List[MonotonicChain]:
    """Chains obtained by running the WHILE-loop recurrence from each W start.

    Mirrors the generated code of Algorithm 1: each start iteration in W is
    advanced by ``i ← i·T + u`` (or by the inverse map when that is the
    direction that moves lexicographically forward) while the next iteration
    stays inside the intermediate set.  The final iteration of the underlying
    recurrence chain is *not* included — it belongs to P3 and is executed by
    the final DOALL phase, exactly as in the paper.
    """
    p2 = set(partition.p2)
    inverse = recurrence.inverse()

    def forward_step(point: Point) -> Optional[Point]:
        """The unique lexicographically-forward dependence successor inside P2.

        Tries both the successor map and its inverse (the dependence equation
        of eq. 2 relates the two iterations symmetrically; which map moves
        forward depends on which reference the current iteration instantiates).
        Lemma 1 guarantees at most one candidate qualifies; if both ever did,
        we fail loudly because the single-pair precondition would be violated.
        """
        candidates = []
        for direction in (recurrence, inverse):
            nxt = direction.next_integer(point)
            if nxt is not None and tuple(nxt) in p2 and lex_lt(point, tuple(nxt)):
                candidates.append(tuple(nxt))
        unique = sorted(set(candidates))
        if len(unique) > 1:
            raise ValueError(
                f"iteration {point} has {len(unique)} forward successors in P2; "
                f"the single-coupled-pair precondition of Lemma 1 does not hold"
            )
        return unique[0] if unique else None

    chains: List[MonotonicChain] = []
    for start in sorted(partition.w):
        chain = [start]
        current = start
        while True:
            nxt = forward_step(current)
            if nxt is None or nxt in chain:
                break
            chain.append(nxt)
            current = nxt
        chains.append(MonotonicChain(tuple(chain)))
    return chains


def verify_disjoint_chains(chains: Sequence[MonotonicChain], p2: Iterable[Point]) -> bool:
    """Lemma 1 check: the chains are pairwise disjoint and exactly cover P2."""
    seen: Set[Point] = set()
    for chain in chains:
        for p in chain:
            if p in seen:
                return False
            seen.add(p)
    return seen == set(tuple(p) for p in p2)


def chains_respect_relation(
    chains: Sequence[MonotonicChain], partition: ThreeSetPartition
) -> bool:
    """Check every P2-internal dependence edge is honoured by the chains.

    The three-phase schedule runs the chains of P2 concurrently, each chain
    sequentially in order — so a dependence edge with *both* endpoints inside
    P2 is respected iff both endpoints sit on the *same* chain with the source
    strictly earlier.  The recurrence walk only follows the coupled pair's
    affine map; a second, uncoupled dependence (e.g. a constant-subscript
    reference rewritten every iteration) can thread through P2 without being
    on any chain, and this check is what catches that before the schedule is
    built.  Edges entering P2 from P1 or leaving it to P3 are ordered by the
    phase barriers and are not this function's concern.
    """
    position: Dict[Point, Tuple[int, int]] = {}
    for ci, chain in enumerate(chains):
        for pos, p in enumerate(chain):
            if p in position:
                return False  # overlapping chains would run an instance twice
            position[p] = (ci, pos)
    p2 = set(tuple(p) for p in partition.p2)
    if not p2 or not len(partition.rd):
        return True
    src, dst = partition.rd.as_arrays()
    for a, b in zip(map(tuple, src.tolist()), map(tuple, dst.tolist())):
        if a == b or a not in p2 or b not in p2:
            continue  # self-edges and edges ordered by the phase barriers
        pa = position.get(a)
        pb = position.get(b)
        if pa is None or pb is None:
            return False  # an internal endpoint is on no chain at all
        if pa[0] != pb[0] or pa[1] >= pb[1]:
            return False
    return True
