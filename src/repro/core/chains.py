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

:func:`chain_phase` builds the chains straight from the partition's arrays:
it keeps the P2-internal edges of Rd, refuses a relation that branches (where
Lemma 1 does not hold), and advances every chain one step at a time from its
head.  Every P2 point lands on exactly one chain and every P2-internal edge
joins consecutive points of one chain, by construction.  The generated
WHILE loop (:func:`repro.codegen.python_source.generate_chain_function`)
walks the same chains by the affine recurrence.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..isl.lexorder import lex_lt
from ..isl.relations import FiniteRelation, PointCodec, in_sorted
from .partition import ThreeSetPartition
from .schedule import Phase

__all__ = ["split_into_monotonic_pairs", "chain_phase", "CHAIN_PHASE"]

Point = Tuple[int, ...]

#: The name of the P2 phase :func:`chain_phase` builds.
CHAIN_PHASE = "P2 (recurrence chains)"


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


def chain_phase(partition: ThreeSetPartition) -> Phase:
    """The P2 phase of Algorithm 1: one unit per monotonic chain.

    The non-self edges of ``partition.rd`` with both endpoints in P2 are
    matched on :class:`~repro.isl.relations.PointCodec` keys.  Each chain
    starts at a head (a P2 point with no predecessor inside P2, i.e. a W
    start) and all chains advance together, one array step per chain
    position.  Rows run chain by chain; units are ordered by their head,
    lexicographically.

    Raises :class:`ValueError` when a P2 point has two internal successors
    or predecessors, or P2 holds a cycle: the chains would not be disjoint
    paths, so Lemma 1 does not hold.
    """
    p2 = partition.p2_array()
    n = len(p2)
    if not n:
        return Phase(CHAIN_PHASE, 0, p2, np.zeros(1, dtype=np.int64))
    src, dst = partition.rd.as_arrays()
    codec = PointCodec.for_arrays(src, dst, p2)
    p2_keys = codec.encode(p2)  # ascending: the rows are sorted and unique
    src_keys, dst_keys = codec.encode(src), codec.encode(dst)
    keep = (
        (src_keys != dst_keys)
        & in_sorted(src_keys, p2_keys)
        & in_sorted(dst_keys, p2_keys)
    )
    a = np.searchsorted(p2_keys, src_keys[keep])
    b = np.searchsorted(p2_keys, dst_keys[keep])
    for ends, role in ((a, "successors"), (b, "predecessors")):
        degree = np.bincount(ends, minlength=n)
        if (degree > 1).any():
            point = tuple(p2[int(np.argmax(degree))].tolist())
            raise ValueError(
                f"P2 point {point} has {int(degree.max())} {role} inside P2, so "
                "the P2 dependences do not split into disjoint monotonic chains "
                "(Lemma 1 does not hold)"
            )
    succ = np.full(n, -1, dtype=np.int64)
    succ[a] = b
    heads = np.setdiff1d(np.arange(n), b)  # ascending index == lexicographic
    rows, units = [heads], [np.arange(len(heads))]
    current, unit = heads, units[0]
    while len(current):
        current = succ[current]
        live = current >= 0
        current, unit = current[live], unit[live]
        rows.append(current)
        units.append(unit)
    unit_of = np.concatenate(units)
    if len(unit_of) != n:
        raise ValueError(
            "the P2 dependences form a cycle, so they do not split into "
            "disjoint monotonic chains (Lemma 1 does not hold)"
        )
    order = np.argsort(unit_of, kind="stable")  # chain by chain, in step order
    offsets = np.zeros(len(heads) + 1, dtype=np.int64)
    np.cumsum(np.bincount(unit_of, minlength=len(heads)), out=offsets[1:])
    return Phase(CHAIN_PHASE, 0, p2[np.concatenate(rows)[order]], offsets)
