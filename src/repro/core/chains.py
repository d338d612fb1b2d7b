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
it keeps the P2-internal edges of Rd (read as row indices), refuses a relation that branches (where
Lemma 1 does not hold), and advances every chain one step at a time from its
head.  Every P2 point lands on exactly one chain and every P2-internal edge
joins consecutive points of one chain, by construction.
"""

from __future__ import annotations

import numpy as np

from .partition import ThreeSetPartition
from .schedule import Phase

__all__ = ["chain_phase", "CHAIN_PHASE"]

#: The name of the P2 phase :func:`chain_phase` builds.
CHAIN_PHASE = "P2 (recurrence chains)"


def chain_phase(partition: ThreeSetPartition) -> Phase:
    """The P2 phase of Algorithm 1: one unit per monotonic chain.

    The non-self edges of ``partition.rd`` with both endpoints in P2 are
    read off its row indices (:meth:`ThreeSetPartition.edge_indices`).  Each chain
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
    lo, hi = partition.edge_indices()
    size = len(partition.space_array())
    in_dom = np.bincount(lo, minlength=size) > 0
    in_ran = np.bincount(hi, minlength=size) > 0
    # local[i]: the index among the P2 rows of space row i (-1 outside P2).
    local = np.full(size, -1, dtype=np.int64)
    local[in_dom & in_ran] = np.arange(n, dtype=np.int64)
    a, b = local[lo], local[hi]
    keep = (lo != hi) & (a >= 0) & (b >= 0)
    a, b = a[keep], b[keep]
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
    has_pred = np.zeros(n, dtype=bool)
    has_pred[b] = True
    heads = np.flatnonzero(~has_pred)  # ascending index == lexicographic
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
