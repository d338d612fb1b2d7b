"""Exact dependence computation for concrete loop bounds.

This is the package's stand-in for running the Omega library on the
dependence problem: for concrete parameter values it computes the *exact*
set of directly dependent iteration pairs of every reference pair — no
approximation, no direction-vector abstraction.

The implementation is address-matching rather than equation-solving: for a
reference pair ``(write W in S1, read/write R in S2)`` it

1. enumerates the iteration domains of S1 and S2 (numpy grids filtered by the
   domain constraints — vectorised, exact integer arithmetic),
2. evaluates both references' subscript vectors for every iteration
   (one integer matrix multiply each),
3. joins the two address tables: every pair of iterations that touches
   the same array element is a direct dependence.

This is mathematically identical to enumerating the integer solutions of
``i·A + a = j·B + b`` inside Φ (eq. 2/3) and costs O(|Φ|) time and memory,
which comfortably covers the paper's problem sizes (3·10⁵ iterations).

Step 3 is a **sort/merge join**: each address vector is encoded into a
scalar int64 key with :class:`~repro.isl.relations.PointCodec` (which covers
address boxes of any width) and the tables are joined with ``np.argsort`` +
``np.searchsorted`` — the same sorted-key idiom as the partitioners — and the
matched rows go to :meth:`~repro.isl.relations.FiniteRelation.from_arrays`
without ever forming a Python tuple pair.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.program import StatementContext
from ..isl.enumerate_points import filter_box_numpy, iteration_points
from ..isl.relations import FiniteRelation, PointCodec
from .pair import ReferencePair

__all__ = ["enumerate_domain", "reference_addresses", "exact_pair_dependences"]


def enumerate_domain(
    ctx: StatementContext,
    params: Mapping[str, int],
    parameters: Sequence[str] = (),
) -> np.ndarray:
    """All iteration points of a statement's domain as an ``(n, depth)`` array.

    The domain may be non-rectangular (triangular bounds); a bounding box is
    built from the per-variable Fourier–Motzkin bounds and then filtered by the
    exact constraints, all vectorised.
    """
    domain = ctx.domain(parameters).bind_parameters(params)
    if not domain.variables:
        return np.zeros((1, 0), dtype=np.int64)
    box = []
    for v in domain.variables:
        lo, hi = domain.variable_bounds(v)
        if lo is None or hi is None:
            raise ValueError(
                f"statement {ctx.statement.label}: variable {v} is unbounded "
                f"with params {dict(params)}"
            )
        if lo > hi:
            return np.zeros((0, len(domain.variables)), dtype=np.int64)
        box.append((lo, hi))
    candidates = iteration_points(box)
    mask = filter_box_numpy(domain, candidates)
    return candidates[mask]


def reference_addresses(
    ref,
    index_order: Sequence[str],
    points: np.ndarray,
) -> np.ndarray:
    """Subscript vectors of ``ref`` for every iteration point (``(n, rank)``).

    Raises :class:`ValueError` if some subscript evaluates to a non-integer
    (cannot happen for integral coefficient matrices, which the IR validator
    enforces).
    """
    A, a = ref.coefficient_matrix(index_order)
    if A and any(c.denominator != 1 for row in A for c in row):
        raise ValueError(f"non-integer subscript coefficients in {ref}")
    if any(c.denominator != 1 for c in a):
        raise ValueError(f"non-integer subscript offsets in {ref}")
    A_np = np.array([[int(c) for c in row] for row in A], dtype=np.int64).reshape(
        len(index_order), len(a)
    )
    a_np = np.array([int(c) for c in a], dtype=np.int64)
    if points.shape[1] != len(index_order):
        raise ValueError("points dimensionality does not match the index order")
    return points @ A_np + a_np


def _sort_join(
    src_addr: np.ndarray, dst_addr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices ``(src_idx, dst_idx)`` of all address matches, vectorised.

    Encodes both address tables into scalar int64 keys with a shared
    :class:`PointCodec`, sorts the source keys once, and expands the
    ``searchsorted`` hit ranges of every target key into explicit index pairs
    — a sort/merge equi-join with no per-point Python objects.
    """
    codec = PointCodec.for_arrays(src_addr, dst_addr)
    src_keys = codec.encode(src_addr)
    dst_keys = codec.encode(dst_addr)
    order = np.argsort(src_keys, kind="stable")
    sorted_keys = src_keys[order]
    left = np.searchsorted(sorted_keys, dst_keys, side="left")
    right = np.searchsorted(sorted_keys, dst_keys, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    dst_idx = np.repeat(np.arange(len(dst_keys), dtype=np.int64), counts)
    # Per-match offset inside each target's hit range [left[j], right[j]).
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    src_idx = order[np.repeat(left, counts) + within]
    return src_idx, dst_idx


def exact_pair_dependences(
    pair: ReferencePair,
    params: Mapping[str, int],
    parameters: Sequence[str] = (),
    include_self: bool = False,
    domains: Optional[Mapping[str, np.ndarray]] = None,
) -> FiniteRelation:
    """Exact direct dependences of one reference pair for concrete bounds.

    The result maps iterations of the *source* statement to iterations of the
    *target* statement (the orientation of eq. 2; lexicographic orientation is
    applied later by the partitioners).  Pairs where both iterations are the
    same instance of the same statement are excluded unless ``include_self``.

    ``domains`` optionally maps statement labels to pre-enumerated
    ``(n, depth)`` domain arrays (lexicographic row order, as
    :func:`enumerate_domain` returns).  A program with ``p`` reference pairs
    enumerates each statement's domain ``O(p)`` times without it;
    :class:`~repro.dependence.analysis.DependenceAnalysis` passes its
    per-statement cache so every domain is enumerated exactly once.
    """

    def domain_of(ctx) -> np.ndarray:
        label = ctx.statement.label
        if domains is not None and label in domains:
            return domains[label]
        return enumerate_domain(ctx, params, parameters)

    src_points = domain_of(pair.source_ctx)
    dst_points = domain_of(pair.target_ctx)
    if len(src_points) == 0 or len(dst_points) == 0:
        return FiniteRelation.empty(src_points.shape[1], dst_points.shape[1])
    src_addr = reference_addresses(pair.source_ref, pair.source_indices, src_points)
    dst_addr = reference_addresses(pair.target_ref, pair.target_indices, dst_points)
    same_statement = pair.source_ctx.statement.label == pair.target_ctx.statement.label
    src_idx, dst_idx = _sort_join(src_addr, dst_addr)
    src_rows = src_points[src_idx]
    dst_rows = dst_points[dst_idx]
    if not include_self and same_statement:
        if src_rows.shape[1] != dst_rows.shape[1]:
            # Same statement implies equal depth; a rank mismatch here
            # would mean inconsistent contexts, so keep the guard explicit.
            raise ValueError("self-pair filtering requires equal point ranks")
        keep = (src_rows != dst_rows).any(axis=1)
        src_rows, dst_rows = src_rows[keep], dst_rows[keep]
    return FiniteRelation.from_arrays(src_rows, dst_rows)
