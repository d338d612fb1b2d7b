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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.program import StatementContext
from ..isl.enumerate_points import filter_box_numpy, iteration_points
from ..isl.relations import FiniteRelation, PointCodec, unique_index_pairs
from .pair import ReferencePair

__all__ = [
    "enumerate_domain",
    "reference_addresses",
    "exact_pair_dependences",
    "dependence_index_pairs",
]


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

    One integer matrix multiply over the reference's integer coefficient
    matrix (:meth:`~repro.ir.nodes.ArrayRef.integer_coefficient_matrix`,
    which raises :class:`ValueError` for a non-integer subscript — the IR
    validator rejects those).
    """
    if points.shape[1] != len(index_order):
        raise ValueError("points dimensionality does not match the index order")
    A, a = ref.integer_coefficient_matrix(index_order)
    A_np = np.array(A, dtype=np.int64).reshape(len(index_order), len(a))
    return points @ A_np + np.array(a, dtype=np.int64)


def _sort_join(
    src_keys: np.ndarray, dst_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices ``(src_idx, dst_idx)`` of all key matches, vectorised.

    The keys are two address tables encoded by one shared
    :class:`PointCodec`.  Sorts the source keys once and expands the
    ``searchsorted`` hit ranges of every target key into explicit index
    pairs — a sort/merge equi-join with no per-point Python objects.
    """
    order = np.argsort(src_keys)
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
    codec = PointCodec.for_arrays(src_addr, dst_addr)
    src_idx, dst_idx = _sort_join(codec.encode(src_addr), codec.encode(dst_addr))
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


def dependence_index_pairs(
    pairs: Sequence[ReferencePair],
    domains: Mapping[str, np.ndarray],
    row_index: Mapping[str, np.ndarray],
    n_rows: int,
) -> Tuple[np.ndarray, np.ndarray, Tuple[bool, ...]]:
    """A whole program's Rd as row-index pairs ``(lo, hi)`` of one space.

    ``domains`` maps each statement label to its ``(n_s, depth)`` domain
    rows and ``row_index`` to the ``(n_s,)`` indices of those instances
    among the ``n_rows`` rows of a space whose index order is the
    sequential order (the §3.3 statement-level space).

    Each ``(statement, reference)``'s addresses are computed and encoded
    once, under one :class:`PointCodec` per array.  Each reference pair is
    then one :func:`_sort_join` of those keys, shifted to space indices,
    with the matches of an instance on itself dropped.  Every match is
    oriented earlier → later as ``(min, max)`` (index order is sequential
    order, eq. 4) and the union is deduplicated by one scalar unique
    (:func:`~repro.isl.relations.unique_index_pairs`), so the pairs come
    back unique and ascending by ``(lo, hi)``.  The flags, parallel to ``pairs``, tell which reference
    pair has at least one dependence.
    """
    # A member is one reference of one statement, keyed by identity: the
    # pairs share their statements' reference objects.
    members: Dict[str, Dict[Tuple[str, int], np.ndarray]] = {}
    for pair in pairs:
        for ctx, ref in ((pair.source_ctx, pair.source_ref), (pair.target_ctx, pair.target_ref)):
            label = ctx.statement.label
            table = members.setdefault(ref.array, {})
            if (label, id(ref)) not in table:
                table[(label, id(ref))] = reference_addresses(
                    ref, ctx.index_names, domains[label]
                )
    keys: Dict[Tuple[str, int], np.ndarray] = {}
    for table in members.values():
        if not any(len(addr) for addr in table.values()):
            keys.update((member, np.zeros(0, dtype=np.int64)) for member in table)
            continue
        codec = PointCodec.for_arrays(*table.values())
        keys.update((member, codec.encode(addr)) for member, addr in table.items())

    lo_blocks: List[np.ndarray] = []
    hi_blocks: List[np.ndarray] = []
    flags: List[bool] = []
    for pair in pairs:
        src_label = pair.source_ctx.statement.label
        dst_label = pair.target_ctx.statement.label
        src_idx, dst_idx = _sort_join(
            keys[(src_label, id(pair.source_ref))], keys[(dst_label, id(pair.target_ref))]
        )
        src_rows = row_index[src_label][src_idx]
        dst_rows = row_index[dst_label][dst_idx]
        keep = src_rows != dst_rows
        if not keep.all():
            src_rows, dst_rows = src_rows[keep], dst_rows[keep]
        flags.append(bool(len(src_rows)))
        lo_blocks.append(np.minimum(src_rows, dst_rows))
        hi_blocks.append(np.maximum(src_rows, dst_rows))
    if not any(flags):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), tuple(flags)
    lo, hi = unique_index_pairs(np.concatenate(lo_blocks), np.concatenate(hi_blocks), n_rows)
    return lo, hi, tuple(flags)
