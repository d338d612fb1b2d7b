"""Exact dependence computation for concrete loop bounds.

This is the package's stand-in for running the Omega library on the
dependence problem: for concrete parameter values it computes the *exact*
set of directly dependent iteration pairs of every reference pair — no
approximation, no direction-vector abstraction.

The implementation is address-matching rather than equation-solving: for a
reference pair ``(write W in S1, read/write R in S2)`` it

1. enumerates the iteration domains of S1 and S2 by scanning their loops,
   outermost first, on the loops' integer bound rows: each loop's range per
   outer point is one vectorised max/min of ceil'd/floor'd bound rows,
   expanded with ``repeat``/``arange`` (:func:`enumerate_domain`; exact
   integer arithmetic, lexicographic rows, no box to filter),
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

from ..ir.nodes import IntegerRow
from ..ir.program import StatementContext
from ..isl.relations import FiniteRelation, PointCodec, unique_index_pairs
from .pair import ReferencePair

__all__ = [
    "enumerate_domain",
    "reference_addresses",
    "exact_pair_dependences",
    "dependence_index_pairs",
]


def _bound(rows: Sequence[IntegerRow], env: Mapping[str, object], upper: bool):
    """The max of the ceil'd lower-bound rows (``upper`` false) or the min of
    the floor'd upper-bound rows, each row evaluated over ``env`` (names to
    ints or to ``(m,)`` int64 columns); ``None`` when a row reads a name
    ``env`` does not bind."""
    out = None
    for terms, value, den in rows:
        for name, c in terms:
            if name not in env:
                return None
            value = value + c * env[name]
        if den != 1:
            value = value // den if upper else -(-value // den)
        if out is None:
            out = value
        else:
            out = np.minimum(out, value) if upper else np.maximum(out, value)
    return out


def enumerate_domain(
    ctx: StatementContext,
    params: Mapping[str, int],
    parameters: Sequence[str] = (),
) -> np.ndarray:
    """All iteration points of a statement's domain as an ``(n, depth)`` array,
    in lexicographic (sequential) row order.

    A scan of the enclosing loops, outermost first, on their integer bound
    rows (:attr:`~repro.ir.nodes.Loop.lower_rows` / ``upper_rows``).  Each
    bound row is evaluated once as a vector over the ``m`` points of the
    outer prefix; a loop runs from the max of its ceil'd lower bounds to the
    min of its floor'd upper bounds (``MAX``/``MIN`` bounds, rational
    coefficients), and every prefix point is repeated once per value of its
    range.  The arithmetic is exact integer floor division, so the points
    are exactly the integer points of the domain's constraints, with no box
    to filter; an inner range that is empty for some outer values drops
    those prefixes.  Loops are taken as unit-stride (the analysis refuses
    any other).

    ``params`` binds the symbols of the bounds; a loop with a bound over a
    symbol it does not bind is unbounded, a :class:`ValueError`.
    ``parameters`` (the program's parameter names) is accepted for the
    callers that pass it; the scan reads each bound's own symbols.
    """
    env: Dict[str, object] = dict(params)
    columns: List[np.ndarray] = []
    m = 1  # points of the outer prefix
    for loop in ctx.loops:
        lo = _bound(loop.lower_rows, env, upper=False)
        hi = _bound(loop.upper_rows, env, upper=True)
        if lo is None or hi is None:
            raise ValueError(
                f"statement {ctx.statement.label}: variable {loop.index} is unbounded "
                f"with params {dict(params)}"
            )
        counts = np.broadcast_to(np.maximum(np.asarray(hi - lo + 1, dtype=np.int64), 0), (m,))
        ends = np.cumsum(counts)
        m = int(ends[-1]) if len(ends) else 0
        columns = [np.repeat(column, counts) for column in columns]
        # The k-th prefix point's values lo_k .. lo_k + counts_k - 1 sit at
        # rows ends_k - counts_k .. ends_k - 1.
        columns.append(np.repeat(lo + counts - ends, counts) + np.arange(m, dtype=np.int64))
        env.update(zip(ctx.index_names, columns))
    if not columns:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack(columns, axis=1)


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
