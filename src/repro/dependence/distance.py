"""Dependence distances, direction vectors, and uniformity classification.

§2 of the paper defines a loop's dependences as *uniform* when shifting any
dependent pair by an arbitrary vector ``c`` yields another dependent pair as
long as both ends stay inside the iteration space, and *non-uniform*
otherwise.  This module implements:

* distance / direction vector extraction from an exact dependence relation,
* the exhaustive (definition-level) uniformity check for concrete bounds,
* the cheap matrix-level classification used on large corpora
  (a coupled pair with ``A == B`` is uniform; different matrices of full rank
  generate iteration-dependent distances, i.e. non-uniform dependences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple, Union

import numpy as np

from ..isl.relations import FiniteRelation, PointCodec, in_sorted, sorted_unique, unique_rows
from .pair import ReferencePair

__all__ = [
    "distance_vectors",
    "direction_vectors",
    "is_uniform_relation",
    "is_uniform_relation_arrays",
    "is_uniform_distances",
    "classify_pair",
    "PairClassification",
]

Point = Tuple[int, ...]


def distance_vectors(relation: FiniteRelation) -> Set[Point]:
    """All distance vectors ``target − source`` of the relation."""
    return relation.distances()


def direction_vectors(relation: FiniteRelation) -> Set[Tuple[str, ...]]:
    """Direction vectors: the sign pattern ('<', '=', '>') per dimension."""
    out: Set[Tuple[str, ...]] = set()
    for d in relation.distances():
        out.add(tuple("<" if x > 0 else (">" if x < 0 else "=") for x in d))
    return out


def is_uniform_relation(
    relation: FiniteRelation, space_points: Union[np.ndarray, Iterable[Point]]
) -> bool:
    """Exhaustive uniformity check (the definition in §2).

    ``relation`` must contain the *direct* dependences within the iteration
    space whose points are ``space_points``.  The dependences are uniform iff
    for every dependent pair ``(i, j)`` and every shift ``c`` such that both
    ``i+c`` and ``j+c`` lie in the space, ``(i+c, j+c)`` is also dependent.
    Equivalently (and much cheaper): for every distance vector ``d`` in the
    relation, every point ``p`` with ``p+d`` in the space must satisfy
    ``(p, p+d) ∈ relation``.

    ``space_points`` is an ``(n, dim)`` int array or an iterable of point
    tuples; the check runs on the array form (:func:`is_uniform_relation_arrays`).
    """
    if not isinstance(space_points, np.ndarray):
        points = [tuple(p) for p in space_points]
        space_points = np.array(points, dtype=np.int64).reshape(
            len(points), relation.dim_in
        )
    return is_uniform_relation_arrays(relation, space_points)


def is_uniform_relation_arrays(relation: FiniteRelation, space: np.ndarray) -> bool:
    """Uniformity check on the array form, no per-point Python objects.

    An adapter over :func:`is_uniform_distances`: the space's rows are
    deduplicated (the definition treats Φ as a set) and the relation's
    endpoints located among them by :class:`PointCodec` key.  Pairs with an
    endpoint outside ``space`` contribute their distance but not their
    count — exactly matching the per-point definition check.  Raises
    :class:`ValueError` for a heterogeneous relation.
    """
    space = np.asarray(space, dtype=np.int64)
    if relation.is_empty():
        return True
    if relation.dim_in != relation.dim_out:
        raise ValueError("uniformity requires a homogeneous relation")
    if relation.dim_in == 0:
        # Rank-0 space: the only possible pair is () -> (), trivially uniform.
        return True
    src, dst = relation.as_arrays()
    codec = PointCodec.for_arrays(space, src, dst)
    keys = sorted_unique(codec.encode(space))
    in_space = in_sorted(codec.encode(src), keys) & in_sorted(codec.encode(dst), keys)
    return is_uniform_distances(codec.decode(keys), codec, keys, dst - src, in_space)


def is_uniform_distances(
    rows: np.ndarray,
    codec: PointCodec,
    keys: np.ndarray,
    distances: np.ndarray,
    in_space: Optional[np.ndarray] = None,
) -> bool:
    """The uniformity count on a space given as sorted unique rows.

    ``keys`` are the rows' ascending ``codec`` keys and ``distances`` the
    ``target − source`` rows of every dependence; ``in_space`` masks the
    pairs with both ends in the space (all of them when omitted).  For a
    distance ``d`` the in-space pairs with that distance are always a subset
    of the valid placements ``{(p, p+d) : p ∈ Φ, p+d ∈ Φ}``, so the
    dependences are uniform iff for every distance the two cardinalities
    agree.  The distinct distances come from one scalar-key unique.
    """
    distinct, inverse = unique_rows(distances, return_inverse=True)
    if in_space is not None:
        inverse = inverse[in_space]
    have = np.bincount(inverse, minlength=len(distinct))
    for d, count in zip(distinct, have.tolist()):
        shifted = rows + d
        in_box = codec.contains(shifted)
        if int(in_sorted(codec.encode(shifted[in_box]), keys).sum()) != count:
            return False
    return True


@dataclass(frozen=True)
class PairClassification:
    """Static classification of a reference pair."""

    coupled: bool
    uniform_by_matrix: bool
    square_full_rank: bool
    ranks: Tuple[int, int]


def classify_pair(pair: ReferencePair) -> PairClassification:
    """Matrix-level classification (no enumeration, works with symbolic bounds)."""
    return PairClassification(
        coupled=pair.is_coupled(),
        uniform_by_matrix=pair.is_uniform(),
        square_full_rank=pair.is_square_full_rank(),
        ranks=pair.ranks(),
    )
