"""Uniformity of dependences: the definition-level check and the matrix-level
classification.

§2 of the paper defines a loop's dependences as *uniform* when shifting any
dependent pair by an arbitrary vector ``c`` yields another dependent pair as
long as both ends stay inside the iteration space, and *non-uniform*
otherwise.  This module implements:

* the exhaustive (definition-level) uniformity check for concrete bounds,
  on a space's rows and the distances of its dependences
  (:func:`is_uniform_distances`, which
  :meth:`~repro.dependence.analysis.DependenceAnalysis.is_uniform` runs on
  the statement-level space's Rd indices),
* the cheap matrix-level classification used on large corpora
  (a coupled pair with ``A == B`` is uniform; different matrices of full rank
  generate iteration-dependent distances, i.e. non-uniform dependences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..isl.relations import PointCodec, in_sorted, unique_rows
from .pair import ReferencePair

__all__ = [
    "is_uniform_distances",
    "classify_pair",
    "PairClassification",
]


def is_uniform_distances(
    rows: np.ndarray,
    codec: PointCodec,
    keys: np.ndarray,
    distances: np.ndarray,
) -> bool:
    """The uniformity count on a space given as sorted unique rows.

    ``keys`` are the rows' ascending ``codec`` keys and ``distances`` the
    ``target − source`` rows of every dependence, each with both ends in
    the space.  For a distance ``d`` those pairs are always a subset of the
    valid placements ``{(p, p+d) : p ∈ Φ, p+d ∈ Φ}``, so the dependences are
    uniform iff for every distance the two cardinalities agree.  The
    distinct distances come from one scalar-key unique.
    """
    distinct, inverse = unique_rows(distances, return_inverse=True)
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
