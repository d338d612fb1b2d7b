"""The recurrence form of a single coupled reference pair (§3.2, Theorem 1).

When the loop has a single pair of coupled references ``X[i·A + a]`` and
``X[j·B + b]`` with square, full-rank A and B, the dependence equation is an
affine recurrence between dependent iterations:

    j = i·T + u        with  T = A·B⁻¹,  u = (a − b)·B⁻¹

(and the inverse map ``i = (j − u)·T⁻¹`` for the other direction).  This is
the engine behind the WHILE-loop execution of monotonic chains: starting from
an iteration that depends on an initial iteration, repeatedly applying the map
visits exactly the iterations of one recurrence chain.

Theorem 1 of the paper bounds the chain length: with
``α = max(|det T|, |det T⁻¹|) > 1`` and ``L`` the Euclidean diameter of the
iteration space, any chain contains at most ``log_α(L) + 1`` iterations,
because consecutive distance vectors satisfy ``d_k = d_0·T^k`` and therefore
grow (or shrink, in the inverse direction) geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..dependence.pair import ReferencePair
from ..isl.linalg import RationalMatrix

__all__ = ["AffineRecurrence", "theorem1_bound"]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class AffineRecurrence:
    """The affine successor map ``next(i) = i·T + u`` of a reference pair."""

    T: RationalMatrix
    u: Tuple[Fraction, ...]

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_pair(pair: ReferencePair) -> "AffineRecurrence":
        rec = pair.recurrence()
        if rec is None:
            raise ValueError(
                f"reference pair {pair} has no recurrence form "
                f"(matrices not square or B singular)"
            )
        T, u = rec
        return AffineRecurrence(T, tuple(u))

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    # -- Theorem 1 ----------------------------------------------------------------------

    def expansion_factor(self) -> Fraction:
        """``α = max(|det T|, |det T⁻¹|)``."""
        det = self.T.det()
        if det == 0:
            raise ValueError("recurrence matrix T is singular")
        det_abs = abs(det)
        inv_abs = abs(Fraction(1, 1) / det)
        return max(det_abs, inv_abs)


def theorem1_bound(recurrence: AffineRecurrence, diameter: float) -> Optional[int]:
    """Theorem 1: maximum number of iterations on any recurrence chain.

    ``diameter`` is the maximal Euclidean distance ``L`` between two points of
    the iteration space.  Returns ``None`` when the bound does not apply
    (``α <= 1``, i.e. the map is volume preserving and chains may be long).
    """
    alpha = float(recurrence.expansion_factor())
    if alpha <= 1.0:
        return None
    if diameter <= 0:
        return 1
    return int(math.floor(math.log(diameter, alpha))) + 1


def iteration_space_diameter(points: Union[np.ndarray, Sequence[Point]]) -> float:
    """Euclidean diameter of a finite iteration space.

    Computed from the per-dimension extents (the diameter of an axis-aligned
    box containing the points), which upper-bounds — and for the rectangular
    spaces of the paper's examples equals — the true diameter.  ``points``
    may be a sequence of tuples or an ``(n, dim)`` int array; the array form
    reduces per axis with ``min``/``max`` and never boxes a point.
    """
    if isinstance(points, np.ndarray):
        if points.size == 0:
            return 0.0
        extents = (points.max(axis=0) - points.min(axis=0)).astype(float)
        return float(math.sqrt(float((extents**2).sum())))
    if not points:
        return 0.0
    dims = len(points[0])
    total = 0.0
    for d in range(dims):
        values = [p[d] for p in points]
        extent = max(values) - min(values)
        total += float(extent) ** 2
    return math.sqrt(total)

