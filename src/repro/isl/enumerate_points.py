"""The dense integer grid of a box.

:func:`iteration_points` lists every integer point of a rectangular box in
lexicographic order, which is the sequential order of a normalized loop
nest over that box (the synthetic scaling workloads build their spaces with
it).  A statement's possibly non-rectangular domain is scanned from its loop
bounds instead (:func:`repro.dependence.exact.enumerate_domain`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["iteration_points"]


def iteration_points(
    bounds: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """Dense integer grid for a rectangular box, as an ``(n, dim)`` array.

    Lexicographic (row-major) order, matching sequential loop execution order
    of a normalized loop nest with those bounds.
    """
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    if not axes:
        return np.zeros((1, 0), dtype=np.int64)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)
