"""Integer point enumeration for bounded convex sets.

Exact dependence analysis on concrete problem sizes ultimately needs the
actual integer points of iteration spaces and dependence relations (the
runtime executors iterate over them, the validators compare them against
brute force).  This module provides:

* :func:`iteration_points` — the dense integer grid of a box, in
  lexicographic order;
* :func:`filter_box_numpy` — vectorised evaluation of the constraints over an
  explicit candidate box using numpy, used by the dependence analyser when a
  whole iteration space (hundreds of thousands of points) must be classified
  at once.  This is the "vectorise the inner loop" idiom from the HPC Python
  guides: constraint evaluation becomes a handful of matrix operations instead
  of a Python-level loop per point.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .convex import ConvexSet, EQ

__all__ = [
    "filter_box_numpy",
    "iteration_points",
]


def _constraint_matrix(
    cs: ConvexSet, params: Mapping[str, int] | None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A_ge, b_ge) and equality rows for vectorised evaluation.

    The rows are integer already, so the numpy evaluation is exact (int64
    arithmetic on affine forms of small magnitude).
    """
    param_vals = dict(params or {})
    ge_rows: List[List[int]] = []
    ge_consts: List[int] = []
    eq_rows: List[List[int]] = []
    eq_consts: List[int] = []
    for c in cs.constraints:
        if param_vals:
            c = c.substitute(param_vals)
        leftover = [n for n, _ in c.coeffs if n not in cs.variables]
        if leftover:
            raise ValueError(f"unbound symbols in constraint: {leftover}")
        row = [c.coeff(v) for v in cs.variables]
        if c.kind == EQ:
            eq_rows.append(row)
            eq_consts.append(c.constant)
        else:
            ge_rows.append(row)
            ge_consts.append(c.constant)
    A_ge = np.array(ge_rows, dtype=np.int64).reshape(len(ge_rows), len(cs.variables))
    b_ge = np.array(ge_consts, dtype=np.int64)
    A_eq = np.array(eq_rows, dtype=np.int64).reshape(len(eq_rows), len(cs.variables))
    b_eq = np.array(eq_consts, dtype=np.int64)
    return A_ge, b_ge, np.concatenate([A_eq, b_eq.reshape(-1, 1)], axis=1) if len(eq_rows) else np.zeros((0, len(cs.variables) + 1), dtype=np.int64)


def filter_box_numpy(
    cs: ConvexSet,
    candidates: np.ndarray,
    params: Mapping[str, int] | None = None,
) -> np.ndarray:
    """Return the boolean mask of candidate rows that belong to the set.

    ``candidates`` is an ``(n, dim)`` int array whose columns follow
    ``cs.variables``.  All arithmetic is integer, hence exact.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.ndim != 2 or candidates.shape[1] != len(cs.variables):
        raise ValueError("candidates must be (n, dim) with dim matching the set")
    A_ge, b_ge, eq = _constraint_matrix(cs, params)
    mask = np.ones(len(candidates), dtype=bool)
    if len(A_ge):
        vals = candidates @ A_ge.T + b_ge
        mask &= (vals >= 0).all(axis=1)
    if len(eq):
        A_eq = eq[:, :-1]
        b_eq = eq[:, -1]
        vals = candidates @ A_eq.T + b_eq
        mask &= (vals == 0).all(axis=1)
    return mask


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
