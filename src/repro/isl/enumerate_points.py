"""Integer point enumeration for bounded convex sets.

Exact dependence analysis on concrete problem sizes ultimately needs the
actual integer points of iteration spaces and dependence relations (the
runtime executors iterate over them, the validators compare them against
brute force).  This module provides two complementary strategies:

* :func:`enumerate_convex` — recursive descent over per-variable
  Fourier–Motzkin bounds.  Works for any bounded convex set and any dimension;
  cost proportional to the traversed sub-box.
* :func:`filter_box_numpy` — vectorised evaluation of the constraints over an
  explicit candidate box using numpy, used by the dependence analyser when a
  whole iteration space (hundreds of thousands of points) must be classified
  at once.  This is the "vectorise the inner loop" idiom from the HPC Python
  guides: constraint evaluation becomes a handful of matrix operations instead
  of a Python-level loop per point.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .convex import ConvexSet, EQ

__all__ = [
    "EnumerationTruncated",
    "enumerate_convex",
    "filter_box_numpy",
    "iteration_points",
]


class EnumerationTruncated(RuntimeError):
    """``max_points`` cut off an incomplete enumeration.

    Carries the truncated prefix in :attr:`points` so callers that can live
    with a partial result still get it.  Raised instead of silently returning
    a truncated list, so a capped enumeration can never be mistaken for a
    complete one; pass ``allow_truncated=True`` to opt into the old behaviour.
    """

    def __init__(self, message: str, points: List[Tuple[int, ...]]):
        super().__init__(message)
        self.points = points


def enumerate_convex(
    cs: ConvexSet,
    params: Mapping[str, int] | None = None,
    max_points: Optional[int] = None,
    allow_truncated: bool = False,
) -> List[Tuple[int, ...]]:
    """Enumerate all integer points of a bounded convex set.

    Raises :class:`ValueError` when some variable is unbounded (after binding
    the supplied parameter values) — iteration spaces must be finite to be
    enumerated.  ``max_points`` optionally caps the result as a safety net;
    when the cap actually cuts points off, :class:`EnumerationTruncated` is
    raised (with the truncated prefix attached) unless ``allow_truncated=True``,
    in which case the truncated list is returned.  An enumeration that finishes
    exactly at the cap is complete and never raises.
    """
    work = cs if params is None else cs.bind_parameters(params)
    work = work.simplified()
    if work.parameters:
        raise ValueError(
            f"cannot enumerate a parametric set; unbound parameters: {work.parameters}"
        )
    if work.is_obviously_empty():
        return []
    points: List[Tuple[int, ...]] = []
    # Probe one point past the cap so a complete enumeration that exactly fills
    # the cap is distinguishable from a truncated one.
    probe = None if max_points is None else max_points + 1
    _enumerate_rec(work, (), points, probe)
    if max_points is not None and len(points) > max_points:
        del points[max_points:]
        if not allow_truncated:
            raise EnumerationTruncated(
                f"enumeration stopped at max_points={max_points} but the set has "
                f"more integer points; pass allow_truncated=True for the prefix",
                points,
            )
    return points


def _enumerate_rec(
    cs: ConvexSet,
    prefix: Tuple[int, ...],
    out: List[Tuple[int, ...]],
    max_points: Optional[int],
) -> None:
    if max_points is not None and len(out) >= max_points:
        return
    if not cs.variables:
        if all(c.is_tautology() for c in cs.constraints):
            out.append(prefix)
        return
    name = cs.variables[0]
    rest = cs.variables[1:]
    lo, hi = cs.variable_bounds(name)
    if lo is None or hi is None:
        # An infeasible set loses its bound constraints during projection
        # (the contradiction swallows them); that is emptiness, not unboundedness.
        from .convex import _rationally_infeasible

        if _rationally_infeasible(cs):
            return
        raise ValueError(f"variable {name!r} is unbounded; cannot enumerate")
    for value in range(lo, hi + 1):
        child = ConvexSet(
            rest, tuple(c.substitute({name: value}) for c in cs.constraints), ()
        ).simplified()
        if child.is_obviously_empty():
            continue
        _enumerate_rec(child, prefix + (value,), out, max_points)
        if max_points is not None and len(out) >= max_points:
            return


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
