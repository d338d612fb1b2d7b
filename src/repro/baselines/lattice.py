"""Distance-vector lattices shared by the uniformization baselines (PDM, PL).

Both the pseudo-distance-matrix scheme (Yu & D'Hollander, ICPP'00) and the
partitioning/labeling scheme for uniform loops (D'Hollander '92) replace the
real, non-uniform dependences by a small set of lexicographically positive
vectors whose integer combinations *cover* every real distance, and then
partition the iteration space by the lattice those vectors generate:

* two iterations in different lattice cosets can never depend on each other
  (their difference is not an integer combination of the covering vectors), so
  cosets are the parallel units;
* within a coset, iterations execute in lexicographic (sequential) order,
  which respects every real dependence because real dependences stay inside a
  coset and are lexicographically forward.

The schemes differ only in *which* covering vectors they use (see
:mod:`repro.baselines.pdm` and :mod:`repro.baselines.pl`); the coset machinery
lives here.  The artificial dependences the paper warns about are visible as
longer-than-necessary sequential cosets — exactly the effect that caps these
schemes' speedup in figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..isl.lexorder import is_lex_positive
from ..isl.linalg import hermite_normal_form, solve_diophantine
from ..isl.relations import lexsort_rows

__all__ = ["DistanceLattice", "pseudo_distance_matrix", "direction_basis"]

Point = Tuple[int, ...]


def pseudo_distance_matrix(distances: Iterable[Point], dim: int) -> List[Point]:
    """Pseudo distance vectors covering all distances (the PDM of ICPP'00).

    The Hermite normal form of the matrix whose rows are the observed distance
    vectors yields at most ``dim`` non-zero rows that (a) integrally generate
    every observed distance and (b) are lexicographically positive after the
    row reduction (the reduction keeps pivots positive and zeroes below them).
    An empty distance set yields an empty PDM (the loop is fully parallel).

    Each distance is folded into the running form in turn, so no call
    reduces more than ``dim + 1`` rows; the Hermite form of a lattice is
    unique, so the result is the one-shot form of all the distances.
    """
    H: List[List[int]] = []
    for d in distances:
        if any(x != 0 for x in d):
            H, _U = hermite_normal_form(H + [list(d)])
            H = [row for row in H if any(x != 0 for x in row)]
    pdm: List[Point] = []
    for row in H:
        vec = tuple(int(x) for x in row)
        if all(x == 0 for x in vec):
            continue
        if not is_lex_positive(vec):
            vec = tuple(-x for x in vec)
        pdm.append(vec)
    return pdm


def direction_basis(distances: Iterable[Point], dim: int) -> List[Point]:
    """The direction-vector style covering used by the PL / unimodular baseline.

    Wolf & Lam style dependence vectors keep only the per-component direction
    information, which is equivalent to covering the distances with *primitive*
    vectors (each PDM row divided by the gcd of its components).  The resulting
    lattice is denser, i.e. it introduces more artificial dependences — the
    behaviour the paper's related-work section attributes to the
    direction-vector representation.
    """
    from math import gcd

    primitive: List[Point] = []
    for vec in pseudo_distance_matrix(distances, dim):
        g = 0
        for x in vec:
            g = gcd(g, abs(int(x)))
        g = g or 1
        primitive.append(tuple(int(x) // g for x in vec))
    return primitive


@dataclass(frozen=True)
class DistanceLattice:
    """The integer lattice generated by a set of covering distance vectors.

    The Hermite normal form of the generators is computed once, on
    construction; :meth:`coset_keys` reduces a whole ``(n, dim)`` point
    array against it in one vectorised pass per HNF row.
    """

    generators: Tuple[Point, ...]
    dim: int
    #: ``(pivot column, row)`` per non-zero HNF row (rows echelon, pivots positive)
    _reducers: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        reducers = []
        if self.generators:
            H, _U = hermite_normal_form([list(g) for g in self.generators])
            for row in H:
                pivot_col = next((c for c, x in enumerate(row) if x != 0), None)
                if pivot_col is not None:
                    reducers.append((pivot_col, tuple(int(x) for x in row)))
        object.__setattr__(self, "_reducers", tuple(reducers))

    @staticmethod
    def from_vectors(vectors: Sequence[Point], dim: int) -> "DistanceLattice":
        gens = tuple(tuple(int(x) for x in v) for v in vectors if any(v))
        return DistanceLattice(gens, dim)

    def contains(self, vector: Sequence[int]) -> bool:
        """True when ``vector`` is an integer combination of the generators."""
        if all(x == 0 for x in vector):
            return True
        if not self.generators:
            return False
        # Solve  G^T · k = vector  over the integers (k are the combination
        # coefficients, one per generator).
        matrix = [[self.generators[g][d] for g in range(len(self.generators))] for d in range(self.dim)]
        return solve_diophantine(matrix, [int(x) for x in vector]) is not None

    def covers(self, distances: Iterable[Point]) -> bool:
        """Every distance is an integer combination of the generators."""
        return all(self.contains(d) for d in distances)

    def coset_keys(self, points: np.ndarray) -> np.ndarray:
        """A canonical representative of each row's lattice coset, ``(n, dim)``.

        Two points get the same key iff their difference lies in the lattice.
        Each point is reduced modulo the Hermite form of the generator
        matrix, pivot column by pivot column.
        """
        residue = np.array(points, dtype=np.int64).reshape(-1, self.dim)
        for pivot_col, row in self._reducers:
            q = residue[:, pivot_col] // row[pivot_col]
            residue -= q[:, None] * np.asarray(row, dtype=np.int64)
        return residue

    def group(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, offsets)``: the cosets of ``points`` as CSR over a permutation.

        ``points[order]`` lists the cosets one after another, by ascending
        key, each in lexicographic order; coset ``c`` owns positions
        ``offsets[c]:offsets[c+1]`` of it.
        """
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.dim)
        keys = self.coset_keys(pts)
        order = lexsort_rows(np.concatenate([keys, pts], axis=1))
        keys = keys[order]
        starts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
        offsets = np.concatenate(([0], starts, [len(pts)])) if len(pts) else np.zeros(1)
        return order, offsets.astype(np.int64)
