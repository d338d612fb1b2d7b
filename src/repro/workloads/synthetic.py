"""Synthetic non-uniform loop generator.

Property-based tests and the statistics experiment need a stream of loop nests
with controlled characteristics (coupled vs separable subscripts, uniform vs
non-uniform distances, loop depth, bound sizes).  The generator produces
2-D perfect nests of the same family as the paper's examples:

    DO I1 = 1, N1
      DO I2 = 1, N2
        X[ I·A + a ] = X[ I·B + b ]

with small random integer matrices A, B and offsets a, b.  The matrices are
kept within a configurable magnitude so that subscripts stay inside a modest
array and the exact analyser stays fast, and the generator reports the ground
truth classification (uniform iff A == B) so classifier tests have labels.

Besides the random generator, the module provides the **large-N scaling
entries** used by ``benchmarks/bench_scale_partition.py``:
:func:`large_uniform_loop` (a single-uniform-pair program with arbitrarily
large bounds) and :func:`scale_partition_case` (its iteration space and exact
dependence relation built directly as numpy arrays, sidestepping the exact
analyser so 10⁵–10⁶-point spaces are cheap to set up).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ir.builder import aref, assign, loop, program
from ..ir.nodes import ArrayRef
from ..ir.program import LoopProgram
from ..isl.affine import AffineExpr
from ..isl.enumerate_points import iteration_points
from ..isl.relations import FiniteRelation

__all__ = [
    "SyntheticLoopSpec",
    "random_coupled_loop",
    "generate_corpus_programs",
    "large_uniform_loop",
    "large_triangular_loop",
    "large_cholesky_nest",
    "scale_partition_case",
]


@dataclass(frozen=True)
class SyntheticLoopSpec:
    """Ground-truth description of one generated loop."""

    program: LoopProgram
    A: Tuple[Tuple[int, int], Tuple[int, int]]
    a: Tuple[int, int]
    B: Tuple[Tuple[int, int], Tuple[int, int]]
    b: Tuple[int, int]
    coupled: bool
    uniform: bool
    full_rank: bool
    bounds: Tuple[int, int]


def _subscript_exprs(
    M: Sequence[Sequence[int]], offset: Sequence[int], names: Sequence[str]
) -> List[AffineExpr]:
    exprs = []
    for col in range(len(offset)):
        coeffs = {names[row]: M[row][col] for row in range(len(names)) if M[row][col] != 0}
        exprs.append(AffineExpr.build(coeffs, offset[col]))
    return exprs


def _det2(M: Sequence[Sequence[int]]) -> int:
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def random_coupled_loop(
    rng: random.Random,
    n1: int = 12,
    n2: int = 12,
    coeff_range: int = 3,
    offset_range: int = 6,
    force_uniform: Optional[bool] = None,
    force_full_rank: bool = False,
    name: str = "synthetic",
) -> SyntheticLoopSpec:
    """Generate one random 2-D coupled-subscript loop with known ground truth.

    ``force_uniform=True`` copies A into B (guaranteeing uniform distances),
    ``force_uniform=False`` re-draws B until it differs from A;
    ``force_full_rank=True`` re-draws until both matrices are invertible.
    """

    def draw_matrix() -> Tuple[Tuple[int, int], Tuple[int, int]]:
        while True:
            M = tuple(
                tuple(rng.randint(-coeff_range, coeff_range) for _ in range(2))
                for _ in range(2)
            )
            if any(any(x != 0 for x in row) for row in M):
                if not force_full_rank or _det2(M) != 0:
                    return M

    A = draw_matrix()
    if force_uniform is True:
        B = A
    else:
        B = draw_matrix()
        while force_uniform is False and B == A:
            B = draw_matrix()
    a = (rng.randint(0, offset_range), rng.randint(0, offset_range))
    b = (rng.randint(0, offset_range), rng.randint(0, offset_range))

    names = ("I1", "I2")
    # Shift subscripts so every access is non-negative inside the bounds.
    max_extent = (coeff_range * (n1 + n2) + offset_range) * 2 + 4
    shift = coeff_range * (n1 + n2) + offset_range + 2
    write_subs = [e + shift for e in _subscript_exprs(A, a, names)]
    read_subs = [e + shift for e in _subscript_exprs(B, b, names)]

    body = assign(
        "s",
        ArrayRef("x", tuple(write_subs)),
        [ArrayRef("x", tuple(read_subs))],
    )
    prog = program(
        name,
        loop("I1", 1, n1, loop("I2", 1, n2, body)),
        array_shapes={"x": (2 * max_extent + shift, 2 * max_extent + shift)},
    )
    # "Coupled" in the paper's sense: some loop index feeds more than one
    # subscript dimension, or some dimension mixes several indices, in either
    # reference of the pair.
    def is_coupled(M) -> bool:
        rows_mixed = any(sum(1 for x in row if x != 0) >= 2 for row in M)
        cols_mixed = any(
            sum(1 for r in range(2) if M[r][c] != 0) >= 2 for c in range(2)
        )
        return rows_mixed or cols_mixed

    coupled = is_coupled(A) or is_coupled(B)
    return SyntheticLoopSpec(
        program=prog,
        A=A,
        a=a,
        B=B,
        b=b,
        coupled=coupled,
        uniform=(A == B),
        full_rank=(_det2(A) != 0 and _det2(B) != 0),
        bounds=(n1, n2),
    )


def large_uniform_loop(
    n1: int, n2: int, name: str = "large-uniform", semantics=None
) -> LoopProgram:
    """A 2-D nest with one uniform coupled pair, usable at very large bounds.

        DO I1 = 1, n1
          DO I2 = 1, n2
            x(I1+1, I2+1) = x(I1, I2)

    The single flow dependence is ``(i1, i2) -> (i1+1, i2+1)``, so the exact
    relation is known in closed form (see :func:`scale_partition_case`) and the
    program scales to the 10⁵–10⁶-iteration spaces the array partitioners
    target without paying the exact analyser's pair enumeration.

    ``semantics`` overrides the statement's executable meaning (e.g.
    :func:`repro.ir.semantics.compute_heavy_semantics` for the
    process-backend speedup benchmark, where per-instance compute must
    dominate interpreter dispatch).
    """
    body = assign(
        "s", aref("x", "I1+1", "I2+1"), [aref("x", "I1", "I2")],
        semantics=semantics,
    )
    return program(
        name,
        loop("I1", 1, n1, loop("I2", 1, n2, body)),
        array_shapes={"x": (n1 + 2, n2 + 2)},
    )


def large_triangular_loop(n: int, name: str = "large-triangular") -> LoopProgram:
    """A triangular 2-D nest with one uniform pair, usable at very large bounds.

        DO I1 = 1, n
          DO I2 = 1, I1
            x(I1+1, I2+1) = x(I1, I2)

    The iteration space has ``n·(n+1)/2`` points (``n = 447`` is the smallest
    bound reaching 10⁵), and
    the inner bound depends on the outer index, so the exact analyser's
    **non-rectangular path** — bounding-box enumeration + constraint filtering
    followed by the address join — is exercised at scale, unlike
    :func:`large_uniform_loop` whose domains are dense boxes.  The single flow
    dependence ``(i1, i2) -> (i1+1, i2+1)`` never leaves the triangle
    (``i2 ≤ i1`` implies ``i2+1 ≤ i1+1``), so every interior point is both a
    source and a target.
    """
    body = assign("s", aref("x", "I1+1", "I2+1"), [aref("x", "I1", "I2")])
    return program(
        name,
        loop("I1", 1, n, loop("I2", 1, "I1", body)),
        array_shapes={"x": (n + 2, n + 2)},
    )


def large_cholesky_nest(n: int, name: str = "large-cholesky-nest") -> LoopProgram:
    """A multi-statement triangular imperfect nest, usable at very large bounds.

        DO I = 1, n
          DO J = 1, I
            s1:  tmp(I, J) = a(J, J)     ! panel update reads the diagonal
          ENDDO
          s2:  a(I, I) = tmp(I, I)       ! diagonal update consumes s1's element
        ENDDO

    The shape of one step of a Cholesky factorization — a triangular panel
    update reading the diagonal element, then the diagonal update — reduced to
    a single coupled array so the dependence structure stays exactly
    analysable:

    * flow ``s2(j) → s1(i, j)`` for every ``j < i`` through ``a(j, j)``
      (≈ ``n²/2`` pairs — one unified dependence per panel instance),
    * flow/anti ``s1(i, i) ↔ s2(i)`` through ``tmp(i, i)`` and ``a(i, i)``
      (the intra-row coupling that forces statement level; merged into one
      forward pair per row after orientation).

    The statement-level dataflow partition is three wavefronts — all
    ``s1(i, i)``, then every ``s2``, then the off-diagonal panel — so the
    end-to-end cost at 10⁵⁺ instances is dominated by the §3.3 unified-space
    construction and the Rd mapping, exactly the path the array-native
    statement level vectorises (``n = 447`` is the smallest bound whose
    ``n·(n+1)/2 + n`` instances reach 10⁵).  The nest is imperfect *and*
    non-rectangular, so both the statement mapping and the bounding-box
    domain enumeration are exercised at scale.
    """
    s1 = assign("s1", aref("tmp", "I", "J"), [aref("a", "J", "J")])
    s2 = assign("s2", aref("a", "I", "I"), [aref("tmp", "I", "I")])
    return program(
        name,
        loop("I", 1, n, loop("J", 1, "I", s1), s2),
        array_shapes={"tmp": (n + 1, n + 1), "a": (n + 1, n + 1)},
    )


def scale_partition_case(
    n1: int, n2: int, distance: Tuple[int, int] = (1, 1)
) -> Tuple[np.ndarray, FiniteRelation]:
    """The large-N scaling workload of the partitioning benchmarks.

    Returns the ``(n1·n2, 2)`` iteration-space array of the ``1..n1 × 1..n2``
    box together with the exact, forward-oriented uniform dependence relation
    ``{ i -> i + distance }`` (pairs whose target leaves the box are dropped).
    Everything is built vectorised, so 10⁶-point cases materialise in
    milliseconds; the relation matches what
    :class:`~repro.dependence.analysis.DependenceAnalysis` derives for
    :func:`large_uniform_loop` when ``distance == (1, 1)`` (cross-checked by a
    test).
    """
    d = np.asarray(distance, dtype=np.int64)
    if not (d[0] > 0 or (d[0] == 0 and d[1] > 0)):
        raise ValueError(
            f"distance {tuple(distance)} must be lexicographically positive "
            f"(the relation must be oriented forward)"
        )
    space = iteration_points([(1, n1), (1, n2)])
    shifted = space + d
    inside = (
        (shifted >= np.array([1, 1], dtype=np.int64))
        & (shifted <= np.array([n1, n2], dtype=np.int64))
    ).all(axis=1)
    return space, FiniteRelation.from_arrays(space[inside], shifted[inside])


def generate_corpus_programs(
    seed: int,
    count: int,
    uniform_fraction: float = 0.5,
    n1: int = 10,
    n2: int = 10,
) -> List[SyntheticLoopSpec]:
    """A reproducible batch of synthetic loops with a given uniform fraction."""
    rng = random.Random(seed)
    specs = []
    for k in range(count):
        uniform = rng.random() < uniform_fraction
        specs.append(
            random_coupled_loop(
                rng,
                n1=n1,
                n2=n2,
                force_uniform=uniform,
                name=f"synthetic-{k}",
            )
        )
    return specs
