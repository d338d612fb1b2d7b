"""Shared Hypothesis strategies: random small :class:`LoopProgram` s.

The differential test modules need a stream of loop programs covering the
shapes the statement-level extension (§3.3) must handle — 1–3 statements in
loop trees of depth ≤ 3 (statements at any level, sibling loops at any
level, several top-level nests, index names reused across siblings),
rectangular *and* triangular bounds, affine subscripts with negative
coefficients — while
staying small enough that the exact analyser, the partitioners and the oracle
run in milliseconds per example.

Design constraints baked into the generator:

* every generated program is **normalized** (unit strides, lower bound 1), so
  the §3.3 mapping property (program order == lexicographic unified order)
  holds by construction — the property test asserts it rather than assumes it;
* statement labels are ``s1, s2, ...`` in syntactic order (unique by
  construction, as the IR requires);
* arrays come from a fixed pool with fixed ranks (``x`` rank 2, ``y`` rank 1)
  and every subscript is shifted to be non-negative inside the bounds, so the
  declared shapes cover all accesses and generated schedules can be *executed*
  by the runtime validators, not just analysed.

Use :func:`loop_programs` as a strategy::

    from strategies import loop_programs

    @given(prog=loop_programs())
    def test_something(prog): ...

:func:`symbolic_programs` draws the narrower family the ``symbolic``
strategy plans (one statement, rectangular bounds, one uniform distance), and
:func:`lemma1_programs` the family of Lemma 1 that ``recurrence-chains``
plans (one statement, one coupled pair, square full-rank subscript matrices,
non-uniform distances).
"""

import hypothesis.strategies as st

from repro.ir.builder import aref, assign, loop, program
from repro.ir.program import LoopProgram
from repro.ir.semantics import compute_heavy_semantics, sum_semantics
from repro.isl.affine import AffineExpr

__all__ = [
    "loop_programs",
    "symbolic_programs",
    "lemma1_programs",
    "MAX_BOUND",
    "ARRAY_POOL",
]

#: Largest loop bound the generator draws (keeps spaces at ≤ 4³ points/statement).
MAX_BOUND = 4

#: Array pool with fixed ranks so shapes are consistent across statements.
ARRAY_POOL = (("x", 2), ("y", 1))

#: Loop index names by nesting level (outermost first), and the alternates
#: a sibling loop may take instead.
_INDICES = ("I1", "I2", "I3")
_ALT_INDICES = ("K1", "K2", "K3")

# Every subscript coefficient is in [-2, 2] and every index in [1, MAX_BOUND],
# so shifting by 2*MAX_BOUND per enclosing index keeps subscripts >= 0 and
# bounded by _SHAPE below.
_SHAPE = 4 * MAX_BOUND * len(_INDICES) + 8


def _subscript(draw, indices):
    """One affine subscript over the enclosing indices, shifted non-negative."""
    coeffs = {name: draw(st.integers(-2, 2)) for name in indices}
    offset = draw(st.integers(0, 3))
    shift = -sum(min(c, c * MAX_BOUND) for c in coeffs.values())
    return AffineExpr.build(
        {name: c for name, c in coeffs.items() if c}, offset + shift
    )


def _statement(draw, label, indices):
    """One assignment: a write plus 0–2 reads, arrays from the fixed pool."""
    def ref(draw):
        array, rank = draw(st.sampled_from(ARRAY_POOL))
        return aref(array, *(_subscript(draw, indices) for _ in range(rank)))

    write = ref(draw)
    reads = [ref(draw) for _ in range(draw(st.integers(0, 2)))]
    return assign(label, write, reads)


@st.composite
def loop_programs(
    draw,
    min_statements: int = 1,
    max_statements: int = 3,
    max_depth: int = 3,
) -> LoopProgram:
    """A random small loop tree (possibly imperfect, possibly triangular).

    The program is 1–3 top-level nests.  Each loop body is a drawn sequence
    of statements and up to two sibling sub-loops, down to ``max_depth``, so
    statements sit at any level, before, between or after sub-loops, and a
    loop may be empty.  Each loop takes its level's index name (``I1``,
    ``I2``, ``I3``) or the alternate (``K1``, ...), so siblings often reuse
    a name.  Upper bounds are a constant or, below the top level, the
    enclosing index (triangular).  Statements are labelled ``s1, s2, ...``
    in program-text order.  One top-level nest whose bodies hold at most one
    sub-loop each is a loop chain, with statements before and after each
    sub-loop.
    """
    n_statements = draw(st.integers(min_statements, max_statements))
    labels = iter(f"s{k}" for k in range(1, n_statements + 1))

    def build_loop(enclosing, budget):
        """One loop under ``enclosing`` whose subtree holds ``budget`` statements."""
        level = len(enclosing)
        name = draw(st.sampled_from((_INDICES[level], _ALT_INDICES[level])))
        upper = draw(st.integers(2, MAX_BOUND))
        if enclosing and draw(st.booleans()):
            upper = enclosing[-1]  # triangular: 1..enclosing index
        indices = enclosing + (name,)
        body = []
        sub_loops = 0
        while True:
            can_nest = len(indices) < max_depth and sub_loops < 2
            if not budget and not (can_nest and draw(st.booleans())):
                break
            if can_nest and (not budget or draw(st.booleans())):
                take = draw(st.integers(0, budget))
                body.append(build_loop(indices, take))
                budget -= take
                sub_loops += 1
            else:
                body.append(_statement(draw, next(labels), indices))
                budget -= 1
        return loop(name, 1, upper, *body)

    nests = []
    remaining = n_statements
    for k in range(draw(st.integers(1, 3)) - 1, -1, -1):
        take = draw(st.integers(0, remaining)) if k else remaining
        nests.append(build_loop((), take))
        remaining -= take

    return program(
        "hypothesis-nest",
        *nests,
        array_shapes={
            "x": (_SHAPE, _SHAPE),
            "y": (_SHAPE,),
        },
    )


#: The three vectorizable statement semantics (None = the order-sensitive
#: default) the compiled kernel runs.
_SEMANTICS = (None, sum_semantics, compute_heavy_semantics)


@st.composite
def symbolic_programs(draw) -> LoopProgram:
    """Random symbolic-eligible nests: a single statement over rectangular
    unit-stride bounds, rank-d identity-coefficient subscripts, and exactly
    one distinct nonzero uniform distance (drawn lex-positive, so it is a
    flow dependence).  An optional zero-distance read (same subscripts as the
    write) exercises the self-pair skip."""
    dim = draw(st.integers(1, 3))
    names = _INDICES[:dim]
    bounds = [draw(st.integers(3, 6)) for _ in range(dim)]

    # Lex-positive distance u with |u_k| <= 2: zeros before the first
    # nonzero component, which is drawn positive.
    first = draw(st.integers(0, dim - 1))
    u = [0] * dim
    u[first] = draw(st.integers(1, 2))
    for k in range(first + 1, dim):
        u[k] = draw(st.integers(-2, 2))

    # Write offsets in [2, 4] keep every subscript non-negative (|u_k| <= 2).
    offs = [draw(st.integers(2, 4)) for _ in range(dim)]

    def subscript(base, delta):
        return "+".join(filter(None, [base, str(delta)])) if delta else base

    write = aref("x", *(subscript(n, a) for n, a in zip(names, offs)))
    reads = [aref("x", *(subscript(n, a - d) for n, a, d in zip(names, offs, u)))]
    if draw(st.booleans()):  # zero-distance self read: skipped by the gate
        reads.append(aref("x", *(subscript(n, a) for n, a in zip(names, offs))))

    body = assign("s", write, reads, semantics=draw(st.sampled_from(_SEMANTICS)))
    nest = body
    for k in reversed(range(dim)):
        nest = loop(names[k], 1, bounds[k], nest)
    # subscripts reach bound + off + max(0, -u_k) <= bound + 4 + 2
    shape = tuple(b + 7 for b in bounds)
    return program("hypothesis-symbolic", nest, array_shapes={"x": shape})


def _full_rank_matrix(draw, dim):
    """A ``dim × dim`` integer matrix, entries drawn in [-3, 3], with det ≠ 0.

    A singular draw gets the identity added until it is not: ``det(M + t·E)``
    is a nonzero polynomial in ``t``, so this stops within ``dim + 1`` steps.
    """
    rows = [[draw(st.integers(-3, 3)) for _ in range(dim)] for _ in range(dim)]
    while (rows[0][0] if dim == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 0:
        for k in range(dim):
            rows[k][k] += 1
    return rows


def _unimodular_matrix(draw, dim):
    """A ``dim × dim`` integer matrix with det ±1: a signed permutation
    times up to two shears with factors in [-2, 2]."""
    rows = [[0] * dim for _ in range(dim)]
    for r, c in enumerate(draw(st.permutations(range(dim)))):
        rows[r][c] = draw(st.sampled_from((-1, 1)))
    for _ in range(draw(st.integers(0, 2)) if dim > 1 else 0):
        src = draw(st.integers(0, dim - 1))
        dst = (src + 1) % dim
        factor = draw(st.integers(-2, 2))
        rows[dst] = [x + factor * y for x, y in zip(rows[dst], rows[src])]
    return rows


@st.composite
def lemma1_programs(draw) -> LoopProgram:
    """Random Lemma 1 nests: the shapes of Figure 1 and Examples 1–2.

    One statement ``x[I·A + a] = f(x[I·B + b])`` over a rectangular 1-D or
    2-D box, with square full-rank integer matrices ``A ≠ B``, ``B``
    unimodular (so the
    distance ``I·(A·B⁻¹ − E) + u`` varies with ``I``: non-uniform).  The
    offset ``b`` is solved from two drawn iterations ``i0``, ``j0`` so that
    ``i0`` writes the cell ``j0`` reads.  Distinct, they guarantee the
    coupled pair a dependence; equal, ``i0`` is a fixed point of the map
    inside the box, around which chains gather.  Full rank leaves each
    iteration at most one writer of the cell it reads and one reader of the
    cell it writes, so P2 splits into disjoint chains (Lemma 1), and
    ``recurrence-chains`` applies to every draw with a non-self dependence.
    """
    dim = draw(st.sampled_from((2, 1)))
    names = _INDICES[:dim]
    bounds = [draw(st.integers(4, 24 if dim == 1 else 10)) for _ in range(dim)]
    # B is unimodular (det ±1) as in Figures 1–2 and Example 2, so every
    # iteration has an integer partner; a unimodular A as well makes the
    # map volume-preserving (α = 1), so chains are long.
    A = _unimodular_matrix(draw, dim) if draw(st.booleans()) else _full_rank_matrix(draw, dim)
    B = _unimodular_matrix(draw, dim)
    if A == B:
        B = [[-x for x in row] for row in B]
    i0 = [draw(st.integers(1, n)) for n in bounds]
    j0 = [draw(st.integers(1, n)) for n in bounds]
    if draw(st.booleans()):
        j0 = i0  # i0 is a fixed point of the map, as (1, 1) is in Figure 1
    elif i0 == j0:
        j0[0] = j0[0] % bounds[0] + 1
    a = [draw(st.integers(0, 3)) for _ in range(dim)]

    def image(M, point):
        return [sum(point[r] * M[r][c] for r in range(dim)) for c in range(dim)]

    b = [x + o - y for x, o, y in zip(image(A, i0), a, image(B, j0))]

    def lowest(M, off, c):
        return off + sum(min(M[r][c], M[r][c] * n) for r, n in enumerate(bounds))

    def highest(M, off, c):
        return off + sum(max(M[r][c], M[r][c] * n) for r, n in enumerate(bounds))

    # One shift per array dimension keeps both references non-negative and
    # leaves the dependence equation I·A + a = J·B + b unchanged.
    shift = [-min(lowest(A, a[c], c), lowest(B, b[c], c), 0) for c in range(dim)]
    shape = tuple(
        max(highest(A, a[c], c), highest(B, b[c], c)) + shift[c] + 1 for c in range(dim)
    )

    def ref(M, off):
        return aref("x", *(
            AffineExpr.build(
                {names[r]: M[r][c] for r in range(dim) if M[r][c]}, off[c] + shift[c]
            )
            for c in range(dim)
        ))

    body = assign("s", ref(A, a), [ref(B, b)], semantics=draw(st.sampled_from(_SEMANTICS)))
    nest = body
    for k in reversed(range(dim)):
        nest = loop(names[k], 1, bounds[k], nest)
    return program("hypothesis-lemma1", nest, array_shapes={"x": shape})
