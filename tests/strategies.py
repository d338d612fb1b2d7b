"""Shared Hypothesis strategies: random small :class:`LoopProgram` s.

The differential test modules need a stream of loop programs covering the
shapes the statement-level extension (§3.3) must handle — 1–3 statements,
nesting depth ≤ 3, statements at any level (imperfect nests), rectangular
*and* triangular bounds, affine subscripts with negative coefficients — while
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
"""

import hypothesis.strategies as st

from repro.ir.builder import aref, assign, loop, program
from repro.ir.program import LoopProgram
from repro.isl.affine import AffineExpr

__all__ = ["loop_programs", "MAX_BOUND", "ARRAY_POOL"]

#: Largest loop bound the generator draws (keeps spaces at ≤ 4³ points/statement).
MAX_BOUND = 4

#: Array pool with fixed ranks so shapes are consistent across statements.
ARRAY_POOL = (("x", 2), ("y", 1))

#: Loop index names by nesting level (outermost first).
_INDICES = ("I1", "I2", "I3")

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
    """A random small loop program (possibly imperfect, possibly triangular).

    The skeleton is one loop chain of depth ``1..max_depth``; each statement
    is placed at a drawn level, either before or after the next-deeper loop
    (statements at the innermost level are simply its body).  Inner loop upper
    bounds are a constant or the enclosing index (triangular).
    """
    depth = draw(st.integers(1, max_depth))
    n_statements = draw(st.integers(min_statements, max_statements))

    # Placement per statement: (level, slot), where slot 0 = before the
    # nested loop at that level and slot 1 = after it (the innermost level
    # has no nested loop, so its statements all take slot 0).
    placements = []
    for _ in range(n_statements):
        level = draw(st.integers(1, depth))
        slot = 0 if level == depth else draw(st.integers(0, 1))
        placements.append((level, slot))

    # Labels follow syntactic (program-text) order, as the IR requires them
    # to be readable; the stable sort keeps draw order within a placement.
    labels = {}
    for rank, k in enumerate(
        sorted(range(n_statements), key=lambda k: _syntactic_key(placements[k]))
    ):
        labels[k] = f"s{rank + 1}"

    # Bounds per level: outermost constant, inner constant or triangular.
    uppers = [draw(st.integers(2, MAX_BOUND))]
    for level in range(2, depth + 1):
        if draw(st.booleans()):
            uppers.append(_INDICES[level - 2])  # triangular: 1..I_{level-1}
        else:
            uppers.append(draw(st.integers(2, MAX_BOUND)))

    statements = {
        k: _statement(draw, labels[k], _INDICES[: placements[k][0]])
        for k in range(n_statements)
    }

    def build_level(level):
        before = [
            statements[k]
            for k in range(n_statements)
            if placements[k] == (level, 0)
        ]
        after = [
            statements[k]
            for k in range(n_statements)
            if placements[k] == (level, 1)
        ]
        inner = [build_level(level + 1)] if level < depth else []
        return loop(
            _INDICES[level - 1], 1, uppers[level - 1], *(before + inner + after)
        )

    return program(
        "hypothesis-nest",
        build_level(1),
        array_shapes={
            "x": (_SHAPE, _SHAPE),
            "y": (_SHAPE,),
        },
    )


def _syntactic_key(placement):
    """Sort key giving the syntactic (program-text) order of a placement.

    Before-statements appear in increasing level order on the way *down* the
    loop chain; after-statements appear in *decreasing* level order on the way
    back up, after the whole subtree.
    """
    level, slot = placement
    if slot == 0:
        return (0, level)
    return (1, -level)
