"""The ``symbolic`` builder's closed form against the exact partition.

:func:`~repro.core.symbolic.box_partition` derives P1, P2, P3 and the chain
starts W of eq. 5 from a loop box and a shift ``u`` in integer box
arithmetic.  Each draw here enumerates the same box, builds the translation
relation ``{p − u → p}`` point by point, and requires the four box unions to
equal the exact :func:`~repro.core.partition.three_set_partition` as point
sets, with the boxes of each set pairwise disjoint.  Draws include shifts
at least as long as an extent and boxes whose P2 is empty.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import example, given

import oracle
from repro.core.partition import three_set_partition
from repro.core.strategy import plan
from repro.core.symbolic import box_count, box_partition
from repro.isl.relations import FiniteRelation
from repro.runtime import execute_sequential
from repro.runtime.process import process_unavailable_reason
from repro.workloads.corpus import family_entries


@st.composite
def boxes_and_shifts(draw):
    """A 1–3-dimensional box with extents 1..7 and a non-zero lex-positive
    shift whose components may reach past the extents."""
    dim = draw(st.integers(1, 3))
    box = []
    for _ in range(dim):
        lo = draw(st.integers(-3, 3))
        box.append((lo, lo + draw(st.integers(0, 6))))
    shift = draw(
        st.lists(st.integers(-8, 8), min_size=dim, max_size=dim).filter(any)
    )
    if next(c for c in shift if c) < 0:
        shift = [-c for c in shift]
    return tuple(box), tuple(shift)


def _points(boxes, dim):
    rows = [
        np.stack([g.ravel() for g in np.meshgrid(
            *[np.arange(lo, hi + 1) for lo, hi in box], indexing="ij"
        )], axis=1)
        for box in boxes
        if box_count(box)
    ]
    if not rows:
        return np.zeros((0, dim), dtype=np.int64)
    return np.concatenate(rows).astype(np.int64)


def _translation_partition(box, shift):
    """The exact partition; pairs whose source leaves the box are dropped
    by :func:`three_set_partition` itself."""
    space = _points([box], len(box))
    rd = FiniteRelation.from_arrays(space - np.asarray(shift), space)
    return three_set_partition(space, rd)


@given(case=boxes_and_shifts())
@example(case=(((1, 2), (1, 2)), (1, 1)))  # P2 empty, P1 and P3 not
@example(case=(((0, 3), (0, 2)), (0, 5)))  # the shift leaves the box: no Rd
@example(case=(((1, 5), (1, 5), (1, 5)), (1, -2, 1)))
def test_box_partition_equals_the_enumerated_partition(case):
    box, shift = case
    exact = oracle.sets(_translation_partition(box, shift))
    part = box_partition(box, shift)
    for name, boxes in (
        ("p1", part.p1), ("p2", [part.p2]), ("p3", part.p3), ("w", part.w)
    ):
        rows = _points(boxes, len(box)).tolist()
        got = set(map(tuple, rows))
        assert len(rows) == len(got), f"{name} boxes overlap: {boxes}"
        assert got == getattr(exact, name), (name, box, shift, boxes)


def test_parametric_stencil_with_empty_p2_plans_symbolic():
    """At ``N=2`` the shift ``(1, 1)`` leaves P2 empty; the closed form
    plans it as two DOALL phases instead of refusing."""
    (entry,) = [
        e for e in family_entries("parametric", n=2)
        if e.name == "parametric-stencil"
    ]
    p = plan(entry.program, entry.params, cache=False)
    assert p.strategy == "symbolic"
    assert [ph.name for ph in p.schedule.phases] == ["P1-doall", "P3-doall"]
    assert p.longest_chain() == 0
    assert p.validate().ok
    ref = execute_sequential(entry.program, entry.params)
    backends = ["serial", "compiled"]
    if process_unavailable_reason() is None:
        backends.append("process")
    for backend in backends:
        result = p.execute(backend=backend, workers=2)
        assert set(result.store) == set(ref)
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref), backend
    assert p.execute(backend="compiled").meta.get("kernel") is True
