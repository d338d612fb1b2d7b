"""Dependence existence on the cases classic dependence tests decide.

The GCD and Banerjee tests can only disprove a dependence; the exact
analysis decides it.  On the textbook cases of both tests the statement
space's Rd must equal the oracle's literal walk over the cells every
instance touches (``oracle.accessed_cell_rd``): empty where GCD or
Banerjee proves independence, non-empty where they cannot.
"""

import pytest

import oracle
from repro.dependence.analysis import DependenceAnalysis
from repro.ir.builder import aref, assign, loop, program
from repro.workloads.examples import figure1_loop, figure2_loop


def one_d(write_sub, read_sub, n=10, size=300):
    body = assign("s", aref("a", write_sub), [aref("a", read_sub)])
    return program("p", loop("I", 1, n, body), array_shapes={"a": (size,)})


def rank_two(write_subs, read_subs, n=5):
    """``a(write) = a(read)`` over a 2-deep nest, or a 1-deep one when no
    subscript reads ``J``."""
    body = assign("s", aref("a", *write_subs), [aref("a", *read_subs)])
    if any("J" in s for s in write_subs + read_subs):
        body = loop("J", 1, n, body)
    return program("q", loop("I", 1, n, body), array_shapes={"a": (40, 40)})


CASES = {
    # GCD: 2I = 2I' + 1 has no integer solution.
    "parity-mismatch": (one_d("2*I", "2*I+1"), False),
    # GCD on a constant dimension: the second subscripts never agree.
    "constant-dimension-mismatch": (rank_two(("I", "3"), ("I", "5")), False),
    # Banerjee: a(I) is written at 1..10, read at 101..110.
    "disjoint-ranges": (one_d("I", "I+100"), False),
    # Banerjee bound reached only outside the loop: I = I' + 10 needs I' <= 0.
    "offset-just-out-of-range": (one_d("I", "I-10"), False),
    # Neither test can disprove these.
    "overlapping-ranges": (one_d("I", "I+2"), True),
    "coupled-2d": (rank_two(("I+J", "J"), ("I", "J+1")), True),
    "figure1": (figure1_loop(10, 10), True),
    "figure2": (figure2_loop(20), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rd_matches_the_accessed_cells(name):
    prog, dependent = CASES[name]
    analysis = DependenceAnalysis(prog, {})
    assert oracle.pairs(analysis.space.rd) == oracle.pairs(oracle.accessed_cell_rd(prog))
    assert analysis.has_dependences() is dependent


def test_overlapping_ranges_have_the_one_offset_distance():
    rd = DependenceAnalysis(one_d("I", "I+2"), {}).space.rd
    assert rd.distances() == {(2,)}
