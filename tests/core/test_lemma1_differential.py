"""Property-based differential for the P2 chain phase (Lemma 1).

Draws come from ``tests/strategies.py::lemma1_programs()``: one statement,
one coupled write/read pair, square full-rank subscript matrices and
non-uniform distances.  On every draw the ``recurrence-chains`` plan's P2
phase must equal both references of ``tests/oracle.py``, computed from the
oracle's own three sets (never from the planner's partition): the WHILE
loop's walk by the affine recurrence and the greedy walk over dict
successor maps.  The whole schedule must respect the exact Rd.
"""

from hypothesis import given, settings

import oracle
from repro.core.chains import CHAIN_PHASE
from repro.core.partitioner import (
    PartitioningNotApplicable,
    recurrence_branch,
    recurrence_not_applicable_reason,
)
from repro.dependence import DependenceAnalysis
from strategies import lemma1_programs


class TestLemma1Differential:
    @given(prog=lemma1_programs())
    def test_chain_phase_matches_both_references(self, prog):
        try:
            result = recurrence_branch(prog)
        except PartitioningNotApplicable as err:
            # Only a draw whose coupled pair has no non-self dependence in
            # the box is refused; Lemma 1 itself never fails on this family.
            assert "coupled reference pair with dependences (found 0)" in str(err)
            return
        expected = oracle.three_sets(
            oracle.space_points(prog), oracle.iteration_dependences(prog)
        )
        chains = [
            unit
            for phase in result.schedule.phases
            if phase.name == CHAIN_PHASE
            for unit in oracle.chain_units(phase)
        ]
        assert chains == oracle.recurrence_chains(expected, result.recurrence)
        assert chains == oracle.chains_by_dict_walk(expected)
        assert result.schedule.respects(expected.rd)

    def test_recurrence_chains_applies_to_most_draws(self):
        applies = []

        @settings(derandomize=True, max_examples=100, database=None)
        @given(prog=lemma1_programs())
        def draw(prog):
            analysis = DependenceAnalysis(prog, {})
            applies.append(recurrence_not_applicable_reason(analysis) is None)

        draw()
        assert sum(applies) >= 0.3 * len(applies)
