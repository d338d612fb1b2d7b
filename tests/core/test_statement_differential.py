"""Property-based differential tests for the §3.3 statement level.

Hand-pinned equivalence tests cover only the handful of paper examples; this
module pins the **array-built `StatementLevelSpace` bit-identical to the
per-instance oracle of ``tests/oracle.py`` on Hypothesis-generated
programs** — unified vectors, the statement-level Rd, the instance↔point
maps, and the dataflow schedules built from them — plus the §3.3 mapping
invariant (program order == lexicographic unified order) as a property of
every generated program.

The generated programs (see ``tests/strategies.py``) span 1–3 statements,
depth ≤ 3, imperfect placement, triangular/rectangular bounds, symbolic
upper bounds bound to drawn values, and affine subscripts with negative
coefficients.  Run with ``--hypothesis-profile=ci``
for the derandomized fixed-budget profile CI uses.
"""

import numpy as np
from hypothesis import given

import oracle
from repro.core.partitioner import dataflow_branch
from repro.core.statement import (
    UnifiedIndexMap,
    build_statement_space,
    statement_dataflow_schedule,
)
from repro.workloads.examples import cholesky_loop, example3_loop
from strategies import loop_programs, parametric_programs


def spaces_for(prog):
    """The same program through the oracle and the array path."""
    return oracle.statement_space(prog), build_statement_space(prog, {})


def assert_schedule_matches_oracle(schedule, prog):
    """Phase names and exact instance sequences must match."""
    assert oracle.schedule_phases(schedule) == oracle.dataflow_phases(prog)


class TestSpaceDifferential:
    @given(prog=loop_programs())
    def test_unified_vectors_bit_identical(self, prog):
        set_space, vec_space = spaces_for(prog)
        assert vec_space.unified_array.tolist() == [list(u) for u in set_space.unified]
        assert vec_space.stmt_ids.tolist() == list(set_space.stmt_ids)

    @given(prog=loop_programs())
    def test_instances_bit_identical_and_sequential(self, prog):
        set_space, vec_space = spaces_for(prog)
        view = oracle.space_view(vec_space)
        assert set_space.instances == view.instances
        # Both must enumerate exactly the sequential execution, in order.
        assert list(view.instances) == [
            (label, tuple(it)) for label, it in prog.sequential_iterations({})
        ]

    @given(prog=loop_programs())
    def test_rd_bit_identical(self, prog):
        set_space, vec_space = spaces_for(prog)
        # The oracle's relation is canonicalised from its tuple pairs, so
        # this compares the array-built pairs against them exactly.
        assert set_space.rd == vec_space.rd

    @given(drawn=parametric_programs())
    def test_parametric_rd_bit_identical(self, drawn):
        """A tree with symbolic upper bounds, bound to a drawn ``N``: the
        same instances and Rd as the oracle's, and as the Rd read off the
        cells each instance touches."""
        prog, params = drawn
        space = build_statement_space(prog, params)
        expected = oracle.statement_space(prog, params)
        assert oracle.space_view(space).instances == expected.instances
        assert space.rd == expected.rd
        assert space.rd == oracle.accessed_cell_rd(prog, params)

    @given(prog=loop_programs())
    def test_stmt_ids_of_recovers_stmt_ids(self, prog):
        _, vec_space = spaces_for(prog)
        if len(vec_space):
            ids = vec_space.stmt_ids_of(vec_space.unified_array)
            assert np.array_equal(ids, vec_space.stmt_ids)

    @given(prog=loop_programs())
    def test_sequential_order_is_lexicographic(self, prog):
        """The §3.3 mapping invariant on every generated (normalized) program."""
        assert oracle.sequential_order_is_lexicographic(prog)

    @given(prog=loop_programs())
    def test_unify_array_matches_scalar_unify(self, prog):
        index_map = UnifiedIndexMap.from_program(prog)
        _, vec_space = spaces_for(prog)
        for label, iteration in oracle.space_view(vec_space).instances:
            batch = index_map.unify_array(label, np.asarray([iteration]))
            assert tuple(batch[0].tolist()) == index_map.unify(label, iteration)


class TestScheduleDifferential:
    @given(prog=loop_programs())
    def test_dataflow_branch_engines_bit_identical(self, prog):
        result = dataflow_branch(prog, {})
        assert result.scheme == "dataflow"
        assert_schedule_matches_oracle(result.schedule, prog)

    @given(prog=loop_programs(min_statements=2))
    def test_statement_schedule_validates(self, prog):
        """Array-path statement schedules execute to the sequential result."""
        from repro.runtime.executor import validate_schedule

        result = dataflow_branch(prog, {})
        space = result.analysis.space
        assert result.schedule.covers(space)
        assert oracle.covers(result.schedule, oracle.space_view(space).instances)
        report = validate_schedule(
            prog, result.schedule, {}, dependences=space, seeds=(0,)
        )
        assert report.ok, str(report)


class TestPinnedExamples:
    """The paper's imperfect nests, pinned explicitly (no generation)."""

    def test_example3_differential(self):
        set_space, vec_space = spaces_for(example3_loop(12))
        assert oracle.space_view(vec_space) == set_space

    def test_cholesky_differential(self):
        prog = cholesky_loop(nmat=1, m=2, n=6, nrhs=1)
        set_space, vec_space = spaces_for(prog)
        assert oracle.space_view(vec_space) == set_space
        assert_schedule_matches_oracle(dataflow_branch(prog, {}).schedule, prog)

    def test_vector_path_is_array_backed_at_scale(self):
        """The whole statement level stays in array form: a schedule of
        array phases over the unified rows."""
        from repro.workloads.synthetic import large_cholesky_nest

        prog = large_cholesky_nest(120)  # 7380 instances
        space = build_statement_space(prog, {})
        schedule = statement_dataflow_schedule("stmt", space)
        # every phase's iteration rows are a view of the partition's rows
        assert all(p.iters.base is not None for p in schedule.phases)
        # and the rows agree with the oracle
        assert oracle.space_view(space) == oracle.statement_space(prog)
