"""End-to-end tests for Algorithm 1 (repro.core.partitioner)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core.strategy import PlanConfig, plan
from repro.ir.builder import aref, assign, loop, program
from repro.runtime import execute_sequential, validate_schedule
from repro.runtime.backends import ExecConfig, execute
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)
from repro.workloads.synthetic import random_coupled_loop

#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


class TestSchemeSelection:
    def test_single_pair_full_rank_uses_chains(self):
        assert plan(figure1_loop(10, 10), config=ALGORITHM1, cache=False).scheme == "recurrence-chains"
        assert plan(figure2_loop(20), config=ALGORITHM1, cache=False).scheme == "recurrence-chains"
        assert plan(example2_loop(12), config=ALGORITHM1, cache=False).scheme == "recurrence-chains"

    def test_imperfect_nest_uses_dataflow(self):
        assert plan(example3_loop(20), config=ALGORITHM1, cache=False).scheme == "dataflow"
        assert (
            plan(cholesky_loop(nmat=1, m=2, n=4, nrhs=1), config=ALGORITHM1, cache=False).scheme
            == "dataflow"
        )

    def test_force_dataflow(self):
        result = plan(
            figure1_loop(10, 10), config=PlanConfig(strategies=("dataflow",)), cache=False
        )
        assert result.scheme == "dataflow"
        # dataflow and chain schedules execute the same instances
        chain_result = plan(figure1_loop(10, 10), config=ALGORITHM1, cache=False)
        assert set(oracle.instances(result.schedule)) == set(oracle.instances(chain_result.schedule))


class TestScheduleSafety:
    @pytest.mark.parametrize(
        "prog",
        [
            figure1_loop(12, 15),
            figure2_loop(20),
            example2_loop(12),
            example2_loop(25),
            example3_loop(35),
        ],
        ids=["fig1", "fig2", "ex2-small", "ex2-larger", "ex3"],
    )
    def test_schedule_is_semantically_correct(self, prog):
        result = plan(prog, config=ALGORITHM1, cache=False)
        report = validate_schedule(
            prog, result.schedule, {}, dependences=result.analysis.space, seeds=(0, 1)
        )
        assert report.ok, str(report)
        assert report.respects_dependences

    def test_three_phases_for_chain_scheme(self):
        result = plan(figure1_loop(20, 30), config=ALGORITHM1, cache=False)
        assert result.schedule.num_phases == 3
        names = [p.name for p in result.schedule.phases]
        assert "P1" in names[0] and "P2" in names[1] and "P3" in names[2]

    def test_figure2_has_two_phases(self):
        # empty intermediate set: P2 phase is dropped entirely
        result = plan(figure2_loop(20), config=ALGORITHM1, cache=False)
        assert result.schedule.num_phases == 2

    def test_summary_contains_partition_counts(self):
        result = plan(figure1_loop(10, 10), config=ALGORITHM1, cache=False)
        s = result.summary()
        assert s["P1"] == 82 and s["P2"] == 2 and s["P3"] == 16
        assert s["scheme"] == "recurrence-chains"
        assert s["theorem1_bound"] >= s["longest_chain"]

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_random_single_pair_loops(self, seed):
        rng = random.Random(seed)
        spec = random_coupled_loop(rng, n1=6, n2=6, force_full_rank=True)
        result = plan(spec.program, config=ALGORITHM1, cache=False)
        report = validate_schedule(
            spec.program, result.schedule, {}, dependences=result.analysis.space, seeds=(0,)
        )
        assert report.ok, f"seed {seed}: {report}"


class TestExample4:
    def test_dataflow_step_count_independent_of_nmat(self):
        """The L dimension carries no dependences, so the number of dataflow
        partitioning steps does not change with NMAT (allows scaled-down runs)."""
        steps = []
        for nmat in (1, 2):
            result = plan(cholesky_loop(nmat=nmat, m=2, n=6, nrhs=1), config=ALGORITHM1, cache=False)
            steps.append(result.schedule.num_phases)
        assert steps[0] == steps[1]

    def test_cholesky_schedule_valid(self):
        prog = cholesky_loop(nmat=1, m=2, n=5, nrhs=1)
        result = plan(prog, config=ALGORITHM1, cache=False)
        report = validate_schedule(
            prog, result.schedule, {}, dependences=result.analysis.space, seeds=(0,)
        )
        assert report.ok, str(report)


class TestMultiStatementSoundness:
    """Regression: the chain branch must not claim multi-statement programs.

    Found while building the PR 9 serving differential (logged in ROADMAP):
    on a multi-statement nest whose extra statement rewrites a *constant*
    subscript (``x[0,0]`` every iteration), the single coupled pair drove the
    recurrence-chains branch, whose three-phase schedule executes exactly one
    statement label — the other statements' instances were never scheduled and
    their WAW dependence on the constant cell never ordered, so the plan
    executed bit-different from ``execute_sequential`` under intra-phase
    shuffle.  The branch now gates on single-statement programs and these
    shapes fall to the §3.3 statement-level dataflow branch.
    """

    @staticmethod
    def _constant_cell_prog():
        # s1 carries the only coupled pair (y(I1) <- y(I1-1)); s2 rewrites
        # the constant cell x[0,0] every iteration (pure WAW chain).
        return program(
            "waw-constant-cell",
            loop(
                "I1",
                1,
                6,
                assign("s1", aref("y", "I1"), [aref("y", "I1-1")]),
                assign("s2", aref("x", 0, 0), [aref("y", "I1")]),
            ),
            array_shapes={"x": (4, 4), "y": (8,)},
        )

    @staticmethod
    def _serving_falsifier_prog():
        # The shape the PR 9 Hypothesis hunt found: only s1<->s2 couple on y,
        # s3's instances (writes to x) were dropped entirely by the old branch.
        return program(
            "serving-falsifier",
            loop(
                "I1",
                1,
                4,
                assign("s1", aref("y", "-I1+4")),
                assign("s2", aref("y", "I1"), [aref("x", "-2*I1+11", "2*I1+1")]),
                assign("s3", aref("x", "-I1+6", 3)),
            ),
            array_shapes={"x": (16, 16), "y": (8,)},
        )

    @pytest.mark.parametrize(
        "factory", ["_constant_cell_prog", "_serving_falsifier_prog"]
    )
    def test_chain_branch_skips_multi_statement(self, factory):
        prog = getattr(self, factory)()
        p = plan(
            prog,
            config=PlanConfig(strategies=("recurrence-chains", "dataflow")),
            cache=False,
        )
        assert p.scheme == "dataflow"
        skipped = dict(p.skipped)
        assert "recurrence-chains" in skipped
        assert "single statement" in skipped["recurrence-chains"]

    @pytest.mark.parametrize(
        "factory", ["_constant_cell_prog", "_serving_falsifier_prog"]
    )
    def test_default_plan_matches_sequential_under_shuffle(self, factory):
        prog = getattr(self, factory)()
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        for seed in (0, 1, 2, 3):
            out = execute(
                prog, p.schedule, {}, config=ExecConfig(backend="serial", seed=seed)
            )
            for name in ref:
                assert np.array_equal(ref[name], out.store[name]), (
                    f"{prog.name}: array {name!r} diverges from sequential "
                    f"execution under shuffle seed {seed} (strategy {p.strategy})"
                )
