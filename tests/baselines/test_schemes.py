"""Tests for the baseline partitioning schemes (PDM, PL, UNIQUE, DOACROSS, tiling, PAR).

Every scheme must produce a schedule that (a) covers exactly the program's
statement instances, (b) respects the exact dependences, and (c) reproduces the
sequential array contents — the same bar the REC partitioner is held to.
"""

import numpy as np
import pytest

from repro.baselines import (
    doacross_schedule,
    inner_parallel_schedule,
    minimum_distances,
    pdm_partition,
    pdm_schedule,
    pl_schedule,
    tiling_schedule,
    unique_sets_partition,
    unique_sets_schedule,
)
from repro.baselines.unique_sets import SETS
from repro.core import PlanConfig, plan
from repro.core.statement import build_statement_space
from repro.dependence import DependenceAnalysis
from repro.runtime import validate_schedule
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def check(prog, schedule, deps):
    report = validate_schedule(prog, schedule, {}, dependences=deps, seeds=(0, 1))
    assert report.ok, f"{schedule.name}: {report}"
    assert report.respects_dependences, f"{schedule.name} violates dependences"


class TestPDM:
    @pytest.mark.parametrize("factory,arg", [(figure1_loop, (14, 17)), (example2_loop, (16,)), (figure2_loop, (20,))])
    def test_valid_on_perfect_nests(self, factory, arg):
        prog = factory(*arg)
        analysis = DependenceAnalysis(prog, {})
        sched = pdm_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)
        assert sched.num_phases == 1  # outermost DOALL over cosets

    def test_partition_covers_distances(self):
        prog = figure1_loop(12, 12)
        analysis = DependenceAnalysis(prog, {})
        partition = pdm_partition(analysis.iteration_space_points, analysis.iteration_dependences)
        assert partition.covers(analysis.iteration_dependences.distances())
        assert partition.num_parallel_sets >= 1
        assert partition.longest_chain >= 1

    def test_statement_level_on_cholesky(self):
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        sched = pdm_schedule(prog, {})
        space = build_statement_space(prog, {})
        check(prog, sched, space.rd)

    def test_pdm_serializes_more_than_rec(self):
        """PDM's artificial dependences give longer sequential units than REC chains."""
        prog = figure1_loop(20, 30)
        rec = plan(prog, config=ALGORITHM1, cache=False)
        pdm = pdm_schedule(prog, {}, rec.analysis)
        assert pdm.span >= rec.schedule.span


class TestPL:
    def test_valid(self):
        prog = figure1_loop(14, 18)
        analysis = DependenceAnalysis(prog, {})
        sched = pl_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)

    def test_pl_has_fewer_parallel_sets_than_pdm(self):
        """The primitive direction basis introduces more artificial dependences,
        so PL has coarser (fewer, longer) parallel sets than PDM — the reason it
        trails PDM in figure 3."""
        prog = figure1_loop(20, 30)
        analysis = DependenceAnalysis(prog, {})
        pdm = pdm_schedule(prog, {}, analysis)
        pl = pl_schedule(prog, {}, analysis)
        assert len(pl.phases[0]) <= len(pdm.phases[0])
        assert pl.span >= pdm.span


class TestUniqueSets:
    def test_valid_on_example2(self):
        prog = example2_loop(16)
        analysis = DependenceAnalysis(prog, {})
        sched = unique_sets_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)

    def test_more_phases_than_rec(self):
        """The scheme's head/tail split gives a longer phase sequence than REC's
        three partitions (the §5 comparison on Example 2)."""
        prog = example2_loop(30)
        analysis = DependenceAnalysis(prog, {})
        uniq = unique_sets_schedule(prog, {}, analysis)
        rec = plan(prog, config=ALGORITHM1, cache=False)
        assert uniq.num_phases >= rec.schedule.num_phases

    def test_partition_structure(self):
        prog = example2_loop(16)
        analysis = DependenceAnalysis(prog, {})
        sets = unique_sets_partition(
            analysis.iteration_space_points, analysis.iteration_dependences
        )
        counts = sets.counts()
        space = set(analysis.iteration_space_points)
        assert sum(counts.values()) == len(space)
        # every point lies in exactly one set, by the degree definitions
        pairs = analysis.iteration_dependences.pairs
        dom = {src for src, _ in pairs}
        ran = {dst for _, dst in pairs}

        def points(*names):
            return set(map(tuple, sets.rows(*names).tolist()))

        assert points(*SETS) == space
        assert points("independent") == space - dom - ran
        assert points("flow_head", "anti_head") == dom - ran
        assert points("intersection") == dom & ran
        assert points("flow_tail", "anti_tail") == ran - dom
        single_source = {d for d in ran - dom if sum(1 for _, t in pairs if t == d) == 1}
        assert points("flow_tail") == single_source


class TestDoacross:
    def test_valid_on_perfect_nest(self):
        prog = figure1_loop(12, 14)
        analysis = DependenceAnalysis(prog, {})
        sched = doacross_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)

    def test_valid_on_imperfect_nest(self):
        prog = example3_loop(35)
        analysis = DependenceAnalysis(prog, {})
        sched = doacross_schedule(prog, {}, analysis)
        space = build_statement_space(prog, {}, analysis)
        check(prog, sched, space.rd)

    def test_more_synchronization_than_rec(self):
        prog = example3_loop(40)
        analysis = DependenceAnalysis(prog, {})
        doa = doacross_schedule(prog, {}, analysis)
        rec = plan(prog, config=ALGORITHM1, cache=False)
        assert doa.num_phases >= rec.schedule.num_phases


class TestTiling:
    def test_minimum_distances(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).iteration_dependences
        assert minimum_distances(rel, 2) == (2, 2)

    def test_valid(self):
        prog = example2_loop(14)
        analysis = DependenceAnalysis(prog, {})
        sched = tiling_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)
        assert sched.meta["tiles"] == sched.num_phases

    def test_parallelism_bounded_by_tile_volume(self):
        prog = example2_loop(20)
        analysis = DependenceAnalysis(prog, {})
        sched = tiling_schedule(prog, {}, analysis)
        tile_volume = 1
        for s in sched.meta["tile_size"]:
            tile_volume *= s
        assert sched.max_parallelism <= tile_volume


class TestInnerParallel:
    def test_valid_on_example3(self):
        prog = example3_loop(35)
        analysis = DependenceAnalysis(prog, {})
        sched = inner_parallel_schedule(prog, {}, analysis)
        space = build_statement_space(prog, {}, analysis)
        check(prog, sched, space.rd)

    def test_one_phase_per_outer_iteration(self):
        prog = example3_loop(12)
        sched = inner_parallel_schedule(prog, {})
        assert sched.num_phases == 12

    def test_valid_on_figure1(self):
        prog = figure1_loop(8, 9)
        analysis = DependenceAnalysis(prog, {})
        sched = inner_parallel_schedule(prog, {}, analysis)
        check(prog, sched, analysis.iteration_dependences)

    @pytest.mark.parametrize("backend", ["serial", "process", "compiled"])
    def test_sibling_top_level_nests_keep_program_order(self, backend):
        """Cholesky has two sibling top-level nests; grouping on the unified
        prefix (s0, i1) keeps them in program order instead of merging
        equal i1 values of both nests into one phase."""
        from repro.runtime import execute_sequential
        from repro.runtime.process import process_unavailable_reason

        if backend == "process" and process_unavailable_reason() is not None:
            pytest.skip(process_unavailable_reason())
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        p = plan(prog, config=PlanConfig(strategies=("inner-parallel",)), cache=False)
        assert p.validate(seeds=(0, 1, 2)).ok
        assert [ph.name for ph in p.schedule.phases][:2] == ["outer(0, 0)", "outer(0, 1)"]
        ref = execute_sequential(prog, {})
        for seed in (0, 1):
            out = p.execute(backend=backend, workers=2, seed=seed).store
            for name in ref:
                assert np.array_equal(ref[name], out[name]), (backend, name)

    def test_single_nest_phases_are_named_by_the_outer_index(self):
        sched = inner_parallel_schedule(example3_loop(5), {})
        assert [ph.name for ph in sched.phases] == [f"outer({i},)" for i in range(1, 6)]
