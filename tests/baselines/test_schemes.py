"""Tests for the baseline partitioning schemes (PDM, PL, UNIQUE, DOACROSS, tiling, PAR).

Every scheme must produce a schedule that (a) covers exactly the program's
statement instances, (b) respects the exact dependences, and (c) reproduces the
sequential array contents — the same bar the REC partitioner is held to.
"""

import numpy as np
import pytest

import oracle
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
from repro.core.partitioner import PartitioningNotApplicable
from repro.core.statement import build_statement_space
from repro.core.strategy import strategy_names
from repro.dependence import DependenceAnalysis
from repro.ir.builder import aref, assign, loop, program
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
        check(prog, sched, analysis.space)
        assert sched.num_phases == 1  # outermost DOALL over cosets

    def test_partition_covers_distances(self):
        prog = figure1_loop(12, 12)
        analysis = DependenceAnalysis(prog, {})
        partition = pdm_partition(analysis.space.unified_array, analysis.space.rd)
        assert partition.covers(analysis.space.rd.distances())
        assert partition.num_parallel_sets >= 1
        assert partition.longest_chain >= 1

    def test_statement_level_on_cholesky(self):
        prog = cholesky_loop(nmat=1, m=2, n=4, nrhs=1)
        sched = pdm_schedule(prog, {})
        space = build_statement_space(prog, {})
        check(prog, sched, space)

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
        check(prog, sched, analysis.space)

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
        check(prog, sched, analysis.space)

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
            analysis.space.unified_array, analysis.space.rd
        )
        counts = sets.counts()
        space = oracle.points(analysis.space.unified_array)
        assert sum(counts.values()) == len(space)
        # every point lies in exactly one set, by the degree definitions
        pairs = oracle.pairs(analysis.space.rd)
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
        check(prog, sched, analysis.space)

    def test_valid_on_imperfect_nest(self):
        prog = example3_loop(35)
        analysis = DependenceAnalysis(prog, {})
        sched = doacross_schedule(prog, {}, analysis)
        space = build_statement_space(prog, {}, analysis)
        check(prog, sched, space)

    def test_more_synchronization_than_rec(self):
        prog = example3_loop(40)
        analysis = DependenceAnalysis(prog, {})
        doa = doacross_schedule(prog, {}, analysis)
        rec = plan(prog, config=ALGORITHM1, cache=False)
        assert doa.num_phases >= rec.schedule.num_phases


class TestTiling:
    def test_minimum_distances(self):
        rel = DependenceAnalysis(figure1_loop(10, 10), {}).space.rd
        assert minimum_distances(rel, 2) == (2, 2)

    def test_valid(self):
        prog = example2_loop(14)
        analysis = DependenceAnalysis(prog, {})
        sched = tiling_schedule(prog, {}, analysis)
        check(prog, sched, analysis.space)
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
        check(prog, sched, space)

    def test_one_phase_per_outer_iteration(self):
        prog = example3_loop(12)
        sched = inner_parallel_schedule(prog, {})
        assert sched.num_phases == 12

    def test_valid_on_figure1(self):
        prog = figure1_loop(8, 9)
        analysis = DependenceAnalysis(prog, {})
        sched = inner_parallel_schedule(prog, {}, analysis)
        check(prog, sched, analysis.space)

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


def _two_nests(second_index="I"):
    """Two top-level ``DO I = 1, 4`` nests; the second writes what the first
    wrote, in reverse, after reading it."""
    k = second_index
    return program(
        f"two-nests-{k}",
        loop("I", 1, 4, assign("s1", aref("y", "I"), [])),
        loop(k, 1, 4, assign("s2", aref("y", f"5-{k}"), [aref("y", k)])),
        array_shapes={"y": (6,)},
    )


def _siblings_in_j(upper=4):
    """The same two nests as siblings inside ``DO J = 1, 3`` (the second
    one's bound may differ)."""
    return program(
        f"siblings-in-j-{upper}",
        loop(
            "J", 1, 3,
            loop("I", 1, 4, assign("s1", aref("y", "I"), [])),
            loop("I", 1, upper, assign("s2", aref("y", "5-I"), [aref("y", "I")])),
        ),
        array_shapes={"y": (6,)},
    )


SIBLING_NESTS = [_two_nests(), _two_nests("K"), _siblings_in_j(), _siblings_in_j(3)]


class TestSiblingNests:
    """Sibling loop nests that reuse an index name are two nests, not one:
    ``s1(I)`` and ``s2(I)`` are different instances and run in program
    order under every strategy."""

    @pytest.mark.parametrize("prog", SIBLING_NESTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("strategy", strategy_names())
    def test_every_accepting_strategy_validates_and_matches(self, prog, strategy):
        from repro.runtime import execute_sequential
        from repro.runtime.process import process_unavailable_reason

        try:
            p = plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)
        except PartitioningNotApplicable:
            return  # refusing is allowed; running wrongly is not
        report = p.validate(seeds=(0, 1))
        assert report.ok, str(report)
        ref = execute_sequential(prog, {})
        backends = ["serial", "compiled"]
        if process_unavailable_reason() is None:
            backends.append("process")
        for backend in backends:
            out = p.execute(backend=backend, workers=2, seed=0).store
            for name in ref:
                assert np.array_equal(ref[name], out[name]), (backend, name)

    @pytest.mark.parametrize("prog", SIBLING_NESTS, ids=lambda p: p.name)
    def test_nest_only_strategies_refuse_sibling_nests(self, prog):
        for strategy in ("pl", "unique-sets", "tiling"):
            with pytest.raises(PartitioningNotApplicable, match="perfect nest"):
                plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)

    @pytest.mark.parametrize("empty_first", [False, True])
    def test_symbolic_refuses_a_statement_beside_an_empty_loop(self, empty_first):
        """One statement next to an empty sibling loop is no perfect nest:
        the symbolic box would span the empty loop's index too.  (The
        builder used to accept it and fail its own coverage check.)"""
        nest = loop("I", 1, 4, assign("s", aref("y", "I+1"), [aref("y", "I")]))
        empty = loop("J", 1, 3)
        body = (empty, nest) if empty_first else (nest, empty)
        prog = program("beside-empty-loop", *body, array_shapes={"y": (8,)})
        with pytest.raises(PartitioningNotApplicable, match="single-statement perfect nest"):
            plan(prog, config=PlanConfig(strategies=("symbolic",)), cache=False)
        assert plan(prog, cache=False).validate(seeds=(0,)).ok

    def test_interleaved_unit_is_a_dependence_violation(self):
        """One PDM unit that interleaves the two nests, ``s1(1), s2(1),
        s1(2), …``, lets ``s2(1)`` read ``y(1)`` before ``s1(4)`` overwrites
        ``y(4)`` that ``s2(1)`` writes: validate() reports the broken
        dependences, not only the wrong arrays."""
        from dataclasses import replace

        from repro.core.schedule import Phase

        prog = _two_nests()
        p = plan(prog, config=PlanConfig(strategies=("pdm",)), cache=False)
        interleaved = Phase(
            "PDM cosets (outermost DOALL)",
            np.tile([0, 1], 4),
            np.repeat(np.arange(1, 5), 2).reshape(8, 1),
            [0, 8],
        )
        bad = replace(p, schedule=replace(p.schedule, phases=(interleaved,)))
        report = bad.validate(seeds=(0,))
        assert report.covers_all_instances
        assert not report.respects_dependences
        assert not report.arrays_match
        assert bad.schedule.violations(p.analysis.space)
