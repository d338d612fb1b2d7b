"""Tests for repro.runtime.executor: execution and semantic validation."""

import numpy as np
import pytest

from repro.core import Phase, PlanConfig, Schedule, plan
from repro.runtime import execute
from repro.runtime.executor import execute_sequential, make_store, validate_schedule
from repro.workloads.examples import example3_loop, figure1_loop, figure2_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def flat_schedule(schedule):
    """Every instance of ``schedule`` in one fully parallel phase."""
    phases = [p.lower() for p in schedule.phases]
    everything = Phase(
        "all",
        np.concatenate([p.stmt_ids for p in phases]),
        np.concatenate([p.iters for p in phases]),
    )
    return Schedule.from_phases("flat", [everything], schedule.labels, schedule.depths)


class TestStore:
    def test_make_store_shapes(self):
        prog = figure1_loop(5, 5)
        store = make_store(prog)
        assert set(store) == {"a"}
        assert store["a"].shape == tuple(prog.array_shapes["a"])
        assert store["a"].dtype == np.int64

    def test_fill_modes(self):
        prog = figure2_loop(10)
        assert make_store(prog, fill="zeros")["a"].sum() == 0
        assert make_store(prog, fill="index")["a"].min() >= 1
        with pytest.raises(ValueError):
            make_store(prog, fill="bogus")

    def test_fill_random_is_seeded(self):
        """fill='random' draws seeded values: same seed reproduces, different
        seeds differ (the differential harness varies initial stores this way)."""
        prog = figure2_loop(10)
        a = make_store(prog, fill="random", seed=7)
        b = make_store(prog, fill="random", seed=7)
        c = make_store(prog, fill="random", seed=8)
        assert np.array_equal(a["a"], b["a"])
        assert not np.array_equal(a["a"], c["a"])
        assert a["a"].min() >= 1 and a["a"].dtype == np.int64
        # seed is ignored by the deterministic modes
        assert np.array_equal(
            make_store(prog, fill="index", seed=1)["a"],
            make_store(prog, fill="index", seed=2)["a"],
        )

    def test_missing_shape_detected(self):
        from repro.ir.builder import aref, assign, loop, program

        prog = program("p", loop("I", 1, 3, assign("s", aref("missing", "I"))))
        with pytest.raises(ValueError):
            make_store(prog)


class TestSequentialExecution:
    def test_deterministic(self):
        prog = figure1_loop(6, 6)
        a = execute_sequential(prog, {})
        b = execute_sequential(prog, {})
        assert np.array_equal(a["a"], b["a"])

    def test_changes_array(self):
        prog = figure1_loop(6, 6)
        store = make_store(prog)
        before = store["a"].copy()
        execute_sequential(prog, {}, store)
        assert not np.array_equal(before, store["a"])

    def test_imperfect_nest(self):
        prog = example3_loop(10)
        store = execute_sequential(prog, {})
        assert set(store) == {"a", "tmp"}


class TestScheduleExecution:
    def test_valid_schedule_matches_sequential(self):
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        ref = execute_sequential(prog, {})
        for seed in (0, 1, 2, 99):
            out = execute(prog, result.schedule, {}, seed=seed).store
            assert np.array_equal(ref["a"], out["a"])

    def test_wrong_order_schedule_detected(self):
        """Executing the phases in reverse order must change the result."""
        prog = figure1_loop(10, 12)
        result = plan(prog, config=ALGORITHM1, cache=False)
        reversed_schedule = Schedule.for_program(
            "reversed", prog, list(reversed(result.schedule.phases))
        )
        ref = execute_sequential(prog, {})
        out = execute(prog, reversed_schedule, {}, seed=0).store
        assert not np.array_equal(ref["a"], out["a"])

    def test_missing_instances_detected_by_validator(self):
        prog = figure2_loop(20)
        result = plan(prog, config=ALGORITHM1, cache=False)
        truncated = Schedule.for_program("truncated", prog, result.schedule.phases[:1])
        report = validate_schedule(prog, truncated, {})
        assert not report.covers_all_instances
        assert not report.ok

    def test_validator_passes_correct_schedule(self):
        prog = figure2_loop(20)
        result = plan(prog, config=ALGORITHM1, cache=False)
        report = validate_schedule(
            prog, result.schedule, {}, dependences=result.analysis.space.rd
        )
        assert report.ok
        assert report.respects_dependences
        assert "OK" in str(report)

    def test_validator_flags_unsafe_schedule(self):
        """A schedule that runs everything in one fully parallel phase violates
        the dependences and (with enough seeds) the semantics check."""
        prog = figure1_loop(10, 12)
        analysis_result = plan(prog, config=ALGORITHM1, cache=False)
        flat = flat_schedule(analysis_result.schedule)
        report = validate_schedule(
            prog, flat, {}, dependences=analysis_result.analysis.space.rd,
            seeds=tuple(range(8)),
        )
        assert not report.respects_dependences
        # the semantics check may or may not catch it for a specific shuffle,
        # but coverage and dependence checking make the report not-ok overall
        assert report.covers_all_instances
        assert not report.ok

    def test_ok_includes_dependence_check(self):
        """A schedule that violates dependences but got lucky on every tested
        shuffle must not report OK: `ok` covers the dependence check whenever
        dependences were supplied (respects defaults to True otherwise)."""
        from repro.runtime.executor import ValidationReport

        lucky = ValidationReport(
            program="p", schedule="s",
            covers_all_instances=True, respects_dependences=False,
            arrays_match=True,
        )
        assert not lucky.ok
        assert "FAILED" in str(lucky)
        no_deps = ValidationReport(
            program="p", schedule="s",
            covers_all_instances=True, respects_dependences=True,
            arrays_match=True,
        )
        assert no_deps.ok

    def test_ok_flags_unsafe_schedule_with_no_semantic_seeds(self):
        """End to end: with zero semantic shuffle seeds (arrays vacuously
        match), a dependence-violating schedule still fails validation."""
        prog = figure1_loop(8, 8)
        analysis_result = plan(prog, config=ALGORITHM1, cache=False)
        flat = flat_schedule(analysis_result.schedule)
        report = validate_schedule(
            prog, flat, {}, dependences=analysis_result.analysis.space.rd,
            seeds=(),
        )
        assert report.arrays_match  # vacuous: nothing was executed
        assert not report.respects_dependences
        assert not report.ok


class TestShuffleRng:
    """Intra-phase shuffling draws from a private generator seeded by
    ``seed=`` (``None`` disables shuffling)."""

    def test_explicit_rng_is_reproducible(self):
        """An explicit seed gives a private shuffle generator that repeats
        its visit order; another seed gives another order."""
        from repro.ir.builder import aref, assign, loop, program

        log = []

        def record(arrays, env, read_values):
            log.append((env["I"], env["J"]))
            return 0

        prog = program(
            "visit-log",
            loop("I", 0, 5, loop("J", 0, 5, assign("s", aref("x", "I", "J"), semantics=record))),
            array_shapes={"x": (6, 6)},
        )
        sched = plan(prog, config=PlanConfig(strategies=("pdm",)), cache=False).schedule

        def visits(seed):
            log.clear()
            execute(prog, sched, {}, seed=seed)
            return list(log)

        assert visits(42) == visits(42) != visits(43)

    def test_global_random_state_untouched(self):
        import random

        prog = figure1_loop(8, 8)
        result = plan(prog, config=ALGORITHM1, cache=False)
        random.seed(1234)
        before = random.getstate()
        execute(prog, result.schedule, {}, seed=7)
        execute(prog, result.schedule, {}, seed=3)
        assert random.getstate() == before

    def test_seeds_agree_with_sequential_semantics(self):
        prog = figure2_loop(16)
        result = plan(prog, config=ALGORITHM1, cache=False)
        reference = execute_sequential(prog, {})
        for seed in (5, 0, None):
            out = execute(prog, result.schedule, {}, seed=seed).store
            for name in reference:
                assert np.array_equal(reference[name], out[name])


class TestSplitPhase:
    """``split_phase`` deals a phase's shuffled units round-robin, each
    worker's units a sub-phase of their own."""

    @staticmethod
    def _units(phase):
        lengths = phase.unit_lengths().tolist()
        bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
        rows = list(zip(phase.stmt_ids.tolist(), map(tuple, phase.iters.tolist())))
        return [rows[a:b] for a, b in zip(bounds, bounds[1:])]

    @pytest.mark.parametrize("seed", [None, 0, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_sub_phases_hold_the_dealt_units_in_order(self, seed, workers):
        import random

        from repro.runtime.executor import split_phase

        lengths = [3, 1, 4, 1, 5, 2]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        iters = np.arange(2 * offsets[-1]).reshape(-1, 2)
        phase = Phase("ragged", np.arange(offsets[-1]) % 2, iters, offsets)
        order = list(range(len(lengths)))
        if seed is not None:
            random.Random(seed).shuffle(order)

        subs = split_phase(phase, workers, None if seed is None else random.Random(seed))
        assert len(subs) == min(workers, len(lengths))
        units = self._units(phase)
        for k, sub in enumerate(subs):
            assert sub.name == phase.name
            assert self._units(sub) == [units[u] for u in order[k::workers]]
        assert sum(sub.work for sub in subs) == phase.work

    def test_one_statement_phase_keeps_its_statement(self):
        from repro.runtime.executor import split_phase

        phase = Phase("doall", 2, np.arange(10).reshape(5, 2))
        subs = split_phase(phase, 2, None)
        assert [sub.iters[:, 0].tolist() for sub in subs] == [[0, 4, 8], [2, 6]]
        assert all(sub.unit_offsets is None for sub in subs)
        assert all((sub.stmt_ids == 2).all() for sub in subs)
