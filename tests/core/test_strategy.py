"""Tests for the unified planning facade (repro.core.strategy).

Covers the acceptance contract of the facade:

* every paper workload plans successfully through ``plan()`` with the
  default config, and the chosen strategy matches Algorithm 1's historical
  dispatch (the recurrence-chain branch where it applies, else dataflow);
* ``plan()`` output is bit-identical (phase names + instance sequences) to
  the pre-facade entry points, for Algorithm 1 and for all six baselines;
* cached re-plans return the *identical* ``Plan`` object;
* the fallback chain records why strategies were skipped, honours the
  configured preference order, and raises
  :class:`PartitioningNotApplicable` with every reason when nothing applies.
"""

import pytest

import oracle
from repro.baselines import (
    PLPartition,
    doacross_schedule,
    inner_parallel_schedule,
    pdm_schedule,
    pl_schedule,
    tiling_schedule,
    unique_sets_schedule,
)
from repro.core.partitioner import PartitioningNotApplicable, dataflow_branch
from repro.core.strategy import (
    PlanCache,
    PlanConfig,
    default_plan_cache,
    plan,
    program_fingerprint,
    strategy_names,
    strategy_table,
)
from repro.workloads.corpus import selection_corpus
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
    figure2_loop,
)

#: Algorithm 1's historical dispatch: recurrence chains where Lemma 1
#: applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))

#: Every paper workload (small sizes) with the strategy the old dispatch chose.
WORKLOADS = [
    ("figure1", lambda: figure1_loop(10, 10), "recurrence-chains"),
    ("figure2", lambda: figure2_loop(20), "recurrence-chains"),
    ("example2", lambda: example2_loop(12), "recurrence-chains"),
    ("example3", lambda: example3_loop(12), "dataflow"),
    ("cholesky", lambda: cholesky_loop(nmat=1, m=2, n=6, nrhs=1), "dataflow"),
]

BASELINES = [
    ("pdm", pdm_schedule),
    ("pl", pl_schedule),
    ("unique-sets", unique_sets_schedule),
    ("doacross", doacross_schedule),
    ("tiling", tiling_schedule),
    ("inner-parallel", inner_parallel_schedule),
]


def schedule_mismatches(a, b):
    """Phase-by-phase comparison (names + exact instance sequences)."""
    problems = []
    if a.num_phases != b.num_phases:
        return [f"phase count {a.num_phases} != {b.num_phases}"]
    for pa, pb in zip(a.phases, b.phases):
        if pa.name != pb.name:
            problems.append(f"phase name {pa.name!r} != {pb.name!r}")
        if a.phase_instances(pa) != b.phase_instances(pb):
            problems.append(f"instances differ in phase {pa.name!r}")
    return problems


class TestFallbackChain:
    @pytest.mark.parametrize(
        "factory,expected", [(f, e) for _, f, e in WORKLOADS],
        ids=[name for name, _, _ in WORKLOADS],
    )
    def test_default_plan_matches_old_dispatch(self, factory, expected):
        prog = factory()
        p = plan(prog, cache=False)
        assert p.strategy == expected
        old = plan(factory(), config=ALGORITHM1, cache=False)
        assert p.scheme == old.scheme
        assert schedule_mismatches(p.schedule, old.schedule) == []
        assert p.validate(seeds=(0,)).ok

    @pytest.mark.parametrize(
        "factory", [f for _, f, _ in WORKLOADS], ids=[n for n, _, _ in WORKLOADS]
    )
    def test_cached_replan_is_identical(self, factory):
        cache = PlanCache()
        first = plan(factory(), cache=cache)
        again = plan(factory(), cache=cache)  # a *fresh* equal program object
        assert again is first
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_skip_reasons_are_recorded(self):
        # The registry chain is probed front-to-back, so the inapplicable
        # Algorithm 1 branch is recorded with its reason.
        p = plan(
            example3_loop(10),
            config=PlanConfig(strategies=strategy_names()), cache=False,
        )
        assert p.strategy == "dataflow"
        skipped = dict(p.skipped)
        assert "recurrence-chains" in skipped
        # example3 has two statements: the chain branch's single-statement
        # gate is the first inapplicability reason to fire.
        assert "single statement" in skipped["recurrence-chains"]
        assert "recurrence-chains" in p.explain()

    def test_fixed_selector_is_bit_identical_to_old_dispatch(self):
        """Pinning ``strategy_names()`` (the fixed registry order the retired
        ``selector="fixed"`` walked) replays the historical walk: same
        strategy, same schedule, and no feature extraction in the report."""
        for _, factory, expected in WORKLOADS:
            p = plan(
                factory(), config=PlanConfig(strategies=strategy_names()),
                cache=False,
            )
            assert p.strategy == expected
            old = plan(factory(), config=ALGORITHM1, cache=False)
            assert schedule_mismatches(p.schedule, old.schedule) == []
            assert p.selection is not None
            assert p.selection.scores == () and p.selection.features is None
            assert p.selection.order == strategy_names()

    def test_force_dataflow_skips_chains(self):
        p = plan(
            figure1_loop(10, 10),
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        assert p.strategy == "dataflow" and p.skipped == ()
        old = dataflow_branch(figure1_loop(10, 10))
        assert schedule_mismatches(p.schedule, old.schedule) == []

    def test_no_applicable_strategy_raises_with_reasons(self):
        with pytest.raises(PartitioningNotApplicable) as exc:
            plan(
                cholesky_loop(nmat=1, m=2, n=4, nrhs=1),
                config=PlanConfig(strategies=("recurrence-chains", "pl")),
                cache=False,
            )
        message = str(exc.value)
        assert "recurrence-chains" in message and "pl" in message
        assert "perfect nest" in message

    def test_unknown_strategy_name(self):
        # Refused when the config is built, before plan() can walk it.
        with pytest.raises(ValueError, match="unknown strategy 'no-such-scheme'"):
            PlanConfig(strategies=("no-such-scheme",))

    def test_registry_covers_all_seven_schemes(self):
        names = strategy_names()
        assert names[:2] == ("recurrence-chains", "dataflow")  # Algorithm 1 first
        for name, _ in BASELINES:
            assert name in names
        table = strategy_table()
        assert {row["name"] for row in table} == set(names)
        assert all(row["description"] for row in table)


class TestBaselineStrategies:
    @pytest.mark.parametrize("name,schedule_fn", BASELINES, ids=[n for n, _ in BASELINES])
    def test_pinned_strategy_matches_old_entry_point(self, name, schedule_fn):
        prog = figure1_loop(8, 8)
        p = plan(prog, config=PlanConfig(strategies=(name,)), cache=False)
        assert p.strategy == name
        old = schedule_fn(figure1_loop(8, 8), {})
        assert schedule_mismatches(p.schedule, old) == []
        assert p.validate(seeds=(0,)).ok

    def test_pl_partition_reports_its_own_scheme(self):
        p = plan(
            figure1_loop(8, 8), config=PlanConfig(strategies=("pl",)), cache=False
        )
        assert isinstance(p.partition, PLPartition)
        assert p.partition.scheme == "pl"
        pdm = plan(
            figure1_loop(8, 8), config=PlanConfig(strategies=("pdm",)), cache=False
        )
        assert pdm.partition.scheme == "pdm"
        assert not isinstance(pdm.partition, PLPartition)


class TestPlanConfig:
    def test_engine_validation(self):
        """One knob; the retired engine and selector switches are rejected,
        not ignored (the execution knobs: test_backends.py)."""
        from dataclasses import fields

        assert [f.name for f in fields(PlanConfig)] == ["strategies"]
        for retired in ("engine", "bulk_size_threshold", "force_dataflow", "selector"):
            with pytest.raises(TypeError):
                PlanConfig(**{retired: None})

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"strategies": "dataflow"}, TypeError, "not the string"),
            ({"strategies": ()}, ValueError, "at least one strategy"),
            ({"strategies": []}, ValueError, "at least one strategy"),
            ({"strategies": ("dataflow", "banana")}, ValueError, "unknown strategy 'banana'"),
            # The shuffle seed is an ExecConfig field: any rng_seed is refused.
            ({"rng_seed": True}, TypeError, "rng_seed"),
            ({"rng_seed": 1.5}, TypeError, "rng_seed"),
            ({"rng_seed": "3"}, TypeError, "rng_seed"),
        ],
        ids=["str", "empty-tuple", "empty-list", "unknown-name",
             "seed-bool", "seed-float", "seed-str"],
    )
    def test_rejected_on_construction(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            PlanConfig(**kwargs)

    def test_engines_produce_identical_schedules(self):
        prog = figure1_loop(10, 10)
        p = plan(prog, config=PlanConfig(strategies=("dataflow",)), cache=False)
        assert oracle.schedule_phases(p.schedule) == oracle.dataflow_phases(prog)

    def test_strategy_order_is_honoured(self):
        p = plan(
            figure1_loop(8, 8),
            config=PlanConfig(strategies=("tiling", "recurrence-chains")),
            cache=False,
        )
        assert p.strategy == "tiling"

    def test_configs_cache_separately(self):
        cache = PlanCache()
        a = plan(figure2_loop(10), cache=cache)
        b = plan(
            figure2_loop(10), config=PlanConfig(strategies=("pdm",)), cache=cache
        )
        assert a is not b and len(cache) == 2


class TestPlanCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        plans = [plan(figure2_loop(n), cache=cache) for n in (6, 7, 8)]
        assert len(cache) == 2
        # the oldest entry (n=6) was evicted: re-planning misses and rebuilds
        rebuilt = plan(figure2_loop(6), cache=cache)
        assert rebuilt is not plans[0]

    def test_fingerprint_is_content_based(self):
        assert program_fingerprint(figure1_loop(9, 9)) == program_fingerprint(
            figure1_loop(9, 9)
        )
        assert program_fingerprint(figure1_loop(9, 9)) != program_fingerprint(
            figure1_loop(9, 10)
        )

    def test_fingerprint_distinguishes_custom_semantics(self):
        """Same loop text with different statement semantics must not share a
        cached plan — the cached Plan executes *its* program's semantics."""
        import numpy as np

        from repro.ir.builder import aref, assign, loop, program
        from repro.ir.semantics import sum_semantics

        def build(semantics):
            body = assign(
                "s", aref("x", "I+1"), [aref("x", "I")], semantics=semantics
            )
            return program(
                "sem-probe", loop("I", 1, 8, body), array_shapes={"x": (10,)}
            )

        cache = PlanCache()
        default_plan = plan(build(None), cache=cache)
        summing_plan = plan(build(sum_semantics), cache=cache)
        assert summing_plan is not default_plan
        assert len(cache) == 2
        # same semantics object again: now it hits
        assert plan(build(sum_semantics), cache=cache) is summing_plan
        # and the cached plans execute their own program's semantics
        assert not np.array_equal(
            default_plan.execute().store["x"], summing_plan.execute().store["x"]
        )

    def test_default_cache_is_shared(self):
        cache = default_plan_cache()
        p = plan(figure2_loop(9))
        assert plan(figure2_loop(9)) is p
        assert cache.stats()["hits"] >= 1


class TestPlanExplain:
    def test_explain_reports_skips_selection_and_timing(self):
        p = plan(
            example3_loop(8),
            config=PlanConfig(strategies=strategy_names()), cache=False,
        )
        lines = p.explain().splitlines()
        assert lines[0].startswith("plan for 'example3'")
        skips = [l for l in lines if l.strip().startswith("- skipped")]
        assert any("recurrence-chains" in l for l in skips)
        # every recorded skip carries its reason text
        for name, reason in p.skipped:
            assert any(name in l and reason in l for l in skips)
        selected = [l for l in lines if "selected dataflow" in l]
        assert len(selected) == 1
        assert " in " in selected[0] and "ms" in selected[0]  # timing suffix
        assert "schedule:" in lines[-1]

    def test_explain_lists_skips_in_chain_order(self):
        p = plan(
            cholesky_loop(nmat=1, m=2, n=4, nrhs=1),
            config=PlanConfig(
                strategies=("recurrence-chains", "pl", "tiling", "dataflow")
            ),
            cache=False,
        )
        assert [name for name, _ in p.skipped] == [
            "recurrence-chains", "pl", "tiling",
        ]
        text = p.explain()
        positions = [text.index(f"skipped {name}:") for name, _ in p.skipped]
        assert positions == sorted(positions)
        assert text.index("selected dataflow") > positions[-1]
        # the imperfect-nest strategies report the perfect-nest requirement
        reasons = dict(p.skipped)
        assert "perfect nest" in reasons["pl"]
        assert "perfect nest" in reasons["tiling"]

    def test_explain_pinned_strategy_has_no_skips(self):
        p = plan(
            figure1_loop(6, 6), config=PlanConfig(strategies=("pdm",)), cache=False
        )
        assert p.skipped == ()
        assert "skipped" not in p.explain()
        assert "selected pdm" in p.explain()

    def test_explain_without_timing_omits_duration(self):
        from dataclasses import replace

        p = plan(figure2_loop(8), cache=False)
        untimed = replace(p, timings={})
        selected = [
            l for l in untimed.explain().splitlines() if "selected" in l
        ][0]
        assert " in " not in selected


class TestPlanCacheLRUBoundaries:
    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)
        assert PlanCache(maxsize=1).maxsize == 1

    def test_get_refreshes_recency(self):
        """A cache *hit* must move the entry to most-recently-used: after
        hitting the oldest entry, an insertion evicts the other one."""
        cache = PlanCache(maxsize=2)
        a = plan(figure2_loop(6), cache=cache)
        b = plan(figure2_loop(7), cache=cache)
        assert plan(figure2_loop(6), cache=cache) is a  # refresh a
        plan(figure2_loop(8), cache=cache)  # evicts b (now LRU), not a
        assert plan(figure2_loop(6), cache=cache) is a  # still cached
        assert plan(figure2_loop(7), cache=cache) is not b  # was evicted

    def test_maxsize_one_keeps_only_latest(self):
        cache = PlanCache(maxsize=1)
        a = plan(figure2_loop(6), cache=cache)
        b = plan(figure2_loop(7), cache=cache)
        assert len(cache) == 1
        assert plan(figure2_loop(7), cache=cache) is b
        assert plan(figure2_loop(6), cache=cache) is not a

    def test_put_existing_key_updates_without_eviction(self):
        cache = PlanCache(maxsize=2)
        a = plan(figure2_loop(6), cache=cache)
        b = plan(figure2_loop(7), cache=cache)
        key_a = PlanCache.key(a.program, a.params, a.config)
        cache.put(key_a, a)  # re-insert under the same key
        assert len(cache) == 2  # no growth, no eviction
        assert plan(figure2_loop(7), cache=cache) is b  # b survived

    def test_eviction_is_oldest_first_across_overflow(self):
        cache = PlanCache(maxsize=2)
        plans = [plan(figure2_loop(n), cache=cache) for n in (6, 7, 8, 9)]
        assert len(cache) == 2
        # only the two newest survive
        assert plan(figure2_loop(9), cache=cache) is plans[3]
        assert plan(figure2_loop(8), cache=cache) is plans[2]
        assert plan(figure2_loop(6), cache=cache) is not plans[0]

    def test_clear_resets_entries_and_counters(self):
        cache = PlanCache(maxsize=4)
        plan(figure2_loop(6), cache=cache)
        plan(figure2_loop(6), cache=cache)
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}
        cache.clear()
        assert cache.stats() == {"size": 0, "hits": 0, "misses": 0}


def _lu_kernel():
    entry = next(e for e in selection_corpus(size="small") if e.name == "lu-kernel")
    return entry.program, entry.params


def _backwards(p):
    """The plan with its phases run in reverse order."""
    from dataclasses import replace

    phases = tuple(reversed(p.schedule.phases))
    schedule = replace(p.schedule, name=p.schedule.name + "-reversed", phases=phases)
    return replace(p, schedule=schedule)


class TestStatementLevelValidation:
    """``Plan.validate()`` keys a statement-level plan's instances by their
    unified vectors, so its dependence check sees the unified relation."""

    @pytest.mark.parametrize(
        "factory",
        [_lu_kernel, lambda: (cholesky_loop(nmat=2, m=2, n=5, nrhs=1), {})],
        ids=["lu-kernel", "cholesky"],
    )
    def test_reversed_phases_are_reported(self, factory):
        p = plan(*factory(), cache=False)
        space = p.statement_space
        assert space is not None and len(space.rd) > 0
        assert p.validate(seeds=(0,)).respects_dependences
        assert p.schedule.violations(space.rd, key=space.unify) == []

        backwards = _backwards(p)
        report = backwards.validate(seeds=(0,))
        assert not report.respects_dependences and not report.ok
        assert len(backwards.schedule.violations(space.rd, key=space.unify)) == len(space.rd)

    def test_imperfect_plan_without_statement_space_is_checked(self):
        """A baseline plan of an imperfect nest keeps no statement space;
        validate() builds one instead of skipping the dependence check."""
        p = plan(*_lu_kernel(), config=PlanConfig(strategies=("doacross",)), cache=False)
        assert p.statement_space is None
        assert p.validate(seeds=(0,)).respects_dependences
        assert not _backwards(p).validate(seeds=(0,)).respects_dependences

    def test_corpus_statement_level_plans_have_no_violations(self):
        for entry in selection_corpus(size="small"):
            p = plan(entry.program, entry.params, cache=False)
            space = p.statement_space
            if space is not None:
                assert p.schedule.respects(space.rd, key=space.unify), entry.name


class TestPlanObject:
    def test_execute_matches_sequential(self):
        import numpy as np

        from repro.runtime import execute_sequential

        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        assert np.array_equal(ref["a"], p.execute().store["a"])
        run = p.execute(backend="process", workers=2)
        assert np.array_equal(ref["a"], run.store["a"])
        assert run.instances_executed == p.schedule.total_work

    def test_summary_superset_of_old_summary(self):
        prog = figure1_loop(10, 10)
        p = plan(prog, cache=False)
        old = plan(figure1_loop(10, 10), config=ALGORITHM1, cache=False).summary()
        new = p.summary()
        for key, value in old.items():
            assert new[key] == value
        assert new["strategy"] == "recurrence-chains"

    def test_codegen_targets(self):
        p = plan(figure1_loop(6, 6), cache=False)
        assert "def run_schedule" in p.codegen()
        assert "DOALL" in p.codegen(target="fortran")
        with pytest.raises(ValueError):
            p.codegen(target="cobol")
        baseline = plan(
            figure1_loop(6, 6), config=PlanConfig(strategies=("pdm",)), cache=False
        )
        with pytest.raises(ValueError):
            baseline.codegen(target="fortran")

    def test_chain_diagnostics(self):
        p = plan(figure1_loop(20, 30), cache=False)
        assert p.longest_chain() > 0 and p.recurrence is not None
        assert p.longest_chain() <= p.chain_length_bound()
        df = plan(example3_loop(10), cache=False)
        assert df.chain_length_bound() is None and df.longest_chain() == 0


class TestPlanCacheThreadSafety:
    def test_concurrent_get_put_never_corrupts(self):
        """Hammer one PlanCache from many threads with interleaved hits,
        misses and evictions; the LRU must stay bounded and consistent.
        (Unlocked OrderedDict mutation raises or corrupts under this load —
        the regression this pins is the daemon's shared-cache requirement.)"""
        import threading

        cache = PlanCache(maxsize=8)
        sentinel = object()
        errors = []

        def worker(worker_id):
            try:
                for i in range(300):
                    key = (f"fp{(worker_id + i) % 16}", (), None)
                    if cache.get(key) is None:
                        cache.put(key, sentinel)
                    if i % 50 == 0:
                        cache.stats()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300

    def test_concurrent_plan_calls_share_one_cache(self):
        """plan() itself is safe against a shared cache: all threads get
        the identical plan object once it is cached."""
        import threading

        cache = PlanCache()
        prog = figure2_loop(8)
        plans, errors = [], []

        def worker():
            try:
                for _ in range(5):
                    plans.append(plan(prog, cache=cache))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # racing misses may each have planned (last put wins) — every
        # result must still be an equivalent plan of the same program...
        final = plan(prog, cache=cache)
        assert all(
            p.fingerprint == final.fingerprint and p.strategy == final.strategy
            for p in plans
        )
        # ...and once the race settles, hits are identity-stable
        assert plan(prog, cache=cache) is final
