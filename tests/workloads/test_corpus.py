"""Tests for the selection corpus (repro.workloads.corpus).

Two layers of guarantees:

* **composition corpus** (the SPECfp95-like study input) — deterministic
  generation at the published fractions (already covered in depth by
  ``tests/analysis/test_stats.py``; here only the seeding contract);
* **selection corpus** — every program of every family is a real, runnable
  workload: it plans under the default config, the plan respects every
  dependence (``Plan.validate()``), and executing the plan's schedule is
  bit-identical to ``execute_sequential`` over a randomized initial store
  (the differential idiom of the backend suite).  These are the programs the
  calibrated strategy-selection table is derived from, so they must not be
  able to rot into unexecutable shapes.
"""

import numpy as np
import pytest

from repro.core.strategy import PlanConfig, plan
from repro.runtime import execute_sequential, make_store
from repro.workloads.corpus import (
    CORPUS_SIZES,
    DEFAULT_CORPUS_SEED,
    CorpusEntry,
    build_corpus,
    corpus_families,
    family_entries,
    lu_kernel,
    selection_corpus,
    sor_kernel,
)

SMALL_CORPUS = selection_corpus(size="small")


class TestCorpusShape:
    def test_families_and_entries(self):
        families = corpus_families()
        assert len(families) >= 8
        for required in (
            "deep-rectangular", "triangular", "imperfect", "nonuniform-coupled",
            "coupled-uniform", "separable", "reversal-1d", "parametric",
            "lu", "sor",
        ):
            assert required in families
        assert {e.family for e in SMALL_CORPUS} == set(families)
        # entry names are unique corpus-wide (they key the bench rows)
        names = [e.name for e in SMALL_CORPUS]
        assert len(names) == len(set(names))

    def test_generation_is_deterministic(self):
        again = selection_corpus(size="small")
        for a, b in zip(SMALL_CORPUS, again):
            assert a.name == b.name and a.params == b.params
            assert a.program == b.program

    def test_size_presets_cover_every_family(self):
        for size, bounds in CORPUS_SIZES.items():
            assert set(bounds) == set(corpus_families()), size

    def test_unknown_family_and_size_raise(self):
        with pytest.raises(KeyError):
            family_entries("no-such-family")
        with pytest.raises(KeyError):
            selection_corpus(size="no-such-size")

    def test_parametric_entries_carry_params(self):
        entries = family_entries("parametric", n=6)
        assert entries and all(e.params == {"N": 6} for e in entries)
        assert all(e.program.parameters == ("N",) for e in entries)


class TestCorpusPrograms:
    @pytest.mark.parametrize(
        "entry", SMALL_CORPUS, ids=[e.name for e in SMALL_CORPUS]
    )
    def test_plans_validates_and_matches_sequential(self, entry):
        """Every corpus program plans, respects its dependences, and executes
        bit-identically to the sequential reference over a random store."""
        p = plan(entry.program, entry.params, cache=False)
        assert p.schedule.total_work > 0
        assert p.validate(seeds=(0,)).ok

        init = make_store(entry.program, fill="random", seed=7)
        ref = execute_sequential(
            entry.program, entry.params,
            store={k: v.copy() for k, v in init.items()},
        )
        store = p.execute(store={k: v.copy() for k, v in init.items()}).store
        for name in ref:
            assert np.array_equal(ref[name], store[name]), (
                f"{entry.name}: array {name!r} diverges from sequential"
            )

    @pytest.mark.parametrize(
        "entry", SMALL_CORPUS, ids=[e.name for e in SMALL_CORPUS]
    )
    def test_fixed_selector_also_plans(self, entry):
        p = plan(
            entry.program, entry.params,
            config=PlanConfig(selector="fixed"), cache=False,
        )
        assert p.schedule.total_work > 0


class TestKernels:
    def test_lu_kernel_structure(self):
        prog = lu_kernel(6)
        assert not prog.is_perfect_nest()
        labels = [ctx.statement.label for ctx in prog.statement_contexts()]
        assert labels == ["s1", "s2"]

    def test_sor_kernel_is_uniform_perfect_nest(self):
        from repro.dependence.analysis import DependenceAnalysis

        prog = sor_kernel(6)
        assert prog.is_perfect_nest()
        analysis = DependenceAnalysis(prog, {})
        assert analysis.is_uniform()
        assert len(analysis.iteration_dependences) > 0

    def test_composition_corpus_unchanged(self):
        specs = build_corpus(seed=DEFAULT_CORPUS_SEED)
        again = build_corpus(seed=DEFAULT_CORPUS_SEED)
        assert [s.program.name for s in specs] == [s.program.name for s in again]
