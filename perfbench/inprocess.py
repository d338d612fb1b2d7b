"""The two in-process workloads: ``plan-cold`` and ``exec-hot``.

Both run whole passes over a seeded, fixed operation list until the
requested seconds have elapsed, so every run weighs every program equally
(a partial pass would tilt the geomean towards whichever programs came
first).  Reference outputs come from ``execute_sequential``, which never
consults the planner or a backend; they are computed outside both the clock
and the set-up time, and every operation's store is compared against them.

``repro`` is imported inside the set-up functions on purpose: the import is
part of the measured set-up.  Reference outputs are computed at the start of
the run functions, so that a set-up-only probe does not pay for them.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from benchstats import Run, geomean, run_passes
from tracing import Tracer

#: Builders whose time is reported on its own (the rest are rarely probed).
BUILDERS = ("symbolic", "recurrence-chains", "dataflow", "pdm", "doacross")

#: Registered strategies, each reported as a ``core.pick.<name>`` count.
STRATEGIES = ("recurrence-chains", "dataflow", "pdm", "pl", "unique-sets",
              "doacross", "tiling", "inner-parallel", "symbolic")

#: Seeded random stores per program on ``exec-hot``.
EXEC_STORES = 4


def _copy(store: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {k: v.copy() for k, v in store.items()}


def store_digest(store: Dict[str, np.ndarray]) -> str:
    """Content hash of a store (names, dtypes, shapes and bytes).  Reference
    outputs are kept as digests so that they do not dominate the peak RSS
    the benchmark reports for the program."""
    h = hashlib.sha256()
    for name in sorted(store):
        arr = np.ascontiguousarray(store[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _draw_sizes(rng: random.Random, centre: int) -> List[int]:
    """Two loop bounds of one family: ``centre`` itself and a seeded draw
    from the quarter below it.  Every seed's largest program is then the
    same, which holds peak memory and the slowest plans steady."""
    return [centre, rng.randrange(max(2, round(centre * 0.75)), centre)]


# ---------------------------------------------------------------------------
# plan-cold: one plan() per operation, every call misses every cache
# ---------------------------------------------------------------------------


def setup_plan_cold(seed: int, tracer: Optional[Tracer] = None):
    """Set up ``plan-cold``; returns ``(state, set-up seconds)``.

    The set-up time covers imports, the selection-table load and a warm-up
    plan of every family at the ``small`` size; drawing the programs is
    excluded.
    """
    t0 = time.perf_counter()
    from repro.analysis.features import clear_feature_cache
    from repro.core.strategy import load_selection_table, plan
    from repro.workloads.corpus import CORPUS_SIZES, corpus_families, family_entries

    load_selection_table()
    imported = time.perf_counter() - t0

    rng = random.Random(seed)
    specs = [(fam, n) for fam in corpus_families()
             for n in _draw_sizes(rng, CORPUS_SIZES["medium"][fam])]

    t1 = time.perf_counter()
    for fam in corpus_families():
        for e in family_entries(fam, size="small"):
            plan(e.program, e.params, cache=False)
    clear_feature_cache()
    warmed = time.perf_counter() - t1

    return {"seed": seed, "specs": specs, "tracer": tracer}, imported + warmed


def _references(specs, seed):
    from repro.runtime.executor import execute_sequential, make_store
    from repro.workloads.corpus import family_entries

    refs = {}
    for i, (fam, n) in enumerate(specs):
        for j, e in enumerate(family_entries(fam, n=n)):
            store_seed = seed * 1000 + i * 10 + j
            expected = execute_sequential(
                e.program, e.params, make_store(e.program, fill="random", seed=store_seed))
            refs[(fam, n, e.name)] = (store_seed, store_digest(expected))
    return refs


def run_plan_cold(state, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.analysis import features as features_mod
    from repro.analysis.features import clear_feature_cache, feature_cache_stats
    from repro.core import strategy as strategy_mod
    from repro.core.strategy import default_plan_cache
    from repro.runtime.backends import execute
    from repro.runtime.executor import make_store
    from repro.workloads.corpus import family_entries

    refs = _references(state["specs"], state["seed"])
    plans: List[Any] = []
    feature_hits = [0]

    def one_pass(run: Run, keep: bool) -> None:
        # Fresh program objects and an empty feature cache each pass: the
        # feature cache is keyed on content, so plan(cache=False) alone would
        # hit it from the second pass on.
        entries = [(fam, n, e) for fam, n in state["specs"]
                   for e in family_entries(fam, n=n)]
        clear_feature_cache()
        for fam, n, e in entries:
            p, _ = run.timed(lambda: strategy_mod.plan(e.program, e.params, cache=False))
            if keep:
                plans.append(p)
            store_seed, expected = refs[(fam, n, e.name)]
            got = execute(e.program, p.schedule, e.params, backend="compiled",
                          store=make_store(e.program, fill="random", seed=store_seed)).store
            if store_digest(got) != expected:
                run.fail(f"plan-cold {e.name} n={n}: store differs from execute_sequential")
        hits = feature_cache_stats()["hits"]
        feature_hits[0] += hits
        if hits:
            run.fail(f"plan-cold: {hits} feature-cache hits in one pass")

    plan_hits0 = default_plan_cache().stats()["hits"]
    untraced = run_passes(seconds / 2 if trace else seconds,
                          lambda run: one_pass(run, False))
    result = {"run": untraced, "layers": {}}
    if trace:
        tracer: Tracer = state["tracer"]
        mark = len(tracer.spans)
        get_strategy = strategy_mod.get_strategy
        tracer.wrap(strategy_mod, "plan", "core.plan")
        tracer.wrap(strategy_mod, "program_fingerprint", "ir.fingerprint")
        tracer.wrap(strategy_mod, "DependenceAnalysis", "dependence.analysis")
        tracer.wrap(features_mod, "program_features", "analysis.features")
        tracer.patch(strategy_mod, "get_strategy", lambda name: replace(
            get_strategy(name),
            builder=tracer.traced(get_strategy(name).builder, f"core.build.{name}")))
        feature_hits[0] = 0
        try:
            traced = run_passes(seconds / 2, lambda run: one_pass(run, True))
        finally:
            tracer.uninstall()
        result["run"] = traced
        result["untraced"] = untraced
        passes = len(plans) // len(refs)
        result["layers"] = _plan_layers(plans, passes, tracer, mark, feature_hits[0])
    plan_hits = default_plan_cache().stats()["hits"] - plan_hits0
    if plan_hits:
        result["run"].fail(f"plan-cold: {plan_hits} plan-cache hits")
    result["layers"]["core.plan_cache.hits"] = (plan_hits, "count")
    return result


def _plan_layers(plans, passes: int, tracer: Tracer, mark: int,
                 feature_hits: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of the traced window.  Counts are per pass over the
    program set, so they repeat exactly from run to run."""
    ops = len(plans)
    build_ms: Dict[str, List[float]] = {name: [] for name in BUILDERS}
    select_ms, refused, refused_s, builder_s, points = [], 0, 0.0, 0.0, 0
    picks = {name: 0 for name in STRATEGIES}
    for p in plans:
        builders = {k: v for k, v in p.timings.items() if k != "total"}
        select_ms.append((p.timings["total"] - sum(builders.values())) * 1e3)
        builder_s += sum(builders.values())
        for name, secs in builders.items():
            if name in build_ms:
                build_ms[name].append(secs * 1e3)
        for name, reason in p.skipped:
            if reason.startswith("builder raised"):
                refused += 1
                refused_s += builders.get(name, 0.0)
        picks[p.strategy] = picks.get(p.strategy, 0) + 1
        if p.selection is not None and p.selection.features is not None:
            points += p.selection.features.n_points
    layers = {
        "core.select_ms": (geomean(select_ms), "ms"),
        "core.probe_refused": (refused / passes, "count"),
        "core.probe_waste_ratio": (refused_s / builder_s if builder_s else 0.0, "ratio"),
        "dependence.points": (points / passes, "count"),
        "ir.fingerprint_ms": (tracer.total_ms("ir.fingerprint", mark) / ops, "ms"),
        "analysis.features_ms": (tracer.total_ms("analysis.features", mark) / ops, "ms"),
        "analysis.feature_cache.hits": (feature_hits, "count"),
    }
    for name, values in build_ms.items():
        layers[f"core.build_ms.{name}"] = (sum(values) / len(values) if values else 0.0, "ms")
    for name, count in picks.items():
        layers[f"core.pick.{name}"] = (count / passes, "count")
    return layers


# ---------------------------------------------------------------------------
# exec-hot: execute() of a cached plan on the compiled backend
# ---------------------------------------------------------------------------


def setup_exec_hot(seed: int, tracer: Optional[Tracer] = None):
    """Set up ``exec-hot``; returns ``(state, set-up seconds)``.

    The set-up time covers imports, the selection-table load, planning every
    program and one warm execution each (which compiles the kernels).
    """
    t0 = time.perf_counter()
    from repro.codegen import python_source
    from repro.core.strategy import load_selection_table, plan
    from repro.runtime.backends import execute
    from repro.runtime.executor import make_store
    from repro.workloads.corpus import selection_corpus

    load_selection_table()
    imported = time.perf_counter() - t0

    # The programs are fixed (the ``small`` corpus); the seed draws their
    # stores and the operation order.  Drawing sizes too made the per-seed
    # mix of kernel and fallback costs the widest source of spread.
    entries = selection_corpus(size="small")

    mark = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.wrap(python_source, "ensure_symbolic_kernel", "codegen.ensure_kernel")
    t1 = time.perf_counter()
    plans = [plan(e.program, e.params) for e in entries]
    for e, p in zip(entries, plans):
        execute(e.program, p.schedule, e.params, store=make_store(e.program),
                backend="compiled")
    warmed = time.perf_counter() - t1
    kernel_build_ms = 0.0
    if tracer:
        kernel_build_ms = tracer.total_ms("codegen.ensure_kernel", mark)
        tracer.uninstall()

    state = {"seed": seed, "plans": list(zip(entries, plans)), "tracer": tracer,
             "kernel_build_ms": kernel_build_ms}
    return state, imported + warmed


def run_exec_hot(state, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.codegen.python_source import kernel_cache_stats
    from repro.runtime import backends as backends_mod
    from repro.runtime.executor import execute_sequential, make_store

    seed = state["seed"]
    ops = []
    for i, (e, p) in enumerate(state["plans"]):
        for j in range(EXEC_STORES):
            store = make_store(e.program, fill="random", seed=seed * 1000 + i * 10 + j)
            expected = store_digest(execute_sequential(e.program, e.params, _copy(store)))
            ops.append((e, p, store, expected))
    random.Random(seed).shuffle(ops)
    results: List[Tuple[Any, float]] = []

    def one_pass(run: Run, keep: bool) -> None:
        for e, p, store, expected in ops:
            fresh = _copy(store)
            res, dt = run.timed(lambda: backends_mod.execute(
                e.program, p.schedule, e.params, store=fresh, backend="compiled"))
            if keep:
                results.append((res, dt))
            if store_digest(res.store) != expected:
                run.fail(f"exec-hot {e.program.name}: store differs from execute_sequential")

    misses0 = kernel_cache_stats()["misses"]
    untraced = run_passes(seconds / 2 if trace else seconds,
                          lambda run: one_pass(run, False))
    result = {"run": untraced, "layers": {}}
    if trace:
        tracer: Tracer = state["tracer"]
        tracer.wrap(backends_mod, "execute", "runtime.execute")
        tracer.wrap(backends_mod, "_serial_runner", "runtime.serial_runner")
        try:
            traced = run_passes(seconds / 2, lambda run: one_pass(run, True))
        finally:
            tracer.uninstall()
        result["run"] = traced
        result["untraced"] = untraced
        result["layers"] = _exec_layers(results, state["kernel_build_ms"])
    misses = kernel_cache_stats()["misses"] - misses0
    if misses:
        result["run"].fail(f"exec-hot: {misses} kernel-cache misses in the timed window")
    result["layers"]["codegen.kernel_cache.misses"] = (misses, "count")
    return result


def _exec_layers(results, kernel_build_ms: float) -> Dict[str, Tuple[float, str]]:
    kernel = [dt * 1e3 for r, dt in results if r.meta.get("kernel")]
    fallback = [dt * 1e3 for r, dt in results if r.meta.get("fallback")]
    dispatch = [(dt - sum(r.phase_elapsed())) * 1e3 for r, dt in results]
    return {
        "runtime.kernel_ms": (sum(kernel) / len(kernel) if kernel else 0.0, "ms"),
        "runtime.fallback_ms": (sum(fallback) / len(fallback) if fallback else 0.0, "ms"),
        "runtime.fallback_ratio": (len(fallback) / len(results), "ratio"),
        "runtime.dispatch_ms": (sum(dispatch) / len(dispatch), "ms"),
        "runtime.instances": (sum(r.instances_executed for r, _ in results) / len(results),
                              "count"),
        "codegen.kernel_build_ms": (kernel_build_ms, "ms"),
    }
