"""E-symbolic — the symbolic O(1)-in-N planning + compiled-kernel contracts.

Not a paper artifact: this benchmark guards the two performance contracts of
the ``symbolic`` strategy and its ``compiled`` execution backend.

* ``test_symbolic_plan_is_o1_in_n`` — planning a symbolic-eligible workload
  at **10⁸ iteration points** returns in **< 100 ms** without enumerating the
  iteration space or the dependence pairs: P1, P2, P3 and the chain starts
  are boxes built in integer box arithmetic from the loop box and the shift
  (``repro.core.symbolic.box_partition``), and the Lemma 1 chains are
  lattice cosets (start + k·u strided arrays), so nothing in the pipeline
  is proportional to N.  Asserted structurally too: the shared
  ``DependenceAnalysis`` must not have materialised its point or pair arrays.

* ``test_compiled_backend_speedup`` — on a 10⁶-point workload the first
  ``compiled`` run of the symbolic plan (the lockstep executor, closed-form
  lowering included) beats the interpreting ``serial`` backend by **≥ 10×**
  wall-clock with a **bit-identical** final store, and a second execution of
  the same plan hits the lowered form cached on the schedule.

* ``test_symbolic_corpus_plan_cold`` — the O(1) planner's constant: a cold
  ``plan()`` of each ``selection_corpus(size="small")`` nest that picks
  ``symbolic``, against the cheapest other strategy pinned on the same nest.
  ``deep-rect-diag``'s symbolic plan must take at most **3×** its cheapest
  pinned strategy.

* ``test_lockstep_kernel_speedup`` — the lockstep executor
  (``repro.runtime.lockstep``) on materialised phases.  A pinned
  ``dataflow`` plan of ``large_uniform_loop(320, 320)`` (about 10⁵ points,
  one DOALL phase per wavefront) must run hot at **≥ 10×** ``serial``, and
  its first run, lowering included, must beat ``serial`` too.

* ``test_symbolic_lowering`` — ungated: at 10⁶ points the symbolic
  schedule's closed-form lowering (straight from its boxes and cosets)
  against the generic lowering of the same phases materialised, the hot
  ``compiled`` run, and the bytes each lowered form holds.

Rows are appended to ``BENCH_scale.json`` via the run_id-keyed trajectory
recorder shared with ``bench_scale_partition.py``.
"""

import statistics
import time

import numpy as np

from repro.analysis.features import clear_feature_cache
from repro.core.partitioner import PartitioningNotApplicable
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanCache, PlanConfig, plan, strategy_names
from repro.runtime import execute, execute_sequential

from bench_scale_partition import record_bench

#: The O(1)-planning gate size: 10⁴ × 10⁴ = 10⁸ iteration points.
PLAN_N = (10_000, 10_000)
#: The kernel-speedup gate size: 10³ × 10³ = 10⁶ iteration points (the serial
#: interpreter at 10⁸ would take half an hour; the claim is size-stable).
EXEC_N = (1_000, 1_000)

#: The lockstep-kernel gate size: 320 × 320 ≈ 10⁵ iteration points.
LOCKSTEP_N = (320, 320)

SYMBOLIC = PlanConfig(strategies=("symbolic",))
#: Calls per cold-plan timing; the row records their median.
COLD_REPS = 5
#: ``deep-rect-diag``: symbolic cold plan / cheapest pinned cold plan.
MAX_SYMBOLIC_RATIO = 3.0


def test_symbolic_plan_is_o1_in_n(report):
    from repro.workloads.synthetic import large_uniform_loop

    # Warm the import graph and the symbolic builder on a tiny instance so
    # the timed run measures planning, not first-touch module loading.
    plan(large_uniform_loop(8, 8), config=SYMBOLIC, cache=False)

    n1, n2 = PLAN_N
    t_plan = float("inf")
    p = None
    for _ in range(3):
        prog = large_uniform_loop(n1, n2)
        t0 = time.perf_counter()
        p = plan(prog, config=SYMBOLIC, cache=False)
        t_plan = min(t_plan, time.perf_counter() - t0)

    assert p.strategy == "symbolic"
    assert p.schedule.total_work == n1 * n2  # |P1| + |P2| + |P3| = |Φ|
    # O(1) structurally: the shared analysis never materialised the iteration
    # space or enumerated dependence pairs (both are lazy cached properties —
    # enumeration would leave them in the instance __dict__).
    assert "space" not in vars(p.analysis)
    assert "pair_dependences" not in vars(p.analysis)

    rows = [
        {
            "points": n1 * n2,
            "phases": p.schedule.num_phases,
            "strategy": p.strategy,
            "t_plan_s": round(t_plan, 4),
        }
    ]
    report("Symbolic planning at 10^8 points", rows)
    record_bench("symbolic_plan", rows)

    assert t_plan < 0.1, (
        f"symbolic plan() took {t_plan:.3f}s at {n1 * n2} points — "
        f"the O(1)-in-N contract allows < 100 ms"
    )


def test_compiled_backend_speedup(report):
    from repro.workloads.synthetic import large_uniform_loop

    n1, n2 = EXEC_N
    prog = large_uniform_loop(n1, n2)
    p = plan(prog, config=SYMBOLIC, cache=False)

    t0 = time.perf_counter()
    serial = execute(prog, p.schedule, {}, backend="serial", seed=None)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = execute(prog, p.schedule, {}, backend="compiled")
    t_compiled = time.perf_counter() - t0

    # Bit-identical to both the serial backend and the sequential reference
    # before the timings mean anything.
    ref = execute_sequential(prog, {})
    assert set(ref) == set(compiled.store)
    assert all(np.array_equal(ref[k], compiled.store[k]) for k in ref)
    assert all(np.array_equal(serial.store[k], compiled.store[k]) for k in ref)
    assert compiled.meta.get("kernel") is True
    assert compiled.instances_executed == p.schedule.total_work

    # The second execution of the same plan reuses the lowered form.
    again = execute(prog, p.schedule, {}, backend="compiled")
    assert again.meta["kernel_cache"] == "hit"
    assert all(np.array_equal(ref[k], again.store[k]) for k in ref)

    speedup = t_serial / t_compiled
    rows = [
        {
            "points": n1 * n2,
            "phases": p.schedule.num_phases,
            "t_serial_s": round(t_serial, 4),
            "t_compiled_s": round(t_compiled, 4),
            "speedup": round(speedup, 1),
            "kernel_cache_second_run": again.meta["kernel_cache"],
        }
    ]
    report("Compiled kernel vs serial interpreter", rows)
    record_bench("symbolic_compiled", rows)

    assert speedup >= 10.0, (
        f"compiled kernel only {speedup:.1f}x the serial backend at "
        f"{n1 * n2} points — the contract requires >= 10x"
    )


def _same(ref, store):
    return set(ref) == set(store) and all(np.array_equal(ref[k], store[k]) for k in ref)


def test_lockstep_kernel_speedup(report):
    from repro.workloads.synthetic import large_uniform_loop

    n1, n2 = LOCKSTEP_N
    prog = large_uniform_loop(n1, n2)
    p = plan(prog, config=PlanConfig(strategies=("dataflow",)), cache=False)
    ref = execute_sequential(prog, {})

    t0 = time.perf_counter()
    serial = execute(prog, p.schedule, {}, backend="serial", seed=None)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    first = execute(prog, p.schedule, {}, backend="compiled")
    t_first = time.perf_counter() - t0
    t_hot = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hot = execute(prog, p.schedule, {}, backend="compiled")
        t_hot = min(t_hot, time.perf_counter() - t0)

    assert _same(ref, serial.store) and _same(ref, first.store) and _same(ref, hot.store)
    assert (first.meta, hot.meta) == (
        {"kernel": True, "kernel_cache": "miss"},
        {"kernel": True, "kernel_cache": "hit"},
    )

    rows = [
        {
            "points": n1 * n2,
            "strategy": p.strategy,
            "phases": p.schedule.num_phases,
            "t_serial_s": round(t_serial, 4),
            "t_first_s": round(t_first, 4),
            "t_hot_s": round(t_hot, 4),
            "speedup_hot": round(t_serial / t_hot, 1),
            "speedup_first": round(t_serial / t_first, 1),
        }
    ]
    report("Lockstep kernel vs serial interpreter (pinned dataflow)", rows)
    record_bench("lockstep_compiled", rows)

    assert t_serial / t_hot >= 10.0, (
        f"hot lockstep kernel only {t_serial / t_hot:.1f}x the serial backend "
        f"at {n1 * n2} points — the contract requires >= 10x"
    )
    assert t_first < t_serial, (
        f"first lockstep run ({t_first:.3f}s, lowering included) is slower "
        f"than serial ({t_serial:.3f}s)"
    )


def _lowered_mb(lowered):
    """Megabytes of index, term and (for interpreted phases) instance arrays
    a lowered schedule holds."""
    total = 0
    for _, _, body in lowered.phases:
        if isinstance(body, Phase):
            total += body.iters.nbytes + body.stmt_ids.nbytes
            continue
        for _, reads, writes, term in body:
            total += term.nbytes + sum(idx.nbytes for _, idx in reads + writes)
    return total / 2**20


def test_symbolic_lowering(report):
    from repro.runtime.executor import make_store
    from repro.runtime.lockstep import lower_schedule
    from repro.workloads.synthetic import large_uniform_loop

    n1, n2 = EXEC_N
    prog = large_uniform_loop(n1, n2)
    p = plan(prog, config=SYMBOLIC, cache=False)
    shapes = dict(prog.array_shapes)

    t0 = time.perf_counter()
    closed = lower_schedule(prog, p.schedule, shapes)
    t_closed = time.perf_counter() - t0
    t0 = time.perf_counter()
    materialised = Schedule.from_phases(
        p.schedule.name, [ph.lower() for ph in p.schedule.phases],
        p.schedule.labels, p.schedule.depths,
    )
    generic = lower_schedule(prog, materialised, shapes)
    t_generic = time.perf_counter() - t0

    execute(prog, p.schedule, {}, backend="compiled")  # lower once
    t_hot = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hot = execute(prog, p.schedule, {}, backend="compiled")
        t_hot = min(t_hot, time.perf_counter() - t0)
    store = make_store(prog)
    generic(store)
    assert hot.meta == {"kernel": True, "kernel_cache": "hit"}
    assert _same(hot.store, store)

    rows = [
        {
            "points": n1 * n2,
            "phases": p.schedule.num_phases,
            "t_closed_form_lower_s": round(t_closed, 4),
            "t_generic_lower_s": round(t_generic, 4),
            "t_hot_s": round(t_hot, 4),
            "closed_form_mb": round(_lowered_mb(closed), 1),
            "generic_mb": round(_lowered_mb(generic), 1),
        }
    ]
    report("Closed-form vs generic lowering of one symbolic plan", rows)
    record_bench("symbolic_lowering", rows)


def _cold_plan_ms(entry, config=None):
    """Median of ``COLD_REPS`` cold ``plan()`` calls, each with a fresh plan
    cache and a cleared feature cache; returns ``(ms, plan)``."""
    times = []
    p = None
    for _ in range(COLD_REPS):
        clear_feature_cache()
        t0 = time.perf_counter()
        p = plan(entry.program, entry.params, config=config, cache=PlanCache())
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, p


def test_symbolic_corpus_plan_cold(report):
    from repro.workloads.corpus import selection_corpus

    entries = selection_corpus(size="small")
    for e in entries:  # warm imports and the selection table
        plan(e.program, e.params, cache=False)

    rows = []
    for e in entries:
        t_symbolic, p = _cold_plan_ms(e)
        if p.strategy != "symbolic":
            continue
        cheapest = None
        for name in strategy_names():
            if name == "symbolic":
                continue
            try:
                t, _ = _cold_plan_ms(e, PlanConfig(strategies=(name,)))
            except PartitioningNotApplicable:
                continue
            if cheapest is None or t < cheapest[1]:
                cheapest = (name, t)
        rows.append(
            {
                "program": e.name,
                "t_plan_ms": round(t_symbolic, 2),
                "cheapest_pinned": cheapest[0],
                "t_pinned_ms": round(cheapest[1], 2),
                "ratio": round(t_symbolic / cheapest[1], 1),
            }
        )
    report("Cold plan() of the small-corpus nests that pick symbolic", rows)
    record_bench("symbolic_corpus_plan_cold", rows)

    assert len(rows) == 6, [r["program"] for r in rows]
    (diag,) = [r for r in rows if r["program"] == "deep-rect-diag"]
    assert diag["ratio"] <= MAX_SYMBOLIC_RATIO, (
        f"cold symbolic plan() of deep-rect-diag takes {diag['ratio']}x its "
        f"cheapest pinned strategy ({diag['cheapest_pinned']}); the bound is "
        f"{MAX_SYMBOLIC_RATIO}x"
    )
