"""E-scale — scaling sweeps of the array-native partitioning pipeline.

Not a paper artifact: this benchmark guards the performance contract of the
array-backed path, at two levels.

Every "set" timing is the brute-force tuple oracle of ``tests/oracle.py``
(the per-point set algebra the array engine replaced), and every gate first
checks that the array engine's result is bit-identical to it.

* ``test_scale_partition_speedup`` — the original core sweep: three-set
  partition (eq. 5) + dataflow wavefront peeling over a **synthetic relation**
  (:func:`repro.workloads.synthetic.scale_partition_case`), oracle vs array
  engine, 10³–10⁵ points (10⁶ with ``REPRO_SCALE_XL=1``).  Contract: ≥5×
  at 10⁵ points, bit-identical partitions and wavefronts.

* ``test_end_to_end_pipeline_speedup`` — the full **program → exact Rd →
  schedule** pipeline on a real program (:func:`large_uniform_loop`), oracle
  (dict join on address tuples, frozenset unions, set-algebra partitions,
  literal dataflow while-loop) vs the planned array pipeline (sort/merge
  join, array concatenation, CSR peeling, a schedule of
  :class:`~repro.core.schedule.Phase` array slices).  Contract: ≥10×
  end-to-end wall-clock at 10⁵ points, bit-identical P1/P2/P3/W sets and
  wavefronts.

* ``test_triangular_end_to_end`` — the same pipeline over the non-rectangular
  :func:`large_triangular_loop` (bounding-box + filter enumeration feeding
  the sort join): equivalence with the oracle at 10⁴ points, array-path
  wall-clock recorded at 10⁵.

* ``test_plan_facade_overhead`` — the planning facade's contract on the
  10⁵-point sweep: a cold ``plan()`` costs <5% over the bare pipeline it
  wraps, and a cached re-plan is ≥10× faster than cold *and* returns the
  identical :class:`~repro.core.strategy.Plan` object.

* ``test_process_backend_speedup`` — the **execution**-side contract: the
  shared-memory ``process`` backend vs the ``serial`` backend on the
  ``large_uniform_loop`` wavefront schedule with the compute-heavy semantics
  kernel (:func:`repro.ir.semantics.compute_heavy_semantics`, so per-instance
  work dominates interpreter dispatch).  Contract: measured wall-clock
  speedup **>1× at 4 workers** on 10⁵ points (target ≥2×) — asserted on
  multi-core hosts; single-core machines record the measured row (expect
  <1×: there is nothing to parallelise onto) without failing, and
  ``REPRO_REQUIRE_PROCESS_SPEEDUP=1`` forces the assertion anywhere.

* ``test_warm_process_against_compiled`` — recorded, ungated: a warm
  2-worker ``process`` pool against ``compiled`` on the default plan of
  ``large_uniform_loop(1000, 1000)`` (10⁶ points), both on the lockstep
  kernel, median of warm runs.

* ``test_plan_scale`` — one cold ``plan()`` of each large nest split into
  its layers: the statement space (domains + Rd), the features beyond it,
  the selection rest (ranking, applicability) and the builder.  The layers
  add up to ``Plan.timings["total"]``.  Contract: the default cold plan of
  ``large_triangular_loop(447)`` (10⁵ points) takes ≤ 150 ms.

* ``test_statement_level_speedup`` — the §3.3 statement-level pipeline on the
  multi-statement triangular imperfect nest
  (:func:`repro.workloads.synthetic.large_cholesky_nest`): full
  program → statement-level Rd → wavefront schedule, oracle (per-instance
  unify loop, Python set of unified pairs, set peeling) vs array path (one
  ``unify_array`` interleave per statement, ``PointCodec`` orientation, CSR
  peeling over unified rows, a :class:`~repro.core.schedule.Phase` schedule
  over their odd columns).  Contract: ≥5× at 10⁵ statement instances, bit-identical phase
  names and instance sequences.

Every sweep's rows are recorded in ``BENCH_scale.json`` at the repository
root — the perf-trajectory file.  Rows **accumulate across sessions**: each
row carries the session ``run_id`` and machine fingerprint, a re-run within
one session replaces its own rows, and rows from earlier sessions are kept
so the trajectory is inspectable over time.
"""

import json
import os
import time
from pathlib import Path

import oracle
from repro.core.dataflow import dataflow_partition, dataflow_schedule
from repro.core.partition import three_set_partition
from repro.core.strategy import PlanCache, PlanConfig, plan
from repro.dependence.analysis import DependenceAnalysis

from benchrows import RUN_ID, emit, run_once, stamp_rows

#: (n1, n2) sweep: 10³, 10⁴ and 10⁵ iteration points.
SIZES = [(40, 25), (125, 80), (500, 200)]
XL_SIZE = (1250, 800)  # 10⁶ points, array engine only

#: The pinned dataflow strategy every pipeline sweep plans with.
DATAFLOW = PlanConfig(strategies=("dataflow",))

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def record_bench(section, rows):
    """Append one sweep's rows to the BENCH_scale.json perf-trajectory file.

    Every row is stamped with the session ``run_id`` and the machine
    fingerprint (cpu_count / platform / Python version).  Rows from *other*
    sessions are preserved — the file is a trajectory, not a snapshot — while
    a re-run inside the same session replaces its own earlier rows, so a
    single bench invocation never double-counts.
    """
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            data = {}
    existing = data.get(section, [])
    if not isinstance(existing, list):
        existing = []
    kept = [r for r in existing if r.get("run_id") != RUN_ID]
    data[section] = kept + stamp_rows(rows)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def hot_path(space, rd):
    """The measured core hot path: eq. 5 partition + dataflow peeling."""
    return three_set_partition(space, rd), dataflow_partition(space, rd)


def oracle_hot_path(space, rd):
    """The same two results from the oracle's per-point set algebra."""
    points = [tuple(p) for p in space.tolist()]
    return oracle.three_sets(points, rd), oracle.wavefronts(points, rd)


def array_pipeline(prog):
    """program → exact Rd → dataflow schedule, planned; plus the eq. 5 partition."""
    p = plan(prog, config=DATAFLOW, cache=False)
    rd = p.analysis.space.rd
    return rd, three_set_partition(p.analysis.space.unified_array, rd), p.schedule


def oracle_pipeline(prog):
    """The same three results from the brute-force oracle."""
    rd = oracle.statement_space(prog).rd
    points = oracle.space_points(prog)
    label = prog.statement_contexts()[0].statement.label
    phases = [
        (f"wavefront-{k}", [(label, p) for p in sorted(wave)])
        for k, wave in enumerate(oracle.wavefronts(points, rd))
    ]
    return rd, oracle.three_sets(points, rd), phases


def pipeline_mismatches(expected, got):
    """Differences between an oracle and an array pipeline run (empty == identical)."""
    (rd_o, sets, phases), (rd_a, partition, schedule) = expected, got
    problems = [] if rd_a == rd_o else ["combined dependence relation differs"]
    got = oracle.sets(partition)
    for name in ("p1", "p2", "p3", "w"):
        if getattr(got, name) != getattr(sets, name):
            problems.append(f"three-set component {name.upper()} differs")
    if oracle.schedule_phases(schedule) != phases:
        problems.append("schedule phases differ")
    return problems


def test_scale_partition_speedup(benchmark, report):
    from repro.workloads.synthetic import scale_partition_case

    rows = []
    for n1, n2 in SIZES:
        space, rd = scale_partition_case(n1, n2)
        t0 = time.perf_counter()
        set_partition, set_waves = oracle_hot_path(space, rd)
        t_set = time.perf_counter() - t0
        t0 = time.perf_counter()
        vec_partition, vec_waves = hot_path(space, rd)
        t_vector = time.perf_counter() - t0
        # Engine and oracle must agree exactly before their timings mean anything.
        got = oracle.sets(vec_partition)
        assert got.p1 == set_partition.p1
        assert got.p2 == set_partition.p2
        assert got.p3 == set_partition.p3
        assert got.w == set_partition.w
        assert oracle.wavefront_sets(vec_waves) == set_waves
        rows.append(
            {
                "points": n1 * n2,
                "pairs": len(rd),
                "wavefronts": vec_waves.num_steps,
                "t_set_s": round(t_set, 4),
                "t_vector_s": round(t_vector, 4),
                "speedup": round(t_set / t_vector, 2),
            }
        )
    if os.environ.get("REPRO_SCALE_XL"):
        n1, n2 = XL_SIZE
        space, rd = scale_partition_case(n1, n2)
        t0 = time.perf_counter()
        _, waves = hot_path(space, rd)
        t_vector = time.perf_counter() - t0
        rows.append(
            {
                "points": n1 * n2,
                "pairs": len(rd),
                "wavefronts": waves.num_steps,
                "t_set_s": None,
                "t_vector_s": round(t_vector, 4),
                "speedup": None,
            }
        )
    report("Scaling sweep: three-set partition + dataflow peeling", rows)
    record_bench("scale_partition", rows)

    big = rows[len(SIZES) - 1]
    assert big["points"] >= 10**5
    assert big["speedup"] >= 5.0, (
        f"array engine only {big['speedup']}x faster than the oracle at "
        f"{big['points']} points"
    )

    # Record the array hot path at the largest swept size under
    # pytest-benchmark as well.
    space, rd = scale_partition_case(*SIZES[-1])
    run_once(benchmark, hot_path, space, rd)


# ---------------------------------------------------------------------------
# end-to-end pipeline: program -> exact Rd -> partition -> schedule
# ---------------------------------------------------------------------------


def test_end_to_end_pipeline_speedup(report):
    from repro.workloads.synthetic import large_uniform_loop

    rows = []
    for n1, n2 in SIZES:
        prog = large_uniform_loop(n1, n2)
        t0 = time.perf_counter()
        set_run = oracle_pipeline(prog)
        t_set = time.perf_counter() - t0
        t0 = time.perf_counter()
        array_run = array_pipeline(prog)
        t_array = time.perf_counter() - t0
        assert not pipeline_mismatches(set_run, array_run)
        rd, _, schedule = array_run
        rows.append(
            {
                "points": n1 * n2,
                "pairs": len(rd),
                "wavefronts": schedule.num_phases,
                "t_set_s": round(t_set, 4),
                "t_array_s": round(t_array, 4),
                "speedup": round(t_set / t_array, 2),
            }
        )
    report("End-to-end sweep: program -> exact Rd -> schedule", rows)
    record_bench("end_to_end_uniform", rows)

    big = rows[-1]
    assert big["points"] >= 10**5
    assert big["speedup"] >= 10.0, (
        f"array-native pipeline only {big['speedup']}x faster end-to-end "
        f"at {big['points']} points"
    )


def test_plan_facade_overhead(report):
    """Facade contract: cold plan() <5% over the bare pipeline; cached ≥10×.

    The bare pipeline is exactly what the pinned dataflow strategy runs for a
    single-statement perfect nest — the analysis, then the CSR wavefront
    schedule off the iteration arrays — so the delta measures
    only the facade itself (fingerprinting, registry walk, Plan assembly).
    The two sides are measured *interleaved*, best-of-5, and the assertion
    carries a 10 ms absolute slack: on a quiet machine the measured overhead
    is ≈2.5%, but sub-second wall-clock comparisons on shared CI runners
    need headroom against noisy neighbours (the recorded row always carries
    the true measured ratio).
    """
    from repro.workloads.synthetic import large_uniform_loop

    n1, n2 = SIZES[-1]
    config = DATAFLOW

    def bare():
        prog = large_uniform_loop(n1, n2)
        analysis = DependenceAnalysis(prog, {})
        return dataflow_schedule(
            f"{prog.name}-REC-dataflow",
            analysis.space.unified_array,
            analysis.space.rd,
            label="s",
        )

    def cold():
        return plan(large_uniform_loop(n1, n2), config=config, cache=False)

    # Interleave the two measurements so a load spike hits both sides alike.
    t_bare = t_cold = float("inf")
    bare_schedule = cold_plan = None
    for _ in range(5):
        t0 = time.perf_counter()
        bare_schedule = bare()
        t_bare = min(t_bare, time.perf_counter() - t0)
        t0 = time.perf_counter()
        cold_plan = cold()
        t_cold = min(t_cold, time.perf_counter() - t0)

    # Same work, same result: the facade may not change the schedule.
    assert cold_plan.schedule.num_phases == bare_schedule.num_phases
    assert all(
        pa.name == pb.name and len(pa) == len(pb)
        for pa, pb in zip(cold_plan.schedule.phases, bare_schedule.phases)
    )

    cache = PlanCache()
    warm_prog = large_uniform_loop(n1, n2)
    t0 = time.perf_counter()
    first = plan(warm_prog, config=config, cache=cache)
    t_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    again = plan(large_uniform_loop(n1, n2), config=config, cache=cache)
    t_cached = time.perf_counter() - t0
    assert again is first  # identity: the cached re-plan skips re-analysis

    rows = [
        {
            "points": n1 * n2,
            "t_bare_s": round(t_bare, 4),
            "t_plan_cold_s": round(t_cold, 4),
            "facade_overhead": round(t_cold / t_bare - 1.0, 4),
            "t_plan_cached_s": round(t_cached, 6),
            "cache_speedup": round(t_first / t_cached, 1),
        }
    ]
    report("Planning facade: cold overhead and cached re-plan", rows)
    record_bench("plan_facade", rows)

    assert t_cold <= 1.05 * t_bare + 0.010, (
        f"plan() facade overhead {t_cold / t_bare - 1.0:.1%} exceeds 5% "
        f"({t_cold:.4f}s vs {t_bare:.4f}s bare)"
    )
    assert t_first / t_cached >= 10.0, (
        f"cached re-plan only {t_first / t_cached:.1f}x faster than cold"
    )


def test_process_backend_speedup(report):
    """Execution contract of the shared-memory process pool: >1× (target ≥2×)
    over the serial backend at 4 workers, 10⁵ points, compute-heavy kernel.

    The schedule is the vectorised dataflow wavefront plan of
    ``large_uniform_loop`` — 200 DOALL phases, each dealt to the persistent
    workers as one sub-phase per worker in a single message.  The
    compute-heavy semantics has a vectorised twin, so the workers run their
    sub-phases as lowered blocks on the lockstep kernel and meet at a pipe
    barrier between phases, while ``serial`` interprets every instance: the
    ratio is mostly the kernel's, not the parallelism's.  Timings are
    end-to-end per run, *including* pool start-up, the workers' lowering and
    the shared-memory copy-in/copy-out, so the recorded speedup is what a
    caller of ``plan(...).execute(backend="process")`` actually observes.
    """
    import numpy as np

    from repro.ir.semantics import compute_heavy_semantics
    from repro.runtime import execute
    from repro.runtime.process import process_unavailable_reason
    from repro.workloads.synthetic import large_uniform_loop

    reason = process_unavailable_reason()
    if reason is not None:
        import pytest

        pytest.skip(f"process backend unavailable: {reason}")

    workers = 4
    rows = []
    for n1, n2 in SIZES[1:]:  # 10⁴ warm-up row, 10⁵ gated row
        prog = large_uniform_loop(n1, n2, semantics=compute_heavy_semantics)
        p = plan(prog, config=DATAFLOW, cache=False)

        t0 = time.perf_counter()
        serial = execute(prog, p.schedule, {}, backend="serial", seed=None)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        proc = execute(
            prog, p.schedule, {}, backend="process", workers=workers, seed=None
        )
        t_process = time.perf_counter() - t0
        # The two backends must agree exactly before their timings mean anything.
        assert all(
            np.array_equal(serial.store[name], proc.store[name])
            for name in serial.store
        )
        assert proc.instances_executed == p.schedule.total_work
        # On a single-core host the sub-1× "speedup" is expected (there is
        # nothing to parallelise onto) and must not be mistaken for a
        # regression: mark the row explicitly instead of recording it
        # indistinguishably from a gated multi-core measurement.
        multicore = (os.cpu_count() or 1) >= 2
        row = {
            "points": n1 * n2,
            "phases": p.schedule.num_phases,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "t_serial_s": round(t_serial, 4),
            "t_process_s": round(t_process, 4),
            "speedup": round(t_serial / t_process, 2),
            "gated": multicore,
        }
        if not multicore:
            row["gate_skip_reason"] = (
                "cpu_count == 1: no parallel speedup is possible, "
                "row recorded for trajectory only"
            )
        rows.append(row)
    report("Process-backend sweep: serial vs shared-memory pool", rows)
    record_bench("process_backend", rows)

    big = rows[-1]
    assert big["points"] >= 10**5
    if big["gated"] or os.environ.get("REPRO_REQUIRE_PROCESS_SPEEDUP"):
        assert big["speedup"] > 1.0, (
            f"process backend only {big['speedup']}x the serial backend at "
            f"{big['points']} points with {workers} workers "
            f"({os.cpu_count()} CPUs visible)"
        )


#: The 10⁶-point nest of the warm ``process`` against ``compiled`` row.
POOL_VS_KERNEL_SIZE = (1000, 1000)
POOL_VS_KERNEL_RUNS = 5


def test_warm_process_against_compiled(report):
    """Recorded, ungated: a warm 2-worker pool against ``compiled`` on the
    default plan of a 10⁶-point nest, both on the lockstep kernel.

    The pool's first run ships the sub-phases and the workers lower them;
    the row records the median of the runs after it (fresh store each run,
    the shared-memory copy-in/copy-out included), next to the median of
    ``compiled`` runs of the same plan with its lowering cached.  The
    ``process`` backend earns its place only where this ratio is well
    above 1; the row is the trajectory of that decision.
    """
    import numpy as np

    from repro.runtime import execute, execute_sequential, make_store
    from repro.runtime.process import ProcessPool, process_unavailable_reason
    from repro.workloads.synthetic import large_uniform_loop

    reason = process_unavailable_reason()
    if reason is not None:
        import pytest

        pytest.skip(f"process backend unavailable: {reason}")

    workers = 2
    n1, n2 = POOL_VS_KERNEL_SIZE
    prog = large_uniform_loop(n1, n2)
    p = plan(prog, cache=False)
    ref = execute_sequential(prog, {})

    def timed(**kwargs):
        samples = []
        for _ in range(POOL_VS_KERNEL_RUNS):
            store = make_store(prog)
            t0 = time.perf_counter()
            execute(prog, p.schedule, {}, store=store, **kwargs)
            samples.append(time.perf_counter() - t0)
            assert all(np.array_equal(ref[k], store[k]) for k in ref)
        return float(np.median(samples))

    execute(prog, p.schedule, {}, backend="compiled")  # lowers once
    t_compiled = timed(backend="compiled")
    with ProcessPool(prog, workers=workers) as pool:
        t0 = time.perf_counter()
        execute(prog, p.schedule, {}, backend="process", pool=pool)
        t_first = time.perf_counter() - t0
        t_process = timed(backend="process", pool=pool)
    rows = [{
        "points": n1 * n2,
        "strategy": p.strategy,
        "phases": p.schedule.num_phases,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "t_process_first_s": round(t_first, 4),
        "t_process_warm_ms": round(t_process * 1e3, 2),
        "t_compiled_ms": round(t_compiled * 1e3, 2),
        "process_over_compiled": round(t_compiled / t_process, 2),
        "gated": False,
    }]
    report("Warm 2-worker process pool vs compiled at 10^6 points (median)", rows)
    record_bench("process_vs_compiled", rows)


def test_statement_level_speedup(report):
    """§3.3 contract: the array-native statement level is ≥5× the oracle's
    per-instance path at 10⁵ statement instances, with bit-identical
    schedules."""
    from repro.workloads.synthetic import large_cholesky_nest

    rows = []
    #: n sweep of the triangular nest: ~10³, ~10⁴ and ~10⁵ statement instances.
    for n in (45, 141, 447):
        t0 = time.perf_counter()
        vec_plan = plan(large_cholesky_nest(n), config=DATAFLOW, cache=False)
        t_vector = time.perf_counter() - t0
        t0 = time.perf_counter()
        expected = oracle.dataflow_phases(large_cholesky_nest(n))
        t_set = time.perf_counter() - t0
        # Engine and oracle must agree exactly before their timings mean
        # anything: same wavefronts, same instance order.
        assert oracle.schedule_phases(vec_plan.schedule) == expected
        rows.append(
            {
                "instances": len(vec_plan.analysis.space),
                "unified_pairs": len(vec_plan.analysis.space.rd),
                "wavefronts": vec_plan.schedule.num_phases,
                "t_set_s": round(t_set, 4),
                "t_vector_s": round(t_vector, 4),
                "speedup": round(t_set / t_vector, 2),
            }
        )
    report("Statement-level sweep: program -> unified Rd -> schedule", rows)
    record_bench("statement_level", rows)

    big = rows[-1]
    assert big["instances"] >= 10**5
    assert big["speedup"] >= 5.0, (
        f"array-native statement level only {big['speedup']}x faster "
        f"at {big['instances']} statement instances"
    )


def test_triangular_end_to_end(report):
    from repro.workloads.synthetic import large_triangular_loop

    # Equivalence with the oracle through the non-rectangular join at 10⁴.
    prog = large_triangular_loop(141)
    assert not pipeline_mismatches(oracle_pipeline(prog), array_pipeline(prog))

    # Array-path wall-clock at 10⁵ points (the oracle would take minutes:
    # its dataflow peeling alone is O(steps · |Rd|) over Python sets).
    rows = []
    for n in (141, 447):
        prog = large_triangular_loop(n)
        t0 = time.perf_counter()
        rd, _, schedule = array_pipeline(prog)
        t_array = time.perf_counter() - t0
        assert schedule.num_phases == n  # one wavefront per diagonal row
        rows.append(
            {
                "n": n,
                "points": n * (n + 1) // 2,
                "pairs": len(rd),
                "wavefronts": schedule.num_phases,
                "t_array_s": round(t_array, 4),
            }
        )
    report("Triangular end-to-end sweep (array path)", rows)
    record_bench("end_to_end_triangular", rows)
    assert rows[-1]["points"] >= 10**5


def plan_layers(prog, config=None):
    """One cold ``plan()`` split into ``(space, features, select, build)``
    seconds, plus the plan.

    The space build and the feature extraction are timed by wrapping the
    two functions ``plan()`` reaches them through; the space is charged to
    its own layer wherever it is first built (inside the features, or
    inside the builder of a pinned plan), and ``select`` is the rest of
    ``Plan.timings["total"]`` outside the builder.
    """
    import repro.analysis.features as features_mod
    import repro.core.statement as statement_mod
    from repro.analysis.features import clear_feature_cache

    spent = {"space": 0.0, "features": 0.0, "space_in_features": 0.0}
    build_space = statement_mod.build_statement_space
    extract = features_mod.program_features

    def timed_space(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return build_space(*args, **kwargs)
        finally:
            spent["space"] += time.perf_counter() - t0

    def timed_features(*args, **kwargs):
        before = spent["space"]
        t0 = time.perf_counter()
        try:
            return extract(*args, **kwargs)
        finally:
            spent["features"] += time.perf_counter() - t0
            spent["space_in_features"] += spent["space"] - before

    clear_feature_cache()
    statement_mod.build_statement_space = timed_space
    features_mod.program_features = timed_features
    try:
        p = plan(prog, config=config, cache=False)
    finally:
        statement_mod.build_statement_space = build_space
        features_mod.program_features = extract
    total = p.timings["total"]
    build = sum(v for k, v in p.timings.items() if k != "total")
    space_in_build = spent["space"] - spent["space_in_features"]
    features = spent["features"] - spent["space_in_features"]
    layers = {
        "space": spent["space"],
        "features": features,
        "select": total - build - features - spent["space_in_features"],
        "build": build - space_in_build,
    }
    return layers, p


def test_plan_scale(report):
    """Large-nest planning contract: the default cold plan of
    ``large_triangular_loop(447)`` takes ≤ 150 ms; every large nest's cold
    plan is recorded split into its layers (best of 3 by total)."""
    from repro.workloads.synthetic import (
        large_cholesky_nest,
        large_triangular_loop,
        large_uniform_loop,
    )

    cases = [
        ("large_triangular_loop(447)", lambda: large_triangular_loop(447), None),
        ("large_uniform_loop(200, 200)", lambda: large_uniform_loop(200, 200), DATAFLOW),
        ("large_cholesky_nest(447)", lambda: large_cholesky_nest(447), None),
    ]
    rows = []
    for name, make, config in cases:
        runs = [plan_layers(make(), config) for _ in range(3)]
        layers, p = min(runs, key=lambda run: sum(run[0].values()))
        rows.append(
            {
                "program": name,
                "strategy": p.strategy,
                "points": len(p.analysis.space),
                "pairs": len(p.analysis.space.rd),
                "total_ms": round(p.timings["total"] * 1e3, 2),
                **{f"{layer}_ms": round(t * 1e3, 2) for layer, t in layers.items()},
            }
        )
    report("Cold plan() of the large nests, by layer", rows)
    record_bench("plan_scale", rows)

    triangular = rows[0]
    assert triangular["points"] >= 10**5
    assert triangular["total_ms"] <= 150.0, (
        f"default cold plan of large_triangular_loop(447) took "
        f"{triangular['total_ms']} ms (bound 150 ms)"
    )
