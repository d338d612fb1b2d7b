"""E-serving — warm-vs-cold request latency through the plan server.

Not a paper artifact: this benchmark guards the serving layer's amortisation
contract.  A cold one-shot request pays ``plan()`` (dependence analysis,
strategy selection, schedule construction) plus — on the ``process`` backend
— a full worker fork inside ``execute()``.  A warm request against a
memory-resident :class:`~repro.serving.PlanServer` pays neither: the plan
comes out of the shared :class:`PlanCache` and the execution sends each
already-running worker one message (a fresh shared-memory descriptor table,
plus its phase slices unless the pool already holds them).

Gate: for repeated (program, params) requests on the process backend, the
warm-path latency must be **≥ 10×** faster than the cold one-shot path,
with served results bit-identical to ``execute_sequential``.  The workload
is the corpus entry with the largest planning cost (a deep rectangular
nest): planning dominates execution there, which is exactly the request
profile a plan-serving daemon exists for.

``test_process_pool_request_latency`` records (ungated) the warm per-request
latency of an injected pool next to ``serial`` on the three programs the
perfbench ``serve-tcp`` workload runs on process pools.

Rows are appended to ``BENCH_scale.json`` via the run_id-keyed trajectory
recorder shared with ``bench_scale_partition.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.strategy import plan
from repro.runtime import execute, execute_sequential
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import PlanServer
from repro.serving.transport import TransportClient, TransportServer
from repro.workloads.corpus import selection_corpus

from bench_scale_partition import record_bench

pytestmark = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)

#: CI guard: the smoke pool never uses more than 2 workers.
WORKERS = 2
COLD_RUNS = 3
WARM_RUNS = 5


def _planning_heaviest_entry():
    """The corpus entry whose plan cost dominates — measured, not assumed."""
    best, best_t = None, 0.0
    for entry in selection_corpus(size="small"):
        t0 = time.perf_counter()
        plan(entry.program, params=entry.params, cache=False)
        t_plan = time.perf_counter() - t0
        if t_plan > best_t:
            best, best_t = entry, t_plan
    return best


def test_warm_requests_amortise_cold_planning(report):
    entry = _planning_heaviest_entry()
    prog, params = entry.program, dict(entry.params)
    cfg = ExecConfig(backend="process", workers=WORKERS)
    ref = execute_sequential(prog, params)

    # -- cold: one-shot plan() + execute(), fresh pool forked every time ----
    t_cold = float("inf")
    for _ in range(COLD_RUNS):
        t0 = time.perf_counter()
        p = plan(prog, params=params, cache=False)
        cold = execute(prog, p.schedule, params, config=cfg)
        t_cold = min(t_cold, time.perf_counter() - t0)
    assert all(np.array_equal(ref[k], cold.store[k]) for k in ref)

    # -- warm: repeated requests against one memory-resident server ---------
    with PlanServer(default_exec=cfg) as srv:
        first = srv.request(prog, params=params, timeout=120)  # pays the warm-up
        t_warm = float("inf")
        for _ in range(WARM_RUNS):
            t0 = time.perf_counter()
            resp = srv.request(prog, params=params, timeout=120)
            t_warm = min(t_warm, time.perf_counter() - t0)
            assert resp.plan_cache_hit and resp.pool_reused
            assert resp.result.meta.get("pool") == "injected"
            assert all(np.array_equal(ref[k], resp.result.store[k]) for k in ref)
    assert not first.plan_cache_hit  # the warm-up really was the cold miss

    speedup = t_cold / t_warm
    rows = [
        {
            "workload": entry.name if hasattr(entry, "name") else entry.family,
            "strategy": p.strategy,
            "backend": "process",
            "workers": WORKERS,
            "t_cold_s": round(t_cold, 4),
            "t_warm_s": round(t_warm, 4),
            "speedup": round(speedup, 1),
        }
    ]
    report("Warm server request vs cold one-shot plan()+execute()", rows)
    record_bench("serving", rows)

    assert speedup >= 10.0, (
        f"warm serving path only {speedup:.1f}x the cold one-shot path "
        f"(cold {t_cold * 1e3:.1f} ms, warm {t_warm * 1e3:.1f} ms) — "
        f"the serving contract requires >= 10x on repeat-plan requests"
    )


#: The programs the perfbench ``serve-tcp`` workload runs on process pools.
POOL_PROGRAMS = ("deep-rect-diag", "lu-kernel", "sor-kernel")
POOL_REQUESTS = 200


def test_process_pool_request_latency(report):
    """Recorded, ungated: the median warm latency of one ``execute(pool=...)``
    request (fresh store each time) next to ``serial`` on the same plan.

    A request is one round trip to every worker whatever the phase count, so
    the row carries the phase count to show the cost no longer scales with
    it.  Results are checked against ``execute_sequential``; the timings are
    recorded for the trajectory only.
    """
    from repro.runtime import make_store
    from repro.runtime.process import ProcessPool

    entries = [e for e in selection_corpus(size="small") if e.name in POOL_PROGRAMS]
    rows = []
    for entry in entries:
        p = plan(entry.program, params=entry.params, cache=False)
        ref = execute_sequential(entry.program, entry.params)
        timings = {}
        with ProcessPool(entry.program, workers=WORKERS) as pool:
            for backend in ("process", "serial"):
                samples = []
                for _ in range(POOL_REQUESTS):
                    store = make_store(entry.program)
                    t0 = time.perf_counter()
                    execute(entry.program, p.schedule, entry.params, store=store,
                            backend=backend, pool=pool if backend == "process" else None)
                    samples.append(time.perf_counter() - t0)
                    assert all(np.array_equal(ref[k], store[k]) for k in ref)
                timings[backend] = float(np.median(samples))
        rows.append({
            "program": entry.name,
            "strategy": p.strategy,
            "phases": p.schedule.num_phases,
            "workers": WORKERS,
            "requests": POOL_REQUESTS,
            "t_process_ms": round(timings["process"] * 1e3, 3),
            "t_serial_ms": round(timings["serial"] * 1e3, 3),
        })
    report("Warm injected-pool request latency vs serial (median)", rows)
    record_bench("process_pool_request", rows)
    assert len(rows) == len(POOL_PROGRAMS)


#: Wire-path measurement: M concurrent TCP clients, R warm requests each.
CLIENTS = 4
REQUESTS_PER_CLIENT = 8


def test_wire_path_throughput_and_overhead(report):
    """Throughput + p50/p99 over concurrent TCP clients; the warm wire
    overhead against the in-process path is *recorded*, not gated — the
    wire pays marshalling + loopback, the contract is only that results
    stay bit-identical and the row lands in the trajectory."""
    entry = _planning_heaviest_entry()
    prog, params = entry.program, dict(entry.params)
    cfg = ExecConfig(backend="process", workers=WORKERS)
    ref = execute_sequential(prog, params)

    latencies = []
    windows = []
    failures = []
    lock = threading.Lock()

    with TransportServer(default_exec=cfg, max_pending=64) as ts:
        host, port = ts.address
        srv = ts.plan_server

        # in-process warm baseline on the very same (shared) server
        srv.request(prog, params=params, timeout=120)  # warm-up
        t_local = float("inf")
        for _ in range(WARM_RUNS):
            t0 = time.perf_counter()
            srv.request(prog, params=params, timeout=120)
            t_local = min(t_local, time.perf_counter() - t0)

        def client(seed: int) -> None:
            try:
                with TransportClient(host, port, rng_seed=seed) as c:
                    c.request(prog, params=params, timeout=120)  # conn warm-up
                    mine = []
                    start = time.perf_counter()
                    for _ in range(REQUESTS_PER_CLIENT):
                        t0 = time.perf_counter()
                        resp = c.request(prog, params=params, timeout=120)
                        mine.append(time.perf_counter() - t0)
                        if not all(
                            np.array_equal(ref[k], resp.result.store[k])
                            for k in ref
                        ):
                            failures.append(f"client {seed}: store diverged")
                    end = time.perf_counter()
                with lock:
                    latencies.extend(mine)
                    windows.append((start, end))
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                failures.append(f"client {seed}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(s,), daemon=True)
            for s in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(600)

    assert not failures, failures
    assert len(latencies) == CLIENTS * REQUESTS_PER_CLIENT
    wall = max(e for _, e in windows) - min(s for s, _ in windows)
    p50, p99 = np.percentile(latencies, [50, 99])
    rows = [
        {
            "workload": entry.name if hasattr(entry, "name") else entry.family,
            "backend": "process",
            "workers": WORKERS,
            "clients": CLIENTS,
            "requests": len(latencies),
            "throughput_rps": round(len(latencies) / wall, 1),
            "p50_ms": round(p50 * 1e3, 2),
            "p99_ms": round(p99 * 1e3, 2),
            "t_warm_local_ms": round(t_local * 1e3, 2),
            "wire_overhead_ms": round((p50 - t_local) * 1e3, 2),
        }
    ]
    report(
        f"TCP wire path, {CLIENTS} concurrent clients "
        f"(overhead vs in-process recorded, not gated)",
        rows,
    )
    record_bench("serving_wire", rows)
