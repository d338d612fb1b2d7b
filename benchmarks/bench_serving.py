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
is the corpus entry with the largest planning cost (the median of repeated
``plan()`` calls, after one warm-up plan of every entry): planning weighs
most against execution there, which is exactly the request profile a
plan-serving daemon exists for.

``test_process_pool_request_latency`` records (ungated) the warm per-request
latency of an injected pool next to ``serial`` and ``compiled`` on the three
programs the perfbench ``serve-tcp`` workload runs on process pools.

``test_client_store_latency_tracks_the_footprint`` gates the wire's
footprint stores: over the small corpus on ``compiled``, with a client
store, the four programs whose 280×280 array holds 627 KB must be served
within 1.5× the latency of the other fourteen (p50 against p50), since
only the cells their 64 instances read and write travel.

Rows are appended to ``BENCH_scale.json`` via the run_id-keyed trajectory
recorder shared with ``bench_scale_partition.py``.
"""

import json
import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.strategy import plan
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import PlanRequest, PlanServer
from repro.serving.transport import TransportClient, TransportServer, wire
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
#: Timed ``plan()`` calls per entry when picking the workload.
PICK_RUNS = 5


def _planning_heaviest_entry():
    """The corpus entry whose plan cost dominates — measured, not assumed.

    Every entry is planned once before any is timed, so the one-time costs
    of a process (the first call into each strategy's code) do not decide
    the pick; an entry's cost is then the median of ``PICK_RUNS`` calls of
    the ``plan(cache=False)`` the cold path below makes.
    """
    entries = selection_corpus(size="small")
    for entry in entries:
        plan(entry.program, params=entry.params, cache=False)

    def plan_cost(entry):
        samples = []
        for _ in range(PICK_RUNS):
            t0 = time.perf_counter()
            plan(entry.program, params=entry.params, cache=False)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return max(entries, key=plan_cost)


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
    request (fresh store each time) next to ``serial`` and ``compiled`` on
    the same plan.

    A request is one round trip to every worker whatever the phase count,
    and the workers run the same lockstep kernel as ``compiled``, so the
    gap between the two is what the round trip and the barriers cost.
    Results are checked against ``execute_sequential``; the timings are
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
            for backend in ("process", "serial", "compiled"):
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
            "t_compiled_ms": round(timings["compiled"] * 1e3, 3),
        })
    report("Warm injected-pool request latency vs serial and compiled (median)", rows)
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
    queue_waits = []
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
                    mine, waits = [], []
                    start = time.perf_counter()
                    for _ in range(REQUESTS_PER_CLIENT):
                        t0 = time.perf_counter()
                        resp = c.request(prog, params=params, timeout=120)
                        mine.append(time.perf_counter() - t0)
                        waits.append(resp.timings["queue_s"])
                        if not all(
                            np.array_equal(ref[k], resp.result.store[k])
                            for k in ref
                        ):
                            failures.append(f"client {seed}: store diverged")
                    end = time.perf_counter()
                with lock:
                    latencies.extend(mine)
                    queue_waits.extend(waits)
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
        with TransportClient(host, port) as c:
            request_bytes, response_bytes = _frame_bytes(
                c, PlanRequest(program=prog, params=params))

    assert not failures, failures
    assert len(latencies) == CLIENTS * REQUESTS_PER_CLIENT
    wall = max(e for _, e in windows) - min(s for s, _ in windows)
    p50, p99 = np.percentile(latencies, [50, 99])
    # Admission wait is the other clients' work, not the wire's.
    unqueued_p50 = np.percentile(np.subtract(latencies, queue_waits), 50)
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
            "queue_p50_ms": round(float(np.percentile(queue_waits, 50)) * 1e3, 2),
            "wire_overhead_ms": round((unqueued_p50 - t_local) * 1e3, 2),
            "request_bytes": request_bytes,
            "response_bytes": response_bytes,
        }
    ]
    report(
        f"TCP wire path, {CLIENTS} concurrent clients "
        f"(overhead vs in-process recorded, not gated)",
        rows,
    )
    record_bench("serving_wire", rows)


def _frame_bytes(client, request):
    """``(request, response)`` frame bytes of one request, as sent and as
    received (prelude + header + payloads), counted around the wire codec
    while ``client`` serves it."""
    sizes = {}

    def size(header, bodies):
        return wire._PRELUDE.size + len(json.dumps(header, separators=(",", ":"))) + sum(
            len(b) for b in bodies)

    encode, decode = wire.request_frame, wire.decode_response

    def counted_encode(req):
        header, bodies = encode(req)
        sizes["request"] = size(header, bodies)
        return header, bodies

    def counted_decode(header, payloads):
        sizes["response"] = size(header, payloads)
        return decode(header, payloads)

    wire.request_frame, wire.decode_response = counted_encode, counted_decode
    try:
        client.submit(request).result(120)
    finally:
        wire.request_frame, wire.decode_response = encode, decode
    return sizes["request"], sizes["response"]


#: Served requests per program in the client-store row, and the gate.
CLIENT_STORE_REQUESTS = 40
FOOTPRINT_LATENCY_RATIO = 1.5


def test_client_store_latency_tracks_the_footprint(report):
    """p50 latency of a request carrying its own store, on ``compiled``:
    the four 627 KB-store programs against the other fourteen.  Every
    served store is checked against ``execute_sequential`` (off the clock);
    the bytes per warm operation are recorded next to the latencies."""
    entries = selection_corpus(size="small")
    compiled = ExecConfig(backend="compiled")
    initial = {e.name: make_store(e.program, fill="random", seed=i)
               for i, e in enumerate(entries)}
    big = {e.name for e in entries
           if sum(a.nbytes for a in initial[e.name].values()) > 100_000}
    refs = {e.name: execute_sequential(
        e.program, e.params, store={k: v.copy() for k, v in initial[e.name].items()})
        for e in entries}
    samples = {e.name: [] for e in entries}
    frames = {}

    def fresh(e):
        return {k: v.copy() for k, v in initial[e.name].items()}

    with TransportServer(default_exec=compiled) as ts:
        with TransportClient(*ts.address) as client:
            for e in entries:  # warm: plan, kernel, read set
                client.request(e.program, e.params, store=fresh(e), timeout=120)
                frames[e.name] = _frame_bytes(client, PlanRequest(
                    program=e.program, params=e.params, store=fresh(e)))
            for _ in range(CLIENT_STORE_REQUESTS):
                for e in entries:  # interleaved, so both groups share the noise
                    store = fresh(e)
                    t0 = time.perf_counter()
                    client.request(e.program, e.params, store=store, timeout=120)
                    samples[e.name].append(time.perf_counter() - t0)
                    ref = refs[e.name]
                    assert all(np.array_equal(ref[k], store[k]) for k in ref), e.name

    def group(names):
        times = [t for n in names for t in samples[n]]
        return (float(np.median(times)) * 1e3,
                float(np.mean([frames[n][0] for n in names])),
                float(np.mean([frames[n][1] for n in names])))

    small = [e.name for e in entries if e.name not in big]
    (big_ms, big_req, big_resp), (small_ms, small_req, small_resp) = (
        group(sorted(big)), group(small))
    ratio = big_ms / small_ms
    rows = [
        {
            "backend": "compiled",
            "store": "client",
            "programs_627kb": len(big),
            "programs_small": len(small),
            "requests_per_program": CLIENT_STORE_REQUESTS,
            "p50_627kb_ms": round(big_ms, 3),
            "p50_small_ms": round(small_ms, 3),
            "ratio": round(ratio, 2),
            "request_bytes_627kb": round(big_req),
            "response_bytes_627kb": round(big_resp),
            "request_bytes_small": round(small_req),
            "response_bytes_small": round(small_resp),
        }
    ]
    report("Client-store requests over TCP: 627 KB stores vs the rest (p50)", rows)
    record_bench("serving_client_store", rows)
    assert len(big) == 4
    assert ratio <= FOOTPRINT_LATENCY_RATIO, (
        f"627 KB-store programs served at {big_ms:.2f} ms p50, {ratio:.2f}x the "
        f"{small_ms:.2f} ms of the others (gate {FOOTPRINT_LATENCY_RATIO}x)"
    )
