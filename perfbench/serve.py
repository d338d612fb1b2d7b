"""The ``serve-tcp`` workload: a closed loop against a plan server child.

A ``TransportServer`` runs in its own child process (``server_child.py``).
This process drives it over ``CONNECTIONS`` TCP connections, each a closed
loop (the next request leaves when the previous reply is in), and each
reconnecting every ``RECONNECT_EVERY`` requests.  Requests draw from a hot
set of ``small`` corpus programs and carry their own seeded store.  About a
quarter run on the ``process`` backend, confined to three programs so their
persistent pools fit the server's ``max_pools=4`` (pool thrash would widen
the spread); the rest run on ``compiled``.

The connections run in rounds of ``ROUND`` requests each; between rounds,
with nothing in flight, replies are checked against ``execute_sequential``
and the host reference loop is sampled.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchstats import Run
from inprocess import _copy, store_digest
from tracing import Tracer

CONNECTIONS = 2
ROUND = 16
RECONNECT_EVERY = 32
STORES = 3
PROCESS_SHARE = 0.25
PROCESS_PROGRAMS = ("deep-rect-diag", "lu-kernel", "sor-kernel")
PROCESS_WORKERS = 2
CHILD = Path(__file__).with_name("server_child.py")


def dev_shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def setup(seed: int, tracer: Optional[Tracer] = None):
    """Set up ``serve-tcp``; returns ``(state, set-up seconds)``.

    The set-up time covers the client's imports, spawning the server child
    until it listens, and a warm pass that plans every hot program and
    starts the process pools.
    """
    t0 = time.perf_counter()
    from repro.runtime.backends import ExecConfig
    from repro.runtime.executor import make_store
    from repro.serving.transport import TransportClient
    from repro.workloads.corpus import selection_corpus

    imported = time.perf_counter() - t0

    entries = selection_corpus(size="small")
    configs = {"compiled": ExecConfig(backend="compiled"),
               "process": ExecConfig(backend="process", workers=PROCESS_WORKERS)}
    process_idx = [i for i, e in enumerate(entries) if e.name in PROCESS_PROGRAMS]
    shm_before = dev_shm()

    t1 = time.perf_counter()
    cmd = [sys.executable, str(CHILD), "--src", str(Path("src").resolve())]
    if tracer is not None:
        cmd += ["--trace", "--spans", str(Path(".perfbench") / f"trace-serve-tcp-server-seed{seed}.jsonl")]
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    state = {"seed": seed, "child": child, "entries": entries, "configs": configs,
             "process_idx": process_idx, "shm_before": shm_before, "tracer": tracer,
             "client_cls": TransportClient, "clients": [None] * CONNECTIONS}
    line = child.stdout.readline()
    if not line:
        close(state)
        raise RuntimeError("server child exited before listening")
    state["port"] = json.loads(line)["port"]
    with TransportClient("127.0.0.1", state["port"]) as client:
        for e in entries:
            client.request(e.program, e.params, exec_config=configs["compiled"],
                           store=make_store(e.program))
        for i in process_idx:
            e = entries[i]
            client.request(e.program, e.params, exec_config=configs["process"],
                           store=make_store(e.program))
    return state, imported + time.perf_counter() - t1


def close(state) -> Tuple[Optional[dict], List[str]]:
    """Close the clients, stop the child and check that it left nothing
    behind; returns ``(child report, failures)``."""
    failures = []
    for client in state["clients"]:
        if client is not None:
            client.close()
    child: subprocess.Popen = state["child"]
    report = None
    child.send_signal(signal.SIGTERM)
    try:
        out, _ = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        failures.append("serve-tcp: server child ignored SIGTERM for 60 s")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if child.returncode != 0 or not lines:
        failures.append(f"serve-tcp: server child exited with code {child.returncode}")
    else:
        report = json.loads(lines[-1])
    leaked = dev_shm() - state["shm_before"]
    if leaked:
        failures.append(f"serve-tcp: shared-memory segments leaked: {sorted(leaked)}")
    return report, failures


def _requests(state):
    """Seeded request streams (one per connection) and the stores they
    carry, each with the digest of its ``execute_sequential`` output."""
    from repro.runtime.executor import execute_sequential, make_store

    seed, entries = state["seed"], state["entries"]
    rng = random.Random(seed)
    stores = {}
    for i, e in enumerate(entries):
        for j in range(STORES):
            store = make_store(e.program, fill="random", seed=seed * 1000 + i * 10 + j)
            expected = store_digest(execute_sequential(e.program, e.params, _copy(store)))
            stores[(i, j)] = (store, expected)
    streams = []
    for _ in range(CONNECTIONS):
        stream = []
        for _ in range(4096):
            backend = "process" if rng.random() < PROCESS_SHARE else "compiled"
            i = (rng.choice(state["process_idx"]) if backend == "process"
                 else rng.randrange(len(entries)))
            stream.append((i, rng.randrange(STORES), backend))
        streams.append(stream)
    return streams, stores


def run(state, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.serving.api import PlanRequest
    from repro.serving.transport import wire

    streams, stores = _requests(state)
    tracer: Optional[Tracer] = state["tracer"]
    cursor = [0] * CONNECTIONS
    connects: List[float] = []
    replies: List[Tuple[float, Any, str]] = []

    def connection(k: int, done: List[tuple]) -> None:
        for _ in range(ROUND):
            if cursor[k] % RECONNECT_EVERY == 0:
                if state["clients"][k] is not None:
                    state["clients"][k].close()
                t0 = time.perf_counter()
                state["clients"][k] = state["client_cls"]("127.0.0.1", state["port"])
                connects.append(time.perf_counter() - t0)
            i, j, backend = streams[k][cursor[k] % len(streams[k])]
            cursor[k] += 1
            e = state["entries"][i]
            store, expected = stores[(i, j)]
            req = PlanRequest(program=e.program, params=dict(e.params),
                              exec_config=state["configs"][backend], store=_copy(store))
            t0 = time.perf_counter()
            try:
                if tracer is not None and traced_window[0]:
                    with tracer.span("transport.request", req.request_id):
                        resp = state["clients"][k].submit(req).result(timeout=60)
                else:
                    resp = state["clients"][k].submit(req).result(timeout=60)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                done.append((None, None, req, expected, backend, f"{type(exc).__name__}: {exc}"))
                continue
            done.append((time.perf_counter() - t0, resp, req, expected, backend, None))

    def one_round(run: Run) -> None:
        if run.clock.due():
            run.clock.sample()
        done: List[tuple] = []
        threads = [threading.Thread(target=connection, args=(k, done))
                   for k in range(CONNECTIONS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        run.window_s += wall
        run.clock.account(wall)
        for dt, resp, req, expected, backend, error in done:
            run.attempted += 1
            if error is not None:
                run.fail(f"serve-tcp {req.program.name}: {error}")
                continue
            run.record(dt, window=False)
            if store_digest(resp.result.store) != expected:
                run.fail(f"serve-tcp {req.program.name}: store differs from execute_sequential")
            if not resp.plan_cache_hit:
                run.fail(f"serve-tcp {req.program.name}: plan-cache miss in the timed window")
            if backend == "process" and not resp.pool_reused:
                run.fail(f"serve-tcp {req.program.name}: process pool not reused")
            if traced_window[0]:
                replies.append((dt, resp, backend))

    def window(secs: float) -> Run:
        # Sample the host loop before every round: the multi-process serving
        # path follows the host's speed less closely than one process does,
        # so the factor has to be as local as possible.
        run = Run(sample_every_s=0.0)
        deadline = time.perf_counter() + secs
        while time.perf_counter() < deadline:
            one_round(run)
        return run

    traced_window = [False]
    untraced = window(seconds / 2 if trace else seconds)
    result: Dict[str, Any] = {"run": untraced, "layers": {}}
    if trace:
        connects.clear()
        os.kill(state["child"].pid, signal.SIGUSR1)
        tracer.wrap(wire, "request_frame", "transport.request_frame",
                    lambda req: req.request_id)
        tracer.wrap(wire, "decode_response", "transport.decode_response",
                    lambda header, payloads: header.get("request_id"))
        traced_window[0] = True
        try:
            result["run"] = window(seconds / 2)
        finally:
            tracer.uninstall()
        result["untraced"] = untraced
    report, failures = close(state)
    for why in failures:
        result["run"].fail(why)
    if report is not None:
        result["peak_rss_mb"] = report["peak_rss_mb"]
        if trace:
            result["layers"] = _serve_layers(replies, connects, tracer, report)
    return result


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _serve_layers(replies, connects, tracer: Tracer, report) -> Dict[str, Tuple[float, str]]:
    durations = tracer.durations_ms()
    n = len(replies)
    process = [resp for _, resp, backend in replies if backend == "process"]
    queue = report["stats"]["server"]["queue"]
    return {
        "transport.wire_queue_ms": (_mean((dt - r.timings["total_s"]) * 1e3
                                          for dt, r, _ in replies), "ms"),
        "transport.client_codec_ms": ((sum(durations.get("transport.request_frame", ()))
                                       + sum(durations.get("transport.decode_response", ())))
                                      / n, "ms"),
        "transport.server_codec_ms": (report["server_codec_ms"]
                                      / max(1, report["requests_traced"]), "ms"),
        "transport.connect_ms": (_mean(c * 1e3 for c in connects), "ms"),
        "transport.server_fds": (report["fds"], "count"),
        "serving.queue_wait_ms": (_mean(report["queue_wait_ms"]), "ms"),
        "serving.plan_ms": (_mean(r.timings["plan_s"] * 1e3 for _, r, _ in replies), "ms"),
        "serving.exec_ms": (_mean(r.timings["execute_s"] * 1e3 for _, r, _ in replies), "ms"),
        "runtime.process_exec_ms": (_mean(r.timings["execute_s"] * 1e3 for r in process), "ms"),
        "serving.plan_cache_hit_ratio": (_mean(r.plan_cache_hit for _, r, _ in replies), "ratio"),
        "serving.pool_reuse_ratio": (_mean(r.pool_reused for r in process), "ratio"),
        "serving.batch_size_mean": (_mean(r.batch_size for _, r, _ in replies), "count"),
        "serving.queue_high_water": (queue.get("high_water", 0), "count"),
    }
