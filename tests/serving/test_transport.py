"""TCP transport differential + back-pressure + shutdown tests.

The transport must be invisible: a result served over TCP is bit-identical
to the in-process :class:`PlanServer` answer and to ``execute_sequential``
for every backend, over Hypothesis-generated programs and curated
workloads.  Saturation must be observable (``ServerBusy`` with a positive
retry hint on the k+1-th submission against ``max_pending=k``) and
survivable (a retrying client completes everything, nothing lost or
duplicated).  Shutdown must leave no hung threads and no ``/dev/shm``
segments even while clients hold open sockets.
"""

import glob
import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.strategy import PlanConfig, plan
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import PlanRequest, PlanServer, ServerBusy
from repro.serving.transport import (
    RemoteServingError,
    TransportClient,
    TransportServer,
    wire,
)
from repro.serving.transport.wire import FrameKind
from repro.workloads.examples import (
    cholesky_loop,
    example2_loop,
    example3_loop,
    figure1_loop,
)
from strategies import loop_programs

needs_process = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)

#: Same footing as tests/serving/test_serving_differential.py: the dataflow
#: strategy is pinned valid on generated programs, so what is under test
#: here is the *wire*, not the planner.
DATAFLOW = PlanConfig(strategies=("dataflow",))


def _dev_shm():
    return set(glob.glob("/dev/shm/psm_*"))


def _assert_tcp_matches_all_paths(tcp_client, srv, prog, backend, workers=2,
                                  address=None):
    """TCP-served ≡ in-process-served ≡ direct execute ≡ execute_sequential,
    with a server store and, when ``address`` is given, with a random-fill
    client store: sent whole, then as its read set's cells, then through a
    fresh connection (the read-set cache is process-wide)."""
    cfg = ExecConfig(backend=backend, workers=workers)
    ref = execute_sequential(prog, {})
    p = plan(prog, config=DATAFLOW, cache=False)
    direct = execute(prog, p.schedule, {}, config=cfg)
    local = srv.request(prog, config=DATAFLOW, exec_config=cfg, timeout=120)
    remote = tcp_client.request(prog, config=DATAFLOW, exec_config=cfg, timeout=120)
    for name in ref:
        assert np.array_equal(ref[name], remote.result.store[name]), (
            f"TCP {backend} diverged from sequential on {name!r}"
        )
        assert np.array_equal(direct.store[name], remote.result.store[name]), (
            f"TCP {backend} diverged from direct execute on {name!r}"
        )
        assert np.array_equal(
            local.result.store[name], remote.result.store[name]
        ), f"TCP {backend} diverged from in-process serving on {name!r}"
    if address is not None:
        _assert_client_store_matches(tcp_client, address, prog, cfg)


def _assert_client_store_matches(tcp_client, address, prog, cfg):
    initial = make_store(prog, fill="random", seed=17)
    ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in initial.items()})
    wire.forget_reads(PlanRequest(program=prog, store=initial))
    answers = []
    with TransportClient(*address, rng_seed=3) as fresh:
        for client in (tcp_client, tcp_client, fresh):
            store = {k: v.copy() for k, v in initial.items()}
            resp = client.request(prog, config=DATAFLOW, exec_config=cfg,
                                  store=store, timeout=120)
            for name in ref:
                assert resp.result.store[name] is store[name]
                assert np.array_equal(ref[name], store[name]), (
                    f"TCP {cfg.backend} client store diverged on {name!r} "
                    f"(answer {len(answers)})"
                )
            answers.append(resp)
    full, cells, reconnected = answers
    if full.reads is None:  # the plan keeps full stores
        assert all(a.writes is None and a.reads is None for a in answers)
    else:
        assert full.writes is not None
        for resp in (cells, reconnected):
            assert resp.writes is not None and resp.reads is None


class TestWireDifferential:
    """One shared server/client per backend class — Hypothesis examples ride
    warm connections, which also exercises response demultiplexing."""

    @pytest.fixture(scope="class")
    def stack(self):
        with TransportServer(max_pending=64) as ts:
            host, port = ts.address
            with TransportClient(host, port, rng_seed=0) as client:
                yield client, ts.plan_server, (host, port)

    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prog=loop_programs())
    def test_serial_tcp_differential(self, stack, prog):
        client, srv, address = stack
        _assert_tcp_matches_all_paths(client, srv, prog, "serial", address=address)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prog=loop_programs())
    def test_compiled_tcp_differential(self, stack, prog):
        client, srv, address = stack
        _assert_tcp_matches_all_paths(client, srv, prog, "compiled", address=address)

    @needs_process
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prog=loop_programs())
    def test_process_tcp_differential(self, stack, prog):
        client, srv, address = stack
        _assert_tcp_matches_all_paths(client, srv, prog, "process", address=address)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: figure1_loop(10, 10),
            lambda: example2_loop(12),
            lambda: example3_loop(12),
            lambda: cholesky_loop(nmat=1, m=2, n=4, nrhs=1),
        ],
        ids=["fig1", "ex2", "ex3", "cholesky"],
    )
    def test_curated_default_plan_over_tcp(self, stack, factory):
        """With the *default* planning chain (whatever strategy wins), the
        TCP answer matches sequential execution and names the same strategy
        the in-process server picks."""
        client, srv, _ = stack
        prog = factory()
        ref = execute_sequential(prog, {})
        local = srv.request(prog, timeout=120)
        remote = client.request(prog, timeout=120)
        assert remote.strategy == local.strategy
        assert remote.scheme == local.scheme
        for name in ref:
            assert np.array_equal(ref[name], remote.result.store[name])

    def test_client_store_written_in_place(self, stack):
        client, _, _ = stack
        prog = figure1_loop(8, 8)
        store = make_store(prog, fill="random", seed=11)
        ref = execute_sequential(
            prog, {}, store={k: v.copy() for k, v in store.items()}
        )
        resp = client.request(prog, config=DATAFLOW, store=store, timeout=120)
        for name in ref:
            assert resp.result.store[name] is store[name]
            assert np.array_equal(ref[name], store[name])

    def test_remote_error_propagates_with_type(self, stack):
        """A serving-side failure (here: no strategy in a pinned chain
        applies to the imperfect nest) reaches the client with its type."""
        client, _, _ = stack
        with pytest.raises(RemoteServingError, match="PartitioningNotApplicable") as info:
            client.request(
                example3_loop(6),
                config=PlanConfig(strategies=("recurrence-chains",)),
                timeout=60,
            )
        assert info.value.error_type == "PartitioningNotApplicable"


class _GatedServer(PlanServer):
    """A deliberately slow server: request handling parks on ``gate``."""

    def __init__(self, gate: threading.Event, **kwargs):
        super().__init__(**kwargs)
        self.gate = gate

    def _handle(self, req, batch_size):
        self.gate.wait(timeout=30)
        return super()._handle(req, batch_size)


class TestBackPressure:
    def test_saturation_busy_then_retry_completes_everything(self):
        """The acceptance scenario: slow pool, ``max_pending=k`` — the
        k+1-th wire submission is answered ``ServerBusy`` with a positive
        ``retry_after_ms``, and a retrying client still completes every
        request with zero lost or duplicated responses."""
        k = 2
        gate = threading.Event()
        srv = _GatedServer(gate, max_batch=1, max_pending=k)
        prog = figure1_loop(8, 8)
        ref = execute_sequential(prog, {})
        with TransportServer(plan_server=srv) as ts:
            host, port = ts.address
            # -- phase 1: observe the raw ServerBusy (no retries) ----------
            with TransportClient(
                host, port, max_retries=0, rng_seed=1
            ) as probe:
                inflight = []
                # one request occupies the serving thread (parked on the
                # gate), k more fill the queue to capacity
                for _ in range(k + 1):
                    inflight.append(
                        probe.submit(_plain_request(prog))
                    )
                    time.sleep(0.15)  # let the first one reach _handle
                overflow = probe.submit(_plain_request(prog))
                with pytest.raises(ServerBusy) as exc_info:
                    overflow.result(timeout=10)
                busy = exc_info.value
                assert busy.retry_after_ms > 0
                assert busy.capacity == k and busy.depth == k
                gate.set()  # release the pool
                seen = {t.result(timeout=60).request_id for t in inflight}
                assert len(seen) == k + 1  # nothing lost, nothing duplicated
            # -- phase 2: retrying clients ride the busy signal ------------
            gate.clear()
            results = []
            errors = []

            def client_thread(seed):
                try:
                    with TransportClient(
                        host, port, max_retries=60, rng_seed=seed,
                        base_backoff_s=0.01, max_backoff_s=0.2,
                    ) as c:
                        results.append(c.request(prog, timeout=120))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(s,), daemon=True)
                for s in range(8)
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            gate.set()
            for t in threads:
                t.join(120)
            assert not errors, errors
            assert len(results) == 8
            assert len({r.request_id for r in results}) == 8
            for r in results:
                for name in ref:
                    assert np.array_equal(ref[name], r.result.store[name])
            stats = ts.stats()["server"]["queue"]
            assert stats["rejected"] > 0  # back-pressure actually fired
            assert stats["high_water"] <= k

    def test_retry_exhaustion_surfaces_server_busy(self):
        gate = threading.Event()
        srv = _GatedServer(gate, max_batch=1, max_pending=1)
        prog = figure1_loop(6, 6)
        try:
            with TransportServer(plan_server=srv) as ts:
                host, port = ts.address
                with TransportClient(
                    host, port, max_retries=2, rng_seed=2,
                    base_backoff_s=0.01, max_backoff_s=0.05,
                ) as c:
                    filler = [c.submit(_plain_request(prog)) for _ in range(2)]
                    time.sleep(0.15)
                    doomed = c.submit(_plain_request(prog))
                    with pytest.raises(ServerBusy):
                        doomed.result(timeout=30)
                    assert doomed.attempts == 3  # initial + 2 retries
                    gate.set()
                    for t in filler:
                        t.result(timeout=60)
        finally:
            gate.set()


def _plain_request(prog):
    return PlanRequest(program=prog)


class TestShutdown:
    def test_close_with_open_client_sockets(self):
        """No hung threads and clean shm when the server shuts down while
        clients still hold open connections."""
        shm_before = _dev_shm()
        baseline = {t.name for t in threading.enumerate()}
        prog = figure1_loop(8, 8)
        ts = TransportServer().start()
        host, port = ts.address
        clients = [TransportClient(host, port, rng_seed=i) for i in range(3)]
        for c in clients:
            c.request(prog, timeout=60)  # live traffic before shutdown
        ts.close(timeout=10)  # clients still hold their sockets here
        for c in clients:
            with pytest.raises((ConnectionError, OSError, RemoteServingError)):
                c.request(prog, timeout=5)
        for c in clients:
            c.close()
        deadline = time.time() + 10
        while time.time() < deadline:
            leftover = {t.name for t in threading.enumerate()} - baseline
            if not leftover:
                break
            time.sleep(0.05)
        assert not leftover, f"hung threads after shutdown: {leftover}"
        assert _dev_shm() == shm_before

    @needs_process
    def test_close_mid_request_drains_and_unlinks_shm(self):
        """In-flight process-backend requests are served during shutdown
        (close-then-drain) and every shm segment is unlinked."""
        shm_before = _dev_shm()
        prog = figure1_loop(10, 10)
        ref = execute_sequential(prog, {})
        cfg = ExecConfig(backend="process", workers=2)
        ts = TransportServer().start()
        host, port = ts.address
        client = TransportClient(host, port, rng_seed=5)
        tickets = [
            client.submit(PlanRequest(program=prog, exec_config=cfg))
            for _ in range(3)
        ]
        time.sleep(0.3)  # let the reader admit all three before we close
        closer = threading.Thread(target=lambda: ts.close(timeout=60), daemon=True)
        closer.start()
        responses = [t.result(timeout=120) for t in tickets]
        closer.join(120)
        assert not closer.is_alive()
        client.close()
        assert len({r.request_id for r in responses}) == 3
        for r in responses:
            for name in ref:
                assert np.array_equal(ref[name], r.result.store[name])
        assert _dev_shm() == shm_before

    def test_double_close_and_stats_after_close(self):
        ts = TransportServer().start()
        host, port = ts.address
        with TransportClient(host, port) as c:
            c.request(figure1_loop(4, 4), timeout=60)
        ts.close()
        ts.close()  # idempotent
        assert ts.stats()["connections_total"] == 1


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _wait_until(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.02)
    return predicate()


class TestHostileInput:
    @pytest.mark.parametrize(
        "header",
        [
            [1, 2, 3],
            {"request_id": "r", "arrays": [{"name": "x"}]},
            {"request_id": "r", "arrays": [{"name": "x", "nbytes": 2**40}]},
            {"request_id": "r", "arrays": [{"name": "x", "nbytes": -1}]},
        ],
        ids=["list-header", "missing-nbytes", "one-tebibyte", "negative-nbytes"],
    )
    def test_malformed_header_gets_error_frame_and_others_are_served(self, header):
        prog = figure1_loop(6, 6)
        with TransportServer() as ts:
            host, port = ts.address
            with TransportClient(host, port) as bystander:
                with socket.create_connection((host, port), timeout=10) as raw:
                    out, inp = raw.makefile("wb"), raw.makefile("rb")
                    wire.write_frame(out, FrameKind.REQUEST, header)
                    kind, reply, _ = wire.read_frame(inp)
                    assert kind == FrameKind.ERROR
                    assert reply["error_type"] == "WireError"
                    with pytest.raises(EOFError):
                        wire.read_frame(inp)  # the server hung up
                    out.close(), inp.close()
                served = bystander.request(prog, config=DATAFLOW, timeout=60)
                ref = execute_sequential(prog, {})
                for name in ref:
                    assert np.array_equal(ref[name], served.result.store[name])


    def test_strided_loop_gets_error_frame_and_others_are_served(self):
        """The wire carries a loop's stride; a non-unit one is refused by
        the analysis with a typed ERROR frame, and another client is still
        served."""
        from repro.ir.builder import aref, assign, loop, program

        strided = program(
            "strided",
            loop("I", 1, 8, assign("s", aref("a", "I+1"), [aref("a", "I")]), stride=2),
            array_shapes={"a": (10,)},
        )
        prog = figure1_loop(6, 6)
        ref = execute_sequential(prog, {})
        with TransportServer() as ts:
            host, port = ts.address
            with TransportClient(host, port) as client, \
                    TransportClient(host, port) as bystander:
                with pytest.raises(RemoteServingError, match="normalize_program") as info:
                    client.request(strided, timeout=60)
                assert info.value.error_type == "ValueError"
                served = bystander.request(prog, config=DATAFLOW, timeout=60)
                for name in ref:
                    assert np.array_equal(ref[name], served.result.store[name])

    @pytest.mark.parametrize("backend", ["threaded", "simulated"])
    def test_unregistered_backend_gets_error_frame_before_planning(self, backend):
        """A stale client naming a deleted backend is refused at decode time
        with a typed ERROR frame naming the registered ones: nothing is
        planned."""
        header, payloads = wire.request_frame(
            PlanRequest(program=figure1_loop(4, 4), exec_config=ExecConfig())
        )
        header["exec_config"]["backend"] = backend
        with TransportServer() as ts:
            host, port = ts.address
            with socket.create_connection((host, port), timeout=10) as raw:
                out, inp = raw.makefile("wb"), raw.makefile("rb")
                wire.write_frame(out, FrameKind.REQUEST, header, payloads)
                kind, reply, _ = wire.read_frame(inp)
                out.close(), inp.close()
            assert kind == FrameKind.ERROR
            assert reply["error_type"] == "WireError"
            assert f"unknown backend {backend!r}" in reply["message"]
            assert "registered: serial, process, compiled" in reply["message"]
            assert ts.plan_server.stats()["plan_cache"]["misses"] == 0

    def test_oversized_worker_count_gets_error_frame_and_no_pool(self):
        """A process request asking for 10**6 workers is refused at decode:
        the client gets an ERROR frame, no pool is forked, and both that
        connection and another client keep being served."""
        prog = figure1_loop(6, 6)
        ref = execute_sequential(prog, {})
        with TransportServer() as ts:
            host, port = ts.address
            with TransportClient(host, port) as greedy, \
                    TransportClient(host, port) as bystander:
                with pytest.raises(RemoteServingError) as info:
                    greedy.request(
                        prog, config=DATAFLOW, timeout=60,
                        exec_config=ExecConfig(backend="process", workers=10**6),
                    )
                assert info.value.error_type == "WireError"
                assert ts.plan_server.stats()["pools"]["created"] == 0
                for client in (bystander, greedy):
                    served = client.request(prog, config=DATAFLOW, timeout=60)
                    for name in ref:
                        assert np.array_equal(ref[name], served.result.store[name])
            assert ts.plan_server.stats()["pools"]["created"] == 0


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count fds"
)
class TestConnectionReaping:
    def test_short_lived_clients_leave_fds_and_connections_flat(self):
        """200 sequential clients, each sending one request and hanging up:
        every finished connection is reaped, not held until close()."""
        prog = figure1_loop(4, 4)
        with TransportServer() as ts:
            host, port = ts.address
            with TransportClient(host, port) as warm:  # first-use imports, caches
                warm.request(prog, config=DATAFLOW, timeout=60)
            assert _wait_until(lambda: not ts._connections)
            fds = _open_fds()
            for _ in range(200):
                with TransportClient(host, port) as client:
                    client.request(prog, config=DATAFLOW, timeout=60)
            assert _wait_until(lambda: not ts._connections), (
                f"{len(ts._connections)} finished connections were not reaped"
            )
            assert _wait_until(lambda: _open_fds() <= fds), (
                f"open fds grew from {fds} to {_open_fds()}"
            )
            assert ts.stats()["connections_total"] == 201


def _corpus_entry(name):
    from repro.workloads.corpus import selection_corpus

    return next(e for e in selection_corpus(size="small") if e.name == name)


def _raw_request(host, port, header, payloads):
    with socket.create_connection((host, port), timeout=30) as raw:
        out, inp = raw.makefile("wb"), raw.makefile("rb")
        wire.write_frame(out, FrameKind.REQUEST, header, tuple(payloads))
        reply = wire.read_frame(inp)
        out.close(), inp.close()
    return reply


class TestFootprintStores:
    """A client store travels as the cells the run reads and writes."""

    COMPILED = ExecConfig(backend="compiled")

    @pytest.fixture
    def served(self):
        with TransportServer() as ts:
            yield ts

    def test_answers_carry_written_cells_then_requests_carry_read_cells(self, served):
        e = _corpus_entry("nonuniform-coupled-0")  # 280x280 array, 64 instances
        initial = make_store(e.program, fill="random", seed=4)
        ref = execute_sequential(e.program, e.params,
                                 store={k: v.copy() for k, v in initial.items()})
        probe = PlanRequest(program=e.program, params=e.params, store=initial)
        wire.forget_reads(probe)
        assert wire.request_frame(probe)[0]["store"] == "full"
        with TransportClient(*served.address) as client:
            for k in range(2):
                store = {name: v.copy() for name, v in initial.items()}
                resp = client.request(e.program, e.params, exec_config=self.COMPILED,
                                      store=store)
                assert (resp.reads is not None) == (k == 0)
                written = sum(len(idx) for idx in resp.writes.values())
                assert 0 < written <= 64
                for name in ref:
                    assert np.array_equal(ref[name], store[name])
                    assert resp.result.store[name] is store[name]
        header, bodies = wire.request_frame(probe)
        assert header["store"] == "cells"
        assert sum(len(b) for b in bodies) < 64 * 16 * 4  # not the 627 KB store

    def _cells_frame(self, e, cells, store):
        header, _ = wire.request_frame(
            PlanRequest(program=e.program, params=e.params, store=store,
                        exec_config=self.COMPILED))
        header["store"] = "cells"
        header["arrays"], bodies = wire.cell_specs(store, cells)
        return header, bodies

    def test_hostile_read_sets_get_a_wire_error_frame(self, served):
        e = _corpus_entry("coupled-uniform-rand")
        store = make_store(e.program, fill="random", seed=5)
        req = PlanRequest(program=e.program, params=e.params, store=dict(store))
        wire.forget_reads(req)
        host, port = served.address
        with TransportClient(host, port) as client:
            reads = client.submit(req).result(60).reads
        name = next(n for n, idx in reads.items() if len(idx) > 1)
        header, bodies = self._cells_frame(e, dict(reads, **{name: reads[name][1:]}), store)
        kind, reply, _ = _raw_request(host, port, header, bodies)
        assert kind == FrameKind.ERROR and reply["error_type"] == "WireError"
        assert "read set" in reply["message"]
        # the last index of one array pushed past its end
        header, bodies = self._cells_frame(e, reads, store)
        k = [spec["name"] for spec in header["arrays"]].index(name)
        body = bytearray(bodies[k])
        body[8 * (len(reads[name]) - 1):8 * len(reads[name])] = (
            int(store[name].size).to_bytes(8, "little"))
        bodies = bodies[:k] + (bytes(body),) + bodies[k + 1:]
        kind, reply, _ = _raw_request(host, port, header, bodies)
        assert kind == FrameKind.ERROR and reply["error_type"] == "WireError"
        assert "range" in reply["message"]
        header, bodies = self._cells_frame(e, reads, store)
        header["arrays"][0]["cells"] += 1  # a count that does not match
        kind, reply, _ = _raw_request(host, port, header, bodies)
        assert kind == FrameKind.ERROR and reply["error_type"] == "WireError"
        # the plan's own read set is served, bit-identical
        header, bodies = self._cells_frame(e, reads, store)
        kind, reply, payloads = _raw_request(host, port, header, bodies)
        assert kind == FrameKind.RESPONSE
        resp = wire.decode_response(reply, payloads)
        got = {k: v.copy() for k, v in store.items()}
        wire.write_cells(got, resp.writes, resp.result.store)
        ref = execute_sequential(e.program, e.params,
                                 store={k: v.copy() for k, v in store.items()})
        assert all(np.array_equal(ref[k], got[k]) for k in ref)

    def test_a_refused_cached_read_set_is_forgotten(self, served):
        e = _corpus_entry("nonuniform-coupled-1")
        store = make_store(e.program, fill="random", seed=6)
        req = PlanRequest(program=e.program, params=e.params, store=store)
        wire.remember_reads(req, {name: np.array([0]) for name in store})  # stale
        with TransportClient(*served.address) as client:
            with pytest.raises(RemoteServingError) as info:
                client.request(e.program, e.params, store=dict(store), timeout=60)
            assert info.value.error_type == "WireError"
            assert wire.request_frame(req)[0]["store"] == "full"
            ref = execute_sequential(e.program, e.params,
                                     store={k: v.copy() for k, v in store.items()})
            client.request(e.program, e.params, store=store, timeout=60)
        assert all(np.array_equal(ref[k], store[k]) for k in ref)

    def test_large_symbolic_nest_keeps_full_stores_without_enumerating(self, served):
        from repro.workloads.synthetic import large_uniform_loop

        prog = large_uniform_loop(300, 300)
        store = make_store(prog, fill="random", seed=7)
        ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in store.items()})
        with TransportClient(*served.address) as client:
            resp = client.request(prog, exec_config=self.COMPILED, store=store, timeout=120)
        assert resp.strategy == "symbolic"
        assert resp.writes is None and resp.reads is None
        assert np.array_equal(ref["x"], store["x"])
        (p,) = served.plan_server.plan_cache.plans()
        assert list(p.footprints.values()) == [None]
        assert not p.analysis._domain_cache  # no domain was enumerated

    def test_stats_report_interned_programs_and_footprints(self, served):
        e = _corpus_entry("separable-0")
        before = served.stats()["wire"]["programs"]
        with TransportClient(*served.address) as client:
            for seed in range(3):
                client.request(e.program, e.params, exec_config=self.COMPILED,
                               store=make_store(e.program, fill="random", seed=seed))
        stats = served.stats()["wire"]
        assert stats["programs"]["hits"] + stats["programs"]["misses"] == (
            before["hits"] + before["misses"] + 3)
        assert stats["programs"]["entries"] >= 1 and stats["programs"]["bytes"] > 0
        assert stats["footprints"]["cached"] == 1 and stats["footprints"]["bytes"] > 0

    def test_interned_program_rides_the_lowering_identity_path(self, served):
        e = _corpus_entry("separable-1")
        with TransportClient(*served.address) as client:
            for _ in range(2):
                resp = client.request(e.program, e.params, exec_config=self.COMPILED)
        assert resp.plan_cache_hit
        (p,) = served.plan_server.plan_cache.plans()
        (lowered,) = p.schedule.lowered.values()
        assert lowered.program() is wire.intern_program(wire.program_text(e.program))

    def test_timings_carry_the_admission_wait(self, served):
        with TransportClient(*served.address) as client:
            resp = client.request(figure1_loop(4, 4), timeout=60)
        assert 0.0 <= resp.timings["queue_s"] < 60.0
