"""Tests for repro.serving: admission queue semantics and the plan server's
lifecycle — warm caches, pool reuse, drain-on-shutdown, error isolation.

Process-backend assertions skip gracefully where POSIX shared memory is
unavailable; everything else runs on the serial backend so the suite stays
fast in tier-1.
"""

import glob
import threading

import numpy as np
import pytest

from repro.core.partitioner import PartitioningNotApplicable
from repro.core.strategy import PlanCache, PlanConfig
from repro.runtime import execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import (
    AdmissionQueue,
    PlanRequest,
    PlanServer,
    ServerClosed,
)
from repro.workloads.examples import example3_loop, figure1_loop

needs_process = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)


def _dev_shm():
    return set(glob.glob("/dev/shm/psm_*"))


class TestAdmissionQueue:
    def test_fifo_and_batch_bound(self):
        q = AdmissionQueue(max_batch=3)
        reqs = [PlanRequest(program=figure1_loop(4, 4)) for _ in range(5)]
        tickets = [q.submit(r) for r in reqs]
        first = q.next_batch(timeout=0)
        second = q.next_batch(timeout=0)
        assert [t.request.request_id for t in first] == [
            r.request_id for r in reqs[:3]
        ]
        assert [t.request.request_id for t in second] == [
            r.request_id for r in reqs[3:]
        ]
        assert tickets[0] is first[0]

    def test_submit_after_close_raises(self):
        q = AdmissionQueue()
        q.close()
        with pytest.raises(ServerClosed):
            q.submit(PlanRequest(program=figure1_loop(4, 4)))

    def test_close_leaves_pending_for_drain(self):
        q = AdmissionQueue(max_batch=8)
        q.submit(PlanRequest(program=figure1_loop(4, 4)))
        q.close()
        assert len(q.next_batch(timeout=0)) == 1  # still drainable
        assert q.next_batch(timeout=0) == []  # drained-and-closed signal

    def test_fail_pending_completes_tickets(self):
        q = AdmissionQueue()
        t = q.submit(PlanRequest(program=figure1_loop(4, 4)))
        assert q.fail_pending() == 1
        with pytest.raises(ServerClosed):
            t.result(timeout=1)

    def test_max_batch_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_batch=0)


class TestPlanServerLifecycle:
    def test_submit_before_start_raises(self):
        srv = PlanServer()
        with pytest.raises(ServerClosed):
            srv.submit(PlanRequest(program=figure1_loop(4, 4)))

    def test_context_manager_serves_and_stops(self):
        prog = figure1_loop(8, 8)
        ref = execute_sequential(prog, {})
        with PlanServer() as srv:
            resp = srv.request(prog)
            assert resp.backend == "serial"
            for name in ref:
                assert np.array_equal(ref[name], resp.result.store[name])
        assert not srv.running
        with pytest.raises(ServerClosed):
            srv.submit(PlanRequest(program=prog))

    def test_stop_idempotent_and_drains_pending(self):
        prog = figure1_loop(8, 8)
        srv = PlanServer().start()
        tickets = [srv.submit(PlanRequest(program=prog)) for _ in range(6)]
        srv.stop(drain=True)
        srv.stop()  # second stop is harmless
        for t in tickets:
            assert t.result(timeout=5).result.store is not None

    def test_plan_cache_warms_across_requests(self):
        prog = example3_loop(8)
        with PlanServer() as srv:
            first = srv.request(prog)
            second = srv.request(prog)
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert second.strategy == first.strategy
        assert second.explain == first.explain
        assert srv.stats()["plan_cache"]["hits"] >= 1

    def test_shared_plan_cache_instance(self):
        cache = PlanCache()
        prog = figure1_loop(6, 6)
        with PlanServer(plan_cache=cache) as srv:
            srv.request(prog)
        assert cache.stats()["misses"] >= 1

    def test_error_propagates_and_server_survives(self):
        """A failing request reaches its own client; the server keeps
        serving the next one."""
        prog = figure1_loop(6, 6)
        with PlanServer() as srv:
            with pytest.raises(PartitioningNotApplicable):
                srv.request(
                    example3_loop(6), config=PlanConfig(strategies=("recurrence-chains",))
                )
            ok = srv.request(prog)
            assert ok.result.store is not None
            stats = srv.stats()
        assert stats["requests_failed"] == 1
        assert stats["requests_served"] == 1

    def test_client_store_round_trip(self):
        """A request carrying its own arrays gets them mutated in place."""
        prog = example3_loop(6)
        init = make_store(prog, fill="random", seed=7)
        ref = execute_sequential(
            prog, {}, store={k: v.copy() for k, v in init.items()}
        )
        mine = {k: v.copy() for k, v in init.items()}
        with PlanServer() as srv:
            resp = srv.request(prog, store=mine)
        for name in ref:
            assert np.array_equal(ref[name], mine[name])
        assert resp.result.store is mine


@needs_process
class TestPlanServerPools:
    def test_pool_reused_across_process_requests(self):
        prog = example3_loop(8)
        ref = execute_sequential(prog, {})
        before = _dev_shm()
        cfg = ExecConfig(backend="process", workers=2)
        with PlanServer(default_exec=cfg) as srv:
            responses = [srv.request(prog) for _ in range(3)]
            stats = srv.stats()
        assert [r.pool_reused for r in responses] == [False, True, True]
        assert all(r.result.meta.get("pool") == "injected" for r in responses)
        for r in responses:
            for name in ref:
                assert np.array_equal(ref[name], r.result.store[name])
        assert stats["pools"] == {"size": 1, "created": 1, "reused": 2, "evicted": 0}
        assert _dev_shm() == before  # clean shutdown leaves no segments

    def test_distinct_programs_get_distinct_pools(self):
        cfg = ExecConfig(backend="process", workers=2)
        before = _dev_shm()
        with PlanServer(default_exec=cfg, max_pools=2) as srv:
            srv.request(example3_loop(8))
            srv.request(figure1_loop(8, 8))
            stats = srv.stats()
        assert stats["pools"]["created"] == 2
        assert _dev_shm() == before

    def test_pool_lru_evicts_and_shuts_down(self):
        cfg = ExecConfig(backend="process", workers=2)
        before = _dev_shm()
        with PlanServer(default_exec=cfg, max_pools=1) as srv:
            srv.request(example3_loop(8))
            srv.request(figure1_loop(8, 8))  # evicts the first pool
            stats = srv.stats()
        assert stats["pools"]["created"] == 2
        assert stats["pools"]["evicted"] == 1
        assert stats["pools"]["size"] == 1
        assert _dev_shm() == before


class TestConcurrentClients:
    def test_many_threads_many_requests(self):
        """N client threads × M requests against one server: every response
        validates against the sequential reference."""
        progs = [figure1_loop(8, 8), example3_loop(8)]
        refs = [execute_sequential(p, {}) for p in progs]
        errors = []

        with PlanServer(max_batch=4) as srv:

            def client(worker_id):
                try:
                    for i in range(5):
                        prog = progs[(worker_id + i) % len(progs)]
                        ref = refs[(worker_id + i) % len(progs)]
                        resp = srv.request(prog, timeout=60)
                        assert 1 <= resp.batch_size <= 4
                        for name in ref:
                            assert np.array_equal(
                                ref[name], resp.result.store[name]
                            )
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = srv.stats()

        assert errors == []
        assert stats["requests_served"] == 20
        assert stats["plan_cache"]["hits"] >= 18  # 2 misses, everything else warm
