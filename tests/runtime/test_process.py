"""Tests for repro.runtime.shm + repro.runtime.process: the shared-memory
process pool.

These are the CI smoke tests for the ``process`` backend: worker count is
kept at 2 and every test skips gracefully where POSIX shared memory is
unavailable (e.g. a container without ``/dev/shm``).  The pool's one entry
point is ``ProcessPool.run``: one message to each worker and one ack back per
execution, with the workers barriering among themselves between phases.
"""

import glob
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.strategy import PlanConfig, plan
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.executor import lower_phase, split_phase
from repro.runtime.process import (
    ProcessPool,
    default_mp_context,
    process_unavailable_reason,
)
from repro.runtime.shm import (
    ALIGNMENT,
    ArrayDescriptor,
    SharedArrayStore,
    shared_memory_unavailable_reason,
)
from repro.serving import PlanServer
from repro.workloads.examples import example3_loop, figure1_loop
from repro.workloads.synthetic import large_cholesky_nest, large_uniform_loop

pytestmark = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)

#: CI guard: smoke tests never use more than 2 workers.
WORKERS = 2


class TestSharedArrayStore:
    def test_descriptor_table_layout(self):
        """Descriptors carry exactly (name, shape, dtype, offset), sorted by
        name and cache-line aligned — the only thing a worker is shipped."""
        prog = example3_loop(6)
        store = make_store(prog)
        with SharedArrayStore.from_store(store) as shared:
            names = [d.name for d in shared.descriptors]
            assert names == sorted(store)
            for d in shared.descriptors:
                assert isinstance(d, ArrayDescriptor)
                assert d.offset % ALIGNMENT == 0
                assert d.shape == store[d.name].shape
                assert np.dtype(d.dtype) == store[d.name].dtype
            # arrays must not overlap inside the segment
            spans = sorted((d.offset, d.offset + d.nbytes) for d in shared.descriptors)
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end

    def test_create_copies_contents_in(self):
        prog = figure1_loop(5, 5)
        store = make_store(prog, fill="random", seed=3)
        with SharedArrayStore.from_store(store) as shared:
            for name in store:
                assert np.array_equal(shared.arrays[name], store[name])
                assert shared.arrays[name] is not store[name]

    def test_attach_sees_mutations(self):
        """The attach-once protocol: a second mapping of the segment sees
        writes through the first immediately (same physical memory)."""
        prog = figure1_loop(5, 5)
        with SharedArrayStore.from_store(make_store(prog)) as shared:
            attached = SharedArrayStore.attach(shared.shm_name, shared.descriptors)
            try:
                shared.arrays["a"].flat[0] = 12345
                assert attached.arrays["a"].flat[0] == 12345
                attached.arrays["a"].flat[1] = 54321
                assert shared.arrays["a"].flat[1] == 54321
                assert not attached.owner
            finally:
                attached.close()

    def test_copy_out_into_fills_in_place(self):
        prog = figure1_loop(5, 5)
        store = make_store(prog)
        with SharedArrayStore.from_store(store) as shared:
            shared.arrays["a"][:] = 7
            out = shared.copy_out(store)
            assert out is store
            assert (store["a"] == 7).all()


class TestProcessPool:
    def test_pool_runs_all_phase_kinds(self):
        """One pool executes unit phases, ArrayPhase and UnifiedArrayPhase —
        each worker gets all its slices at once and barriers between phases."""
        cases = [
            (figure1_loop(8, 8), None),  # unit phases (P1/chains/P3)
            (  # ArrayPhase wavefronts
                large_uniform_loop(8, 6),
                PlanConfig(strategies=("dataflow",)),
            ),
            (  # statement-level UnifiedArrayPhase wavefronts
                large_cholesky_nest(10),
                PlanConfig(strategies=("dataflow",)),
            ),
        ]
        for prog, config in cases:
            p = plan(prog, config=config, cache=False)
            ref = execute_sequential(prog, {})
            store = make_store(prog)
            with ProcessPool(prog, workers=WORKERS) as pool:
                rows = pool.run(p.schedule, store)
            assert len(rows) == len(p.schedule.phases)
            for (executed, tasks, elapsed), phase in zip(rows, p.schedule.phases):
                assert executed == phase.work
                assert 1 <= tasks <= WORKERS
                assert elapsed >= 0
            for name in ref:
                assert np.array_equal(ref[name], store[name]), prog.name

    def test_worker_count_validation(self):
        prog = figure1_loop(4, 4)
        with pytest.raises(ValueError):
            ProcessPool(prog, workers=0)

    def test_single_worker_pool(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        result = execute(prog, p.schedule, {}, backend="process", workers=1)
        assert np.array_equal(ref["a"], result.store["a"])

    def test_worker_exception_propagates_with_traceback(self):
        """A statement whose semantics raises must surface in the parent as a
        RuntimeError carrying the originating worker's remote traceback — not
        a sibling's BrokenBarrierError — and never hang the barrier."""

        prog = figure1_loop(6, 6)
        for stmt in prog.statements():
            object.__setattr__(stmt, "semantics", _exploding_semantics)
        p = plan(prog, cache=False)
        before = _segments()
        with ProcessPool(prog, workers=WORKERS) as pool:
            with pytest.raises(RuntimeError, match="boom-semantics") as info:
                pool.run(p.schedule, make_store(prog))
            assert "BrokenBarrierError" not in str(info.value)
            assert pool.broken
        assert _segments() == before

    def test_start_method_reported(self):
        prog = figure1_loop(4, 4)
        with ProcessPool(prog, workers=1) as pool:
            assert pool.start_method == default_mp_context().get_start_method()
        result = execute(prog, plan(prog, cache=False).schedule, {},
                         backend="process", workers=1)
        assert result.meta["start_method"] in ("fork", "spawn", "forkserver")


def _exploding_semantics(arrays, env, reads):
    raise ValueError("boom-semantics")


def _suicidal_semantics(arrays, env, reads):
    """Kill the executing worker (SIGKILL: no cleanup, no ack) on instance
    (1, 1) — a point of figure 1's first phase."""
    if tuple(env.values()) == (1, 1):
        os.kill(os.getpid(), signal.SIGKILL)
    return sum(reads) + 1


def _slow_semantics(arrays, env, reads):
    """Hold the executing worker for a while on instance (1, 1), so its
    sibling finishes figure 1's first phase and waits in the barrier."""
    if tuple(env.values()) == (1, 1):
        time.sleep(3)
    return sum(reads) + 1


class TestProcessBackendStats:
    def test_per_phase_worker_counts(self):
        prog = large_uniform_loop(10, 8)
        p = plan(
            prog,
            config=PlanConfig(strategies=("dataflow",)),
            cache=False,
        )
        result = execute(prog, p.schedule, {}, backend="process", workers=WORKERS)
        assert result.workers == WORKERS
        for stat, phase in zip(result.phase_stats, p.schedule.phases):
            assert stat.instances == phase.work
            assert 1 <= stat.workers <= WORKERS

    def test_varied_initial_store_roundtrip(self):
        """Random initial contents survive the copy-in/copy-out unchanged
        through a full schedule execution."""
        prog = example3_loop(8)
        p = plan(prog, cache=False)
        ref_store = make_store(prog, fill="random", seed=11)
        ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in ref_store.items()})
        result = execute(
            prog, p.schedule, {}, store=ref_store, backend="process", workers=WORKERS
        )
        for name in ref:
            assert np.array_equal(ref[name], result.store[name])


def test_unavailable_reason_is_none_here():
    """This suite only runs where the probe passes; pin the probe's contract."""
    assert shared_memory_unavailable_reason() is None
    assert process_unavailable_reason() is None


# ---------------------------------------------------------------------------
# lifecycle regressions: crash-time segment cleanup, shutdown escalation,
# and pool reuse across execute() calls (the serving daemon's warm path)
# ---------------------------------------------------------------------------


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _ignore_sigterm_forever():
    """A deliberately-wedged worker: ignores the sentinel *and* SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


class TestPoolLifecycle:
    def test_worker_crash_mid_lifetime_unlinks_segment(self):
        """Workers killed between runs: the next run raises "died" instead
        of hanging, marks the pool broken and leaves no segment behind."""
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        before = _segments()
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            pool.run(p.schedule, make_store(prog))
            for victim in pool._procs:
                os.kill(victim.pid, signal.SIGKILL)
            for victim in pool._procs:
                victim.join(timeout=5)
            with pytest.raises(RuntimeError, match="died"):
                pool.run(p.schedule, make_store(prog))
            assert pool.broken
            assert _segments() == before
        finally:
            pool.shutdown()
        assert _segments() == before

    def test_broken_pool_refuses_runs_without_a_round_trip(self):
        """After a worker failure the pool is broken and its workers are
        killed: a further run raises at once (no message is sent, so no ack
        is awaited) and creates no segment."""
        prog = figure1_loop(6, 6)
        for stmt in prog.statements():
            object.__setattr__(stmt, "semantics", _exploding_semantics)
        p = plan(prog, cache=False)
        before = _segments()
        with ProcessPool(prog, workers=WORKERS) as pool:
            with pytest.raises(RuntimeError, match="boom-semantics"):
                pool.run(p.schedule, make_store(prog))
            assert pool.broken
            for proc in pool._procs:
                proc.join(timeout=2)
                assert not proc.is_alive()
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="broken"):
                pool.run(p.schedule, make_store(prog))
            assert time.perf_counter() - start < 1
            assert _segments() == before

    def test_worker_killed_mid_phase_fails_fast(self):
        """A worker SIGKILLed inside a phase: the request fails within a few
        poll intervals (the sibling is released from the barrier, so the
        broken pool's shutdown needs no escalation), no segment is left, and
        the next request gets a fresh pool and a correct result."""
        killer = figure1_loop(8, 8)
        for stmt in killer.statements():
            object.__setattr__(stmt, "semantics", _suicidal_semantics)
        prog = figure1_loop(8, 8)
        ref = execute_sequential(prog, {})
        before = _segments()
        cfg = ExecConfig(backend="process", workers=WORKERS)
        with PlanServer(default_exec=cfg) as srv:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="died"):
                srv.request(killer, timeout=30)
            # well under shutdown()'s 5 s join timeout: a sibling hung in the
            # barrier would have had to be terminated
            assert time.perf_counter() - start < 3
            assert _segments() == before
            resp = srv.request(prog, timeout=30)
            stats = srv.stats()
        assert not resp.pool_reused
        assert stats["pools"]["created"] == 2
        assert stats["pools"]["evicted"] == 1
        for name in ref:
            assert np.array_equal(ref[name], resp.result.store[name])
        assert _segments() == before

    def test_worker_killed_in_the_barrier_fails_fast(self):
        """A worker SIGKILLed while it waits in the barrier for a sibling
        still running: the parent raises "died" within a few seconds
        instead of hanging on the dead worker's barrier state, the pool is
        broken, the sibling is gone before shutdown (not left waiting in the
        barrier), and no segment is left."""
        prog = figure1_loop(8, 8)
        for stmt in prog.statements():
            object.__setattr__(stmt, "semantics", _slow_semantics)
        p = plan(prog, cache=False)
        label_ids = {
            ctx.statement.label: i for i, ctx in enumerate(prog.statement_contexts())
        }
        tasks = split_phase(lower_phase(p.schedule.phases[0], label_ids), WORKERS, None)
        assert len(tasks) == WORKERS
        slow = next(
            k for k, (_, iters) in enumerate(tasks)
            if any(tuple(row) == (1, 1) for row in iters.tolist())
        )
        before = _segments()
        pool = ProcessPool(prog, workers=WORKERS)
        outcome = {}

        def serve():
            try:
                pool.run(p.schedule, make_store(prog), seed=None)
            except RuntimeError as exc:
                outcome["error"] = str(exc)
                outcome["at"] = time.perf_counter()

        try:
            runner = threading.Thread(target=serve, daemon=True)
            runner.start()
            time.sleep(0.5)  # the fast worker is in the barrier by now
            killed_at = time.perf_counter()
            os.kill(pool._procs[1 - slow].pid, signal.SIGKILL)
            runner.join(timeout=10)
            assert not runner.is_alive(), "run() hung after a worker died in the barrier"
            assert "died" in outcome["error"]
            assert outcome["at"] - killed_at < 2  # before the slow worker finishes
            assert pool.broken
            for proc in pool._procs:
                proc.join(timeout=2)
                assert not proc.is_alive()
            assert _segments() == before
        finally:
            pool.shutdown(join_timeout=1, kill_timeout=1)
        assert all(not proc.is_alive() for proc in pool._procs)
        assert _segments() == before

    def test_shutdown_escalates_to_kill_on_wedged_worker(self):
        """Regression: shutdown() used to stop at terminate(); a SIGTERM-
        ignoring worker leaked the process.  The kill() escalation must reap
        it within the configured timeouts."""
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        before = _segments()
        pool = ProcessPool(prog, workers=WORKERS)
        pool.run(p.schedule, make_store(prog))
        stubborn = pool._ctx.Process(target=_ignore_sigterm_forever, daemon=True)
        stubborn.start()
        pool._procs.append(stubborn)
        start = time.perf_counter()
        pool.shutdown(join_timeout=0.2, kill_timeout=0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 10
        for proc in pool._procs:
            assert not proc.is_alive()
        assert _segments() == before

    def test_shutdown_idempotent(self):
        prog = figure1_loop(5, 5)
        pool = ProcessPool(prog, workers=WORKERS)
        pool.run(plan(prog, cache=False).schedule, make_store(prog))
        pool.shutdown()
        pool.shutdown()  # second call must be harmless
        assert all(not proc.is_alive() for proc in pool._procs)


class TestPoolReuse:
    def test_injected_pool_serves_many_requests(self):
        """One persistent pool serves repeated execute() calls: results stay
        bit-identical to the sequential reference, runs are flagged as
        injected, and no segment outlives its request."""
        prog = example3_loop(8)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        before = _segments()
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            for _ in range(3):
                result = execute(prog, p.schedule, {}, backend="process", pool=pool)
                assert result.meta["pool"] == "injected"
                assert result.workers == WORKERS
                for name in ref:
                    assert np.array_equal(ref[name], result.store[name])
                assert _segments() == before  # unlinked after every request
        finally:
            pool.shutdown()

    def test_injected_pool_requires_process_backend(self):
        prog = figure1_loop(5, 5)
        p = plan(prog, cache=False)
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            with pytest.raises(ValueError, match="backend='process'"):
                execute(prog, p.schedule, {}, backend="serial", pool=pool)
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# the protocol: one round trip per execution, slices cached per schedule
# ---------------------------------------------------------------------------


class _CountingConn:
    """A parent-side pipe end that counts its traffic and keeps what it sent."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []
        self.recvs = 0

    def send(self, obj):
        self.sent.append(obj)
        self.conn.send(obj)

    def recv(self):
        self.recvs += 1
        return self.conn.recv()

    def fileno(self):
        return self.conn.fileno()

    def close(self):
        self.conn.close()


class TestOneRoundTrip:
    def test_one_send_and_one_recv_per_worker_whatever_the_phase_count(self):
        """Two plans of one program with different phase counts: every
        execute(pool=...) is exactly one send and one recv per worker, and a
        repeat of the last schedule and seed ships no slices."""
        prog = large_uniform_loop(8, 6)
        plans = [
            plan(prog, config=PlanConfig(strategies=(name,)), cache=False)
            for name in ("dataflow", "pdm")
        ]
        assert len({q.schedule.num_phases for q in plans}) == 2
        with ProcessPool(prog, workers=WORKERS) as pool:
            pool._conns = conns = [_CountingConn(c) for c in pool._conns]
            for q, repeat in ((plans[0], False), (plans[0], True), (plans[1], False)):
                for c in conns:
                    c.sent.clear()
                    c.recvs = 0
                execute(prog, q.schedule, {}, backend="process", pool=pool)
                for c in conns:
                    assert len(c.sent) == 1 and c.recvs == 1
                    slices = c.sent[0][1]
                    if repeat:
                        assert slices is None
                    else:
                        assert len(slices) == q.schedule.num_phases

    def test_alternating_plans_and_seeds_stay_bit_identical(self):
        """One pool, two pinned plans of one program and two seeds, in
        alternation: every run matches execute_sequential bit for bit."""
        prog = large_uniform_loop(8, 6)
        plans = [
            plan(prog, config=PlanConfig(strategies=(name,)), cache=False)
            for name in ("dataflow", "doacross")
        ]
        initial = make_store(prog, fill="random", seed=5)
        ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in initial.items()})
        with ProcessPool(prog, workers=WORKERS) as pool:
            for _ in range(2):
                for q in plans:
                    for seed in (0, 7):
                        store = {k: v.copy() for k, v in initial.items()}
                        execute(prog, q.schedule, {}, store=store,
                                backend="process", seed=seed, pool=pool)
                        for name in ref:
                            assert np.array_equal(ref[name], store[name])

    def test_phase_stats_match_split_phase(self):
        """Every PhaseStats.instances / .workers is what split_phase gives
        for the same seed, drawn in phase order."""
        prog = figure1_loop(8, 8)
        label_ids = {
            ctx.statement.label: i for i, ctx in enumerate(prog.statement_contexts())
        }
        with ProcessPool(prog, workers=WORKERS) as pool:
            for strategies in (None, ("dataflow",), ("doacross",)):
                config = None if strategies is None else PlanConfig(strategies=strategies)
                p = plan(prog, config=config, cache=False)
                for seed in (0, 3, None):
                    result = execute(prog, p.schedule, {}, backend="process",
                                     seed=seed, pool=pool)
                    rng = None if seed is None else random.Random(seed)
                    for stat, phase in zip(result.phase_stats, p.schedule.phases):
                        tasks = split_phase(lower_phase(phase, label_ids), WORKERS, rng)
                        assert stat.instances == sum(len(ids) for ids, _ in tasks)
                        assert stat.workers == len(tasks)
