"""Tests for repro.runtime.shm + repro.runtime.process: the shared-memory
process pool.

These are the CI smoke tests for the ``process`` backend: worker count is
kept at 2 and every test skips gracefully where POSIX shared memory is
unavailable (e.g. a container without ``/dev/shm``).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.strategy import PlanConfig, plan
from repro.runtime import execute, execute_sequential, make_store
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
        workers attach once and barrier between phases."""
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
            with ProcessPool(prog, store, workers=WORKERS) as pool:
                for phase in p.schedule.phases:
                    executed, tasks = pool.run_phase(phase)
                    assert executed == phase.work
                    assert 1 <= tasks <= WORKERS
                pool.copy_out(store)
            for name in ref:
                assert np.array_equal(ref[name], store[name]), prog.name

    def test_worker_count_validation(self):
        prog = figure1_loop(4, 4)
        with pytest.raises(ValueError):
            ProcessPool(prog, make_store(prog), workers=0)

    def test_single_worker_pool(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        result = execute(prog, p.schedule, {}, backend="process", workers=1)
        assert np.array_equal(ref["a"], result.store["a"])

    def test_worker_exception_propagates_with_traceback(self):
        """A statement whose semantics raises must surface in the parent as a
        RuntimeError carrying the remote traceback, not hang the barrier."""

        prog = figure1_loop(6, 6)
        for stmt in prog.statements():
            object.__setattr__(stmt, "semantics", _exploding_semantics)
        p = plan(prog, cache=False)
        store = make_store(prog)
        with ProcessPool(prog, store, workers=WORKERS) as pool:
            with pytest.raises(RuntimeError, match="boom-semantics"):
                for phase in p.schedule.phases:
                    pool.run_phase(phase)

    def test_start_method_reported(self):
        prog = figure1_loop(4, 4)
        with ProcessPool(prog, make_store(prog), workers=1) as pool:
            assert pool.start_method == default_mp_context().get_start_method()
        result = execute(prog, plan(prog, cache=False).schedule, {},
                         backend="process", workers=1)
        assert result.meta["start_method"] in ("fork", "spawn", "forkserver")


def _exploding_semantics(arrays, env, reads):
    raise ValueError("boom-semantics")


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


def _segment_path(shared):
    return os.path.join("/dev/shm", shared.shm_name)


def _ignore_sigterm_forever():
    """A deliberately-wedged worker: ignores the sentinel *and* SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


class TestPoolLifecycle:
    def test_worker_crash_mid_lifetime_unlinks_segment(self):
        """Regression: a worker killed after the store is packed must not
        leak the shared segment — shutdown's finally path always closes and
        unlinks the owner's mapping."""
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            pool.attach_store(make_store(prog))
            seg = _segment_path(pool.shared)
            assert os.path.exists(seg)
            # kill every worker: a surviving sibling could otherwise steal
            # and ack the dead worker's tasks off the shared queue
            for victim in pool._procs:
                os.kill(victim.pid, signal.SIGKILL)
            for victim in pool._procs:
                victim.join(timeout=5)
            with pytest.raises(RuntimeError, match="died"):
                pool.run_phase(p.schedule.phases[0])
            assert pool.broken
        finally:
            pool.shutdown()
        assert not os.path.exists(seg)
        # a broken pool refuses further stores instead of hanging a barrier
        with pytest.raises(RuntimeError):
            pool.attach_store(make_store(prog))

    def test_detach_store_with_broken_pool_still_unlinks(self):
        """detach_store() must skip the worker round-trip when the pool is
        broken (the acks will never come) yet still destroy the segment."""
        prog = figure1_loop(6, 6)
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            pool.attach_store(make_store(prog))
            seg = _segment_path(pool.shared)
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in pool._procs:
                proc.join(timeout=5)
            assert pool.broken
            pool.detach_store()
            assert not os.path.exists(seg)
        finally:
            pool.shutdown()

    def test_shutdown_escalates_to_kill_on_wedged_worker(self):
        """Regression: shutdown() used to stop at terminate(); a SIGTERM-
        ignoring worker leaked the process and its queue feeder threads.
        The kill() escalation must reap it within the configured timeouts."""
        prog = figure1_loop(6, 6)
        pool = ProcessPool(prog, workers=WORKERS)
        stubborn = pool._ctx.Process(target=_ignore_sigterm_forever, daemon=True)
        stubborn.start()
        pool._procs.append(stubborn)
        pool.attach_store(make_store(prog))
        seg = _segment_path(pool.shared)
        start = time.perf_counter()
        pool.shutdown(join_timeout=0.2, kill_timeout=0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 10
        for proc in pool._procs:
            assert not proc.is_alive()
        assert not os.path.exists(seg)

    def test_shutdown_idempotent(self):
        prog = figure1_loop(5, 5)
        pool = ProcessPool(prog, workers=WORKERS)
        pool.attach_store(make_store(prog))
        pool.shutdown()
        pool.shutdown()  # second call must be harmless
        assert pool.shared is None


class TestPoolReuse:
    def test_injected_pool_serves_many_requests(self):
        """One persistent pool serves repeated execute() calls: results stay
        bit-identical to the sequential reference, runs are flagged as
        injected, and no segment survives the pool's shutdown."""
        prog = example3_loop(8)
        p = plan(prog, cache=False)
        ref = execute_sequential(prog, {})
        pool = ProcessPool(prog, workers=WORKERS)
        seen_segments = []
        try:
            for _ in range(3):
                result = execute(prog, p.schedule, {}, backend="process", pool=pool)
                assert result.meta["pool"] == "injected"
                assert result.workers == WORKERS
                for name in ref:
                    assert np.array_equal(ref[name], result.store[name])
                assert pool.shared is None  # detached after every request
        finally:
            pool.shutdown()
        leftovers = [s for s in seen_segments if os.path.exists(s)]
        assert not leftovers

    def test_injected_pool_requires_process_backend(self):
        prog = figure1_loop(5, 5)
        p = plan(prog, cache=False)
        pool = ProcessPool(prog, workers=WORKERS)
        try:
            with pytest.raises(ValueError, match="backend='process'"):
                execute(prog, p.schedule, {}, backend="serial", pool=pool)
        finally:
            pool.shutdown()
