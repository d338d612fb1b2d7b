"""The shared-memory process pool behind the ``process`` execution backend.

Real wall-clock parallelism for the phase/barrier schedules.  The GIL
serialises the Python statement interpreter within one process, so here each
phase's work is executed by a pool of **processes** sharing the program's
arrays through one ``multiprocessing.shared_memory`` segment (see
:mod:`repro.runtime.shm`), so DOALL phases genuinely overlap on multi-core
hosts while keeping the shared-mutable-array semantics the paper's OpenMP
runs have.

Protocol (one message, a worker-side barrier, one ack per execution):

1. the parent starts ``workers`` persistent processes, handing each only the
   program (statement contexts are rebuilt worker-side) and its own
   :func:`~multiprocessing.Pipe` — workers outlive any particular store,
   which is what lets a serving daemon keep one pool warm across many
   requests (:mod:`repro.serving`);
2. per execution, the parent lowers and splits **every** phase up front
   (:func:`~repro.runtime.executor.lower_phase` /
   :func:`~repro.runtime.executor.split_phase`, shared with every other
   backend, one shuffle generator drawn in phase order), packs the arrays
   into a fresh :class:`~repro.runtime.shm.SharedArrayStore` and sends each
   worker **one** message: the segment name, the ``(name, shape, dtype,
   offset)`` descriptor table and that worker's ``(stmt_ids, iters)`` slice
   of every phase (``None`` where it has no unit);
3. each worker maps the segment, runs its slices through the one
   interpreter loop (:func:`~repro.runtime.executor.run_instances`) and
   waits on a pool-wide :class:`multiprocessing.Barrier` between phases —
   exactly the barrier of the generated code, without the parent in it —
   then unmaps the segment and sends **one** acknowledgement carrying its
   per-phase instance counts and times;
4. the parent waits on the pipes and the workers' sentinels
   (:func:`multiprocessing.connection.wait`), copies the shared arrays back
   into the caller's store and unlinks the segment in a ``finally``, so a
   worker crash can never leak it.

A split is a pure function of ``(schedule, workers, seed)``, so the pool
keeps one entry — the last schedule (a strong reference), its seed, a token
and the per-phase task counts — and each worker keeps its slices under that
token: a repeat request ships only the token, the segment name and the
descriptors.  A partition-derived schedule is race-free inside a phase, so
the worker a unit lands on never changes the result, bit for bit.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import random
import time
import traceback
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.program import LoopProgram
from .executor import lower_phase, run_instances, split_phase
from .shm import SharedArrayStore

__all__ = ["ProcessPool", "default_mp_context", "process_unavailable_reason"]


def default_mp_context() -> mp.context.BaseContext:
    """The multiprocessing context the pool uses.

    ``fork`` is preferred (workers inherit the program — and any non-picklable
    statement semantics — for free); platforms without it fall back to
    ``spawn``, which requires the program to be picklable (module-level
    semantics callables, as all built-in semantics are).
    """
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def process_unavailable_reason() -> Optional[str]:
    """``None`` when the process backend can run here, else a human reason."""
    from .shm import shared_memory_unavailable_reason

    reason = shared_memory_unavailable_reason()
    if reason is not None:
        return reason
    if not mp.get_all_start_methods():  # pragma: no cover - cannot happen on CPython
        return "no multiprocessing start method available"
    return None


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(program: LoopProgram, conn, barrier) -> None:
    """Worker loop: one ``(token, slices, shm_name, descriptors)`` message per
    execution, one ack back; exits on the ``None`` sentinel or a closed pipe.

    ``slices`` is ``None`` when the parent knows this worker already holds
    the slices of ``token``.  The ack is ``("ok", [(instances, seconds), ...])``
    per phase, or ``("error", traceback)``.  The parent kills every worker
    on the first failure it reads, so no sibling is left waiting in the
    barrier for a failed worker.
    """
    contexts = program.statement_contexts()
    token, slices = None, None
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        msg_token, msg_slices, shm_name, descriptors = msg
        if msg_slices is not None:
            token, slices = msg_token, msg_slices
        store = None
        try:
            if msg_token != token:
                raise RuntimeError(f"no slices held for token {msg_token}")
            store = SharedArrayStore.attach(shm_name, descriptors)
            rows = []
            t0 = time.perf_counter()
            for i, task in enumerate(slices):
                executed = 0 if task is None else run_instances(contexts, *task, store.arrays)
                if i + 1 < len(slices):
                    barrier.wait()
                t1 = time.perf_counter()
                rows.append((executed, t1 - t0))
                t0 = t1
            reply = ("ok", rows)
        except Exception:
            reply = ("error", traceback.format_exc())
        finally:
            if store is not None:
                store.close()
        conn.send(reply)


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class ProcessPool:
    """A persistent pool of workers executing one program's schedules.

    Workers start once and outlive any particular store; :meth:`run` is the
    one entry point — one message to each worker and one ack back per
    execution, whatever the phase count — so a serving daemon can keep one
    warm pool across many requests and never pay a worker fork.  Use as a
    context manager.

    A worker death or failure marks the pool :attr:`broken` and kills its
    workers (their slice caches are no longer trusted, so reuse would be
    unsound); every path still closes and unlinks the request's segment.
    """

    def __init__(self, program: LoopProgram, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.program = program
        self._ctx = default_mp_context()
        self._broken = False
        self._barrier = self._ctx.Barrier(workers)
        self._procs = []
        self._conns = []
        # Statement ids as the workers index their statement contexts.
        self._label_ids = {
            ctx.statement.label: i
            for i, ctx in enumerate(program.statement_contexts())
        }
        # The payload cache: (schedule, seed, token, per-phase task counts).
        self._last: Optional[tuple] = None
        self._tokens = itertools.count()
        try:
            for _ in range(workers):
                parent_end, child_end = self._ctx.Pipe()
                self._conns.append(parent_end)
                p = self._ctx.Process(
                    target=_worker_main,
                    args=(program, child_end, self._barrier),
                    daemon=True,
                )
                p.start()
                child_end.close()
                self._procs.append(p)
        except Exception:
            self.shutdown()
            raise

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool's workers use."""
        return self._ctx.get_start_method()

    @property
    def broken(self) -> bool:
        """True once a worker died or failed mid-flight — reuse is unsound."""
        return self._broken or any(not p.is_alive() for p in self._procs)

    # -- execution --------------------------------------------------------------

    def run(
        self, schedule, store: Dict[str, np.ndarray], seed: Optional[int] = 0
    ) -> List[Tuple[int, int, float]]:
        """Execute ``schedule`` against ``store`` (filled in place); returns
        ``(instances, tasks, elapsed_s)`` per phase.

        ``seed`` seeds the intra-phase shuffle (``None`` = no shuffle).  A
        worker exception is re-raised here with the originating worker's
        remote traceback; a dead worker raises instead of hanging the
        barrier.  Either marks the pool :attr:`broken`.
        """
        if self.broken:
            raise RuntimeError(
                "pool is broken (a worker failed or died); start a new pool"
            )
        token, task_counts, slices = self._payload(schedule, seed)
        shared = SharedArrayStore.from_store(store)
        try:
            try:
                for k, conn in enumerate(self._conns):
                    conn.send((
                        token,
                        None if slices is None else slices[k],
                        shared.shm_name,
                        shared.descriptors,
                    ))
                acks = self._gather()
            except BaseException:
                # Acks may be lost and the workers' slice caches are no longer
                # in step, so the pool is done.  Kill its workers rather than
                # abort their barrier: a dead worker may be counted as a
                # sleeper in it (or hold its lock), which would block the
                # abort for good.  Killed, no sibling is left waiting there.
                self._broken = True
                for p in self._procs:
                    p.kill()
                raise
            self._last = (schedule, seed, token, task_counts)
            shared.copy_out(store)
        finally:
            shared.close()
            shared.unlink()
        return [
            (sum(rows[0] for rows in phase), tasks, max(rows[1] for rows in phase))
            for phase, tasks in zip(zip(*acks), task_counts)
        ]

    def _payload(self, schedule, seed):
        """``(token, per-phase task counts, per-worker slices)``; the slices
        are ``None`` when the workers already hold them (same schedule and
        seed as the last run)."""
        last = self._last
        if last is not None and last[0] is schedule and last[1] == seed:
            return last[2], last[3], None
        rng = None if seed is None else random.Random(seed)
        slices = [[] for _ in range(self.workers)]
        task_counts = []
        for phase in schedule.phases:
            tasks = split_phase(lower_phase(phase, self._label_ids), self.workers, rng)
            task_counts.append(len(tasks))
            for k in range(self.workers):
                slices[k].append(tasks[k] if k < len(tasks) else None)
        return next(self._tokens), task_counts, slices

    def _gather(self) -> List[list]:
        """One ack per worker; raises on the first failure or worker death.

        A failed worker's siblings are held in the barrier and never ack
        until :meth:`run` kills them once this has raised, so the first
        error read is always the originating worker's."""
        acks: List[Optional[list]] = [None] * self.workers
        pending = {conn: k for k, conn in enumerate(self._conns)}
        sentinels = [p.sentinel for p in self._procs]
        while pending:
            ready = wait([*pending, *sentinels])
            for conn in [c for c in ready if c in pending]:
                k = pending.pop(conn)
                try:
                    msg = conn.recv()
                except EOFError:
                    raise RuntimeError(f"process backend worker {k} died") from None
                if msg[0] == "error":
                    raise RuntimeError(f"process backend worker {k} failed:\n{msg[1]}")
                acks[k] = msg[1]
            dead = [p.exitcode for p in self._procs if not p.is_alive()]
            if dead:
                raise RuntimeError(f"process backend worker(s) died: {dead}")
        return acks

    # -- lifetime ---------------------------------------------------------------

    def shutdown(self, join_timeout: float = 5.0, kill_timeout: float = 1.0) -> None:
        """Stop the workers and close the pipes.

        Escalates worker teardown — sentinel + ``join(join_timeout)``, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL, which a wedged or
        signal-ignoring worker cannot block).  The pool holds no segment
        between runs (:meth:`run` unlinks its own), so shutdown never leaves
        a ``/dev/shm`` entry behind.  Idempotent.
        """
        try:
            for conn in self._conns:
                try:
                    conn.send(None)
                except (OSError, ValueError):  # worker gone or pipe closed
                    pass
            for p in self._procs:
                p.join(timeout=join_timeout)
            stuck = [p for p in self._procs if p.is_alive()]
            for p in stuck:
                p.terminate()
            for p in stuck:
                p.join(timeout=kill_timeout)
            for p in stuck:
                if p.is_alive():
                    p.kill()
            for p in stuck:
                p.join(timeout=kill_timeout)
        finally:
            for conn in self._conns:
                conn.close()
            self._last = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
