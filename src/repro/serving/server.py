"""The memory-resident plan server.

One :class:`PlanServer` keeps the three amortisable assets of this codebase
alive across requests instead of rebuilding them inside every call:

* a thread-safe :class:`~repro.core.strategy.PlanCache` — repeated
  ``(program, params, config)`` requests skip dependence analysis, strategy
  selection and schedule construction entirely;
* the ``compiled`` kernel's lowered forms — every cached plan keeps its
  schedule's lockstep lowering (:mod:`repro.runtime.lockstep`), which a
  repeated request reuses: its freshly decoded program hits the lowering
  key without re-checking the statements;
* persistent :class:`~repro.runtime.process.ProcessPool` workers — a
  ``process`` request (``execute(pool=...)``) is one message to each live
  worker and one ack back: a fresh shared-memory descriptor table, plus the
  worker's phase slices only when the plan or seed differs from the pool's
  last request.  No worker is re-forked.

Threading model: clients submit from any number of threads; ONE serving
thread owns every pool and drains the admission queue in batches (see
:mod:`repro.serving.queue`), so two requests' messages to one pool never
interleave.  Ownership/shutdown ordering: each request's segment is unlinked
when the request ends, on every path; ``stop()`` first closes admissions,
then (by default) drains already-accepted requests, then joins the serving
thread, and only then shuts pools down, so a cleanly stopped server leaves
no process and nothing in ``/dev/shm``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.strategy import Plan, PlanCache, PlanConfig, plan
from ..ir.program import LoopProgram
from ..runtime.backends import ExecConfig, execute
from ..runtime.process import ProcessPool
from .api import PlanRequest, PlanResponse
from .queue import AdmissionQueue, ServerClosed, Ticket

__all__ = ["PlanServer"]

#: Pool-cache key: (program fingerprint, worker count).
PoolKey = Tuple[str, int]


class PlanServer:
    """Serve planned parallel executions from warm caches and live workers.

    Parameters
    ----------
    default_exec:
        Backend/worker defaults applied to requests that carry no
        ``exec_config`` (library default: serial backend).
    max_batch:
        Admission-queue batch bound — how many queued requests one serving
        iteration drains back-to-back (`PlanResponse.batch_size` reports the
        actual size).
    plan_cache:
        Share an existing :class:`PlanCache` (e.g. the process default); a
        private one is created when omitted.
    max_pools:
        LRU bound on distinct persistent pools, one per (program
        fingerprint, workers); the evicted pool is shut down.
    max_pending:
        Admission bound (``None`` = unbounded, the historical behaviour).
        With a bound, a full queue pushes back on submitters per
        ``admission_policy``.
    admission_policy:
        Default saturation behaviour: ``"block"`` (park the submitting
        thread until room opens — the in-process default) or ``"reject"``
        (raise :class:`~repro.serving.policy.ServerBusy` with a retry hint —
        what the wire transport uses per-submit regardless of this default).
    """

    def __init__(
        self,
        default_exec: Optional[ExecConfig] = None,
        max_batch: int = 8,
        plan_cache: Optional[PlanCache] = None,
        max_pools: int = 4,
        poll_interval_s: float = 0.05,
        max_pending: Optional[int] = None,
        admission_policy: str = "block",
    ):
        if max_pools < 1:
            raise ValueError("max_pools must be >= 1")
        self.default_exec = default_exec or ExecConfig()
        self.max_pools = max_pools
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.poll_interval_s = poll_interval_s
        self._queue = AdmissionQueue(
            max_batch=max_batch, max_pending=max_pending, policy=admission_policy
        )
        self._pools: "OrderedDict[PoolKey, ProcessPool]" = OrderedDict()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._stats_lock = threading.Lock()
        self._requests_served = 0
        self._requests_failed = 0
        self._batches = 0
        self._pools_created = 0
        self._pools_reused = 0
        self._pools_evicted = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "PlanServer":
        """Spawn the serving thread (idempotent; returns ``self``)."""
        if self._stopped:
            raise ServerClosed("plan server already stopped")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="repro-plan-server", daemon=True
            )
            self._started = True
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Shut down: close admissions, drain (or fail) pending work, join
        the serving thread, then stop every pool's workers.

        ``drain=False`` completes still-queued tickets with
        :class:`ServerClosed` instead of serving them.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._queue.close()
        if not drain:
            self._queue.fail_pending()
        if self._thread is not None:
            self._thread.join(timeout)
        # the serving thread has exited: pools are safe to touch from here
        for pool in self._pools.values():
            pool.shutdown()
        self._pools.clear()

    def __enter__(self) -> "PlanServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- client API -------------------------------------------------------------

    def submit(self, request: PlanRequest, policy: Optional[str] = None) -> Ticket:
        """Admit a request; returns immediately with a :class:`Ticket`.

        ``policy`` overrides the queue's saturation default for this call
        (the transport submits with ``policy="reject"`` so a remote client
        gets a busy frame instead of pinning a server thread).
        """
        if not self._started:
            raise ServerClosed("plan server not started (call start())")
        return self._queue.submit(request, policy=policy)

    def request(
        self,
        program: LoopProgram,
        params: Optional[Mapping[str, int]] = None,
        config: Optional[PlanConfig] = None,
        exec_config: Optional[ExecConfig] = None,
        store: Optional[Dict[str, np.ndarray]] = None,
        timeout: Optional[float] = 60.0,
    ) -> PlanResponse:
        """Blocking convenience: submit one request and wait for its response."""
        ticket = self.submit(
            PlanRequest(
                program=program,
                params=dict(params or {}),
                config=config,
                exec_config=exec_config,
                store=store,
            )
        )
        return ticket.result(timeout)

    def stats(self) -> Dict[str, object]:
        """Serving counters plus the live cache/pool occupancy."""
        with self._stats_lock:
            return {
                "requests_served": self._requests_served,
                "requests_failed": self._requests_failed,
                "batches": self._batches,
                "queue": self._queue.stats(),
                "plan_cache": self.plan_cache.stats(),
                "pools": {
                    "size": len(self._pools),
                    "created": self._pools_created,
                    "reused": self._pools_reused,
                    "evicted": self._pools_evicted,
                },
            }

    # -- serving thread ---------------------------------------------------------

    def _serve(self) -> None:
        queue = self._queue
        while True:
            batch = queue.next_batch(timeout=self.poll_interval_s)
            if not batch:
                if queue.closed:
                    return
                continue
            with self._stats_lock:
                self._batches += 1
            for ticket in batch:
                self._serve_one(ticket, len(batch))

    def _serve_one(self, ticket: Ticket, batch_size: int) -> None:
        try:
            response = self._handle(ticket.request, batch_size)
        except BaseException as exc:  # noqa: BLE001 - must reach the client
            with self._stats_lock:
                self._requests_failed += 1
            ticket.set_exception(exc)
        else:
            with self._stats_lock:
                self._requests_served += 1
            ticket.set_result(response)

    def _handle(self, req: PlanRequest, batch_size: int) -> PlanResponse:
        t0 = time.perf_counter()
        hits_before = self.plan_cache.stats()["hits"]
        p = plan(req.program, params=req.params, config=req.config, cache=self.plan_cache)
        cache_hit = self.plan_cache.stats()["hits"] > hits_before
        t_plan = time.perf_counter()

        exec_cfg = req.exec_config or self.default_exec
        pool: Optional[ProcessPool] = None
        pool_reused = False
        if exec_cfg.backend == "process":
            pool, pool_reused = self._pool_for(p, exec_cfg)
        try:
            result = execute(
                req.program,
                p.schedule,
                req.params,
                store=req.store,
                config=exec_cfg,
                pool=pool,
            )
        finally:
            if pool is not None and pool.broken:
                self._evict_pool(pool)
        t_exec = time.perf_counter()

        return PlanResponse(
            request_id=req.request_id,
            strategy=p.strategy,
            scheme=p.scheme,
            backend=result.backend,
            result=result,
            selection=p.selection,
            explain=p.explain(),
            plan_cache_hit=cache_hit,
            pool_reused=pool_reused,
            batch_size=batch_size,
            timings={
                "plan_s": t_plan - t0,
                "execute_s": t_exec - t_plan,
                "total_s": t_exec - t0,
            },
        )

    # -- pool management (serving thread only) ----------------------------------

    def _pool_for(self, p: Plan, cfg: ExecConfig) -> Tuple[ProcessPool, bool]:
        """The persistent pool for this plan's program shape, LRU-cached.

        A broken pool (dead or errored worker) is never reused — it is shut
        down and replaced, so one crashed request cannot poison the next.
        """
        key: PoolKey = (p.fingerprint, cfg.workers)
        pool = self._pools.get(key)
        if pool is not None and pool.broken:
            self._evict_pool(pool)
            pool = None
        if pool is not None:
            self._pools.move_to_end(key)
            with self._stats_lock:
                self._pools_reused += 1
            return pool, True
        pool = ProcessPool(p.program, workers=cfg.workers)
        self._pools[key] = pool
        with self._stats_lock:
            self._pools_created += 1
        while len(self._pools) > self.max_pools:
            _, evicted = self._pools.popitem(last=False)
            evicted.shutdown()
            with self._stats_lock:
                self._pools_evicted += 1
        return pool, False

    def _evict_pool(self, pool: ProcessPool) -> None:
        for key, cached in list(self._pools.items()):
            if cached is pool:
                del self._pools[key]
        try:
            pool.shutdown()
        finally:
            with self._stats_lock:
                self._pools_evicted += 1
