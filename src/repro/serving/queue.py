"""Admission queue of the plan server: tickets, batching, back-pressure.

Clients on any thread :meth:`~AdmissionQueue.submit` a request and get a
:class:`Ticket` back immediately; the single serving thread pulls work with
:meth:`~AdmissionQueue.next_batch`, which blocks for the *first* pending
request and then drains (without further waiting) up to ``max_batch`` more.
Small executions submitted close together therefore ride the same batch —
the server plans and executes them back-to-back against the live worker
pool, so per-request overhead amortises across the batch.

Back-pressure: ``max_pending`` bounds the queue.  On saturation the
configured :mod:`policy <repro.serving.policy>` decides who absorbs the
pressure — ``"block"`` (the in-process default) parks the submitting thread
until the serving loop drains room, ``"reject"`` raises
:class:`~repro.serving.policy.ServerBusy` with a structured retry hint (what
the wire transport sends back to remote clients).  A per-call override lets
one queue serve both faces: ``submit(req, policy="reject")``.

Shutdown contract: :meth:`~AdmissionQueue.close` stops new admissions
(subsequent submits raise :class:`ServerClosed`, and blocked submitters wake
up with it) but leaves already-admitted requests in the queue — the serving
loop keeps calling ``next_batch`` until it returns an empty batch *and*
:attr:`~AdmissionQueue.closed` is set, which is the drain-on-shutdown path.
:meth:`~AdmissionQueue.fail_pending` is the no-drain alternative: every
waiting ticket gets a :class:`ServerClosed`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .api import PlanRequest, PlanResponse
from .policy import ADMISSION_POLICIES, ServerBusy, retry_after_ms_hint

__all__ = ["AdmissionQueue", "ServerBusy", "ServerClosed", "Ticket"]


class ServerClosed(RuntimeError):
    """Raised by submits after close, and into tickets dropped un-served."""


class Ticket:
    """A client's handle on one admitted request.

    The serving thread completes it exactly once with either a
    :class:`~repro.serving.api.PlanResponse` or an exception;
    :meth:`result` blocks the client until then.  The wire transport
    registers :meth:`add_done_callback` instead of blocking, so responses
    stream back per-ticket as the serving thread finishes them.
    """

    def __init__(self, request: PlanRequest):
        self.request = request
        #: ``perf_counter()`` when the queue admitted the request.
        self.admitted_at: Optional[float] = None
        self._done = threading.Event()
        self._response: Optional[PlanResponse] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Ticket"], None]] = []
        self._cb_lock = threading.Lock()

    # -- serving side -----------------------------------------------------------

    def set_result(self, response: PlanResponse) -> None:
        self._response = response
        self._done.set()
        self._run_callbacks()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._done.set()
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # -- client side ------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The serving-side exception, if the request failed (``None`` else)."""
        return self._error

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Run ``callback(self)`` when the ticket completes.

        Runs on the completing (serving) thread — callbacks must be quick
        hand-offs (e.g. enqueue to a writer), never blocking work.  A
        callback added after completion runs immediately on the caller.
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: Optional[float] = None) -> PlanResponse:
        """The response, blocking up to ``timeout`` seconds.

        Re-raises the serving-side exception if the request failed, and
        :class:`TimeoutError` if the server has not answered in time.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not served within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class AdmissionQueue:
    """FIFO admission with bounded batch hand-off to the serving thread.

    ``max_pending=None`` keeps the historical unbounded behaviour; with a
    bound, ``policy`` picks the saturation behaviour (``"block"`` or
    ``"reject"``, see :mod:`repro.serving.policy`).
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_pending: Optional[int] = None,
        policy: str = "block",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; use one of "
                f"{ADMISSION_POLICIES}"
            )
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.policy = policy
        self._pending: Deque[Ticket] = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)  # items to drain
        self._space = threading.Condition(self._lock)  # room to admit
        self._closed = False
        # -- counters (guarded by self._lock) --
        self._high_water = 0
        self._admitted = 0
        self._rejected = 0
        self._batched = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def _full(self) -> bool:
        return (
            self.max_pending is not None and len(self._pending) >= self.max_pending
        )

    def submit(self, request: PlanRequest, policy: Optional[str] = None) -> Ticket:
        """Admit ``request``; raises :class:`ServerClosed` after close.

        On a full bounded queue the effective policy (``policy`` argument,
        else the queue default) applies: ``"block"`` waits for room (waking
        with :class:`ServerClosed` if the queue closes first), ``"reject"``
        raises :class:`~repro.serving.policy.ServerBusy` immediately.
        """
        effective = policy if policy is not None else self.policy
        if effective not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {effective!r}; use one of "
                f"{ADMISSION_POLICIES}"
            )
        ticket = Ticket(request)
        with self._lock:
            while True:
                if self._closed:
                    raise ServerClosed("plan server is shutting down")
                if not self._full():
                    break
                if effective == "reject":
                    self._rejected += 1
                    assert self.max_pending is not None
                    raise ServerBusy(
                        retry_after_ms=retry_after_ms_hint(
                            len(self._pending), self.max_pending, self.max_batch
                        ),
                        depth=len(self._pending),
                        capacity=self.max_pending,
                    )
                self._space.wait()
            ticket.admitted_at = time.perf_counter()
            self._pending.append(ticket)
            self._admitted += 1
            self._high_water = max(self._high_water, len(self._pending))
            self._available.notify()
        return ticket

    def next_batch(self, timeout: Optional[float] = None) -> List[Ticket]:
        """Up to ``max_batch`` tickets; waits ``timeout`` for the first one.

        Returns an empty list on timeout or when closed-and-empty — the
        serving loop treats ``[] and closed`` as the drain-complete signal.
        Draining notifies blocked submitters that room opened up.
        """
        with self._lock:
            if not self._pending and not self._closed:
                self._available.wait(timeout)
            batch: List[Ticket] = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            if batch:
                self._batched += len(batch)
                self._space.notify(len(batch))
            return batch

    def close(self) -> None:
        """Refuse new admissions; pending tickets stay queued for draining.

        Blocked submitters wake and raise :class:`ServerClosed` — their
        requests were never admitted, so drain-on-shutdown does not see them.
        """
        with self._lock:
            self._closed = True
            self._available.notify_all()
            self._space.notify_all()

    def fail_pending(self, error: Optional[BaseException] = None) -> int:
        """Complete every still-queued ticket with ``error`` (no-drain stop).

        Returns how many tickets were failed.  Frees the whole queue, so any
        submitter still blocked on a full queue re-checks immediately (and
        raises :class:`ServerClosed` when the queue was closed first, the
        ``stop(drain=False)`` ordering).
        """
        with self._lock:
            dropped = list(self._pending)
            self._pending.clear()
            self._space.notify_all()
        for ticket in dropped:
            ticket.set_exception(error or ServerClosed("plan server stopped"))
        return len(dropped)

    def stats(self) -> Dict[str, object]:
        """Back-pressure observability: depth, high-water mark and totals."""
        with self._lock:
            return {
                "depth": len(self._pending),
                "capacity": self.max_pending,
                "policy": self.policy,
                "high_water": self._high_water,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "batched": self._batched,
            }
