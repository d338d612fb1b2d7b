"""TCP client with the in-process submit/result API plus busy-retry.

:class:`TransportClient` mirrors :class:`~repro.serving.PlanServer`'s client
face — ``submit(request) -> ticket`` and the blocking ``request(...)``
convenience — over a socket.  One reader thread demultiplexes incoming
frames to their tickets by ``request_id``, so many threads can share one
connection and responses may arrive in any order.

Back-pressure handling: a ``busy`` frame does **not** fail the ticket.  The
client re-sends the same request after a delay of::

    max(retry_after_ms, base_backoff * 2**attempt)  capped at max_backoff
    + uniform jitter of up to half the delay

— capped exponential backoff seeded by the server's own hint, with jitter so
a herd of rejected clients spreads out instead of re-stampeding in
lock-step.  A rejected submission was never admitted server-side, so a
retry can neither lose nor duplicate a response; after ``max_retries``
rejections the ticket fails with the last :class:`ServerBusy`.

A request's own store is written in place, as ``execute(store=...)`` does.
When the server answers with a footprint (:mod:`~repro.serving.transport.wire`)
only the written cells come back; the read set that comes with the first
such answer is cached process-wide, so later requests for the same program,
parameters and array shapes send only those cells, on any connection.
"""

from __future__ import annotations

import random
import socket
import threading
from typing import Dict, Mapping, Optional

import numpy as np

from ...core.strategy import PlanConfig
from ...ir.program import LoopProgram
from ...runtime.backends import ExecConfig
from ..api import PlanRequest, PlanResponse
from ..policy import ServerBusy
from . import wire
from .wire import FrameKind, ProtocolVersionMismatch, RemoteServingError, WireError

__all__ = ["TransportClient", "WireTicket"]


class WireTicket:
    """Client-side handle on one wire request (the :class:`Ticket` twin)."""

    def __init__(self, request: PlanRequest):
        self.request = request
        self.attempts = 0
        self._done = threading.Event()
        self._response: Optional[PlanResponse] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def _complete(self, response: PlanResponse) -> None:
        self._response = response
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> PlanResponse:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not answered within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class TransportClient:
    """One TCP connection to a :class:`~repro.serving.transport.TransportServer`.

    ``max_retries`` bounds busy-frame re-submissions per request;
    ``rng_seed`` pins the jitter for reproducible tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: Optional[float] = 10.0,
        max_retries: int = 12,
        base_backoff_s: float = 0.01,
        max_backoff_s: float = 1.0,
        rng_seed: Optional[int] = None,
    ):
        self.max_retries = max_retries
        self.base_backoff_s = base_backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = random.Random(rng_seed)
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._send_lock = threading.Lock()
        self._pending: Dict[str, WireTicket] = {}
        self._pending_lock = threading.Lock()
        self._timers: Dict[str, threading.Timer] = {}
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-transport-client", daemon=True
        )
        self._reader.start()

    # -- client API -------------------------------------------------------------

    def submit(self, request: PlanRequest) -> WireTicket:
        """Send one request; returns immediately with a :class:`WireTicket`."""
        if self._closed:
            raise ConnectionError("transport client is closed")
        if self._broken is not None:
            raise ConnectionError(
                f"connection to plan server is down: {self._broken}"
            )
        ticket = WireTicket(request)
        with self._pending_lock:
            self._pending[request.request_id] = ticket
        try:
            self._send(ticket)
        except BaseException:
            with self._pending_lock:
                self._pending.pop(request.request_id, None)
            raise
        return ticket

    def request(
        self,
        program: LoopProgram,
        params: Optional[Mapping[str, int]] = None,
        config: Optional[PlanConfig] = None,
        exec_config: Optional[ExecConfig] = None,
        store: Optional[Dict[str, np.ndarray]] = None,
        timeout: Optional[float] = 60.0,
    ) -> PlanResponse:
        """Blocking convenience — same signature as ``PlanServer.request``."""
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

    def close(self) -> None:
        """Drop the connection; in-flight tickets fail with ConnectionError."""
        if self._closed:
            return
        self._closed = True
        with self._pending_lock:
            timers = list(self._timers.values())
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        # shutdown() unblocks the reader thread (a plain close() of the
        # buffered makefile would deadlock against its in-progress read).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(5.0)
        for closer in (self._wfile.close, self._rfile.close, self._sock.close):
            try:
                closer()
            except (OSError, ValueError):
                pass
        self._fail_all(ConnectionError("transport client closed"))

    def __enter__(self) -> "TransportClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sending / retry --------------------------------------------------------

    def _send(self, ticket: WireTicket) -> None:
        header, payloads = wire.request_frame(ticket.request)
        ticket.attempts += 1
        with self._send_lock:
            wire.write_frame(self._wfile, FrameKind.REQUEST, header, payloads)

    def _retry_later(self, ticket: WireTicket, busy: ServerBusy) -> None:
        if ticket.attempts > self.max_retries:
            self._finish(ticket.request.request_id, error=busy)
            return
        delay = max(
            busy.retry_after_ms / 1000.0,
            self.base_backoff_s * (2 ** (ticket.attempts - 1)),
        )
        delay = min(delay, self.max_backoff_s)
        delay += self._rng.uniform(0, delay / 2)
        timer = threading.Timer(delay, self._resend, args=(ticket,))
        timer.daemon = True
        with self._pending_lock:
            if self._closed:
                return
            self._timers[ticket.request.request_id] = timer
        timer.start()

    def _resend(self, ticket: WireTicket) -> None:
        with self._pending_lock:
            self._timers.pop(ticket.request.request_id, None)
            if self._closed or ticket.request.request_id not in self._pending:
                return
        try:
            self._send(ticket)
        except (OSError, ValueError) as exc:
            self._finish(ticket.request.request_id, error=exc)

    # -- receiving --------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                kind, header, payloads = wire.read_frame(self._rfile)
                self._dispatch(kind, header, payloads)
        except (EOFError, OSError, ValueError):
            self._fail_all(ConnectionError("connection to plan server lost"))
        except ProtocolVersionMismatch as exc:
            self._fail_all(exc)
        except WireError as exc:
            self._fail_all(exc)

    def _dispatch(self, kind: FrameKind, header: Dict, payloads) -> None:
        request_id = header.get("request_id")
        if kind == FrameKind.RESPONSE:
            response = wire.decode_response(header, payloads)
            ticket = self._take(request_id)
            if ticket is None:
                return  # late duplicate/unknown id: drop, never mis-deliver
            try:
                response = self._with_client_store(ticket, response)
            except WireError as exc:
                ticket._fail(exc)
                return
            self._finish_ticket(ticket, response)
            return
        if kind == FrameKind.BUSY:
            with self._pending_lock:
                ticket = self._pending.get(request_id)
            if ticket is not None:
                self._retry_later(ticket, ServerBusy.from_header(header))
            return
        if kind == FrameKind.ERROR:
            error: BaseException
            if header.get("error_type") == "ProtocolVersionMismatch":
                error = RemoteServingError("ProtocolVersionMismatch", header["message"])
            else:
                error = RemoteServingError(
                    header.get("error_type", "RemoteError"), header.get("message", "")
                )
            if request_id is None:
                self._fail_all(error)
                return
            with self._pending_lock:
                ticket = self._pending.get(request_id)
            if ticket is not None and error.error_type == "WireError":
                wire.forget_reads(ticket.request)  # a refused read set
            self._finish(request_id, error=error)
            return
        raise WireError(f"client received unexpected frame kind {kind}")

    def _with_client_store(
        self, ticket: WireTicket, response: PlanResponse
    ) -> PlanResponse:
        """Write results back into the caller's own arrays, like in-process.

        ``execute(store=...)`` mutates the caller's store in place; the wire
        path preserves that contract by writing the returned cells (a
        footprint answer) or arrays into the request's store objects and
        pointing the response at them.  A read set that comes back is
        cached for the next request with this store's key.
        """
        client_store = ticket.request.store
        remote_store = response.result.store
        if client_store is None:
            return response
        if response.writes is not None:
            wire.write_cells(client_store, response.writes, remote_store)
            remote_store.clear()
            remote_store.update(client_store)
        else:
            for name, arr in remote_store.items():
                if name in client_store:
                    client_store[name][...] = arr
                    remote_store[name] = client_store[name]
        if response.reads is not None:
            wire.remember_reads(ticket.request, response.reads)
        return response

    # -- ticket bookkeeping -----------------------------------------------------

    def _take(self, request_id: Optional[str]) -> Optional[WireTicket]:
        with self._pending_lock:
            self._timers.pop(request_id, None)
            return self._pending.pop(request_id, None)

    def _finish(
        self,
        request_id: Optional[str],
        response: Optional[PlanResponse] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        ticket = self._take(request_id)
        if ticket is None:
            return
        if error is not None:
            ticket._fail(error)
        else:
            assert response is not None
            ticket._complete(response)

    @staticmethod
    def _finish_ticket(ticket: WireTicket, response: PlanResponse) -> None:
        ticket._complete(response)

    def _fail_all(self, error: BaseException) -> None:
        self._broken = error  # later submits fail fast instead of timing out
        with self._pending_lock:
            tickets = list(self._pending.values())
            self._pending.clear()
            timers = list(self._timers.values())
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        for ticket in tickets:
            ticket._fail(error)
