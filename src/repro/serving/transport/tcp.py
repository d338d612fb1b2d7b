"""The TCP face of the plan server: accept, decode, admit, stream back.

Threading model (one box per arrow owner)::

    client sockets --> accept thread --> one reader thread per connection
        reader: read_frame -> decode -> AdmissionQueue.submit(policy="reject")
                 |- full queue  -> BUSY frame (queued to the writer)
                 |- bad frame   -> ERROR frame
                 '- admitted    -> Ticket.add_done_callback(hand to writer)
    serving thread (PlanServer._serve) completes tickets
        '- done-callback enqueues the *ticket* to the connection's writer
    one writer thread per connection: marshal + send frames in order

The serving thread never marshals or touches a socket — its done-callback is
a queue append, so a slow client cannot stall the batch loop.  Admission
uses the ``reject`` policy regardless of the queue's in-process default: a
remote client must receive :class:`~repro.serving.policy.ServerBusy`
structured back-pressure (it retries with backoff, see
:class:`~repro.serving.transport.client.TransportClient`) rather than pin a
reader thread against a full queue.

A connection whose reader and writer have both exited (the client hung up
and every response went out, or the peer vanished) closes its own socket and
leaves the server's connection table, so a long-running server holds one fd
per *live* client, not one per client it ever served.

Shutdown ordering (``close()``): stop accepting; half-close every
connection's read side so no new requests are admitted; wait for in-flight
tickets to finish streaming out (bounded by ``timeout``); close the sockets
and join every thread.  The owned :class:`~repro.serving.PlanServer` (when
this transport created it) is stopped *after* the connections drain, so its
close-then-drain contract serves every admitted request first and pool
shutdown still unlinks every shared-memory segment.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..policy import ServerBusy
from ..queue import ServerClosed, Ticket
from ..server import PlanServer
from . import wire
from .wire import FrameKind, ProtocolVersionMismatch, WireError

__all__ = ["TransportServer"]

#: Writer-queue items: ("frame", kind, header, payloads) | ("ticket", ticket)
_QueueItem = Tuple[Any, ...]


class _Connection:
    """One accepted client: a reader thread, a writer thread, a send queue."""

    def __init__(self, sock: socket.socket, transport: "TransportServer", name: str):
        self.sock = sock
        self.transport = transport
        self.name = name
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")
        self._out: Deque[_QueueItem] = deque()
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._inflight = 0
        self._reader_done = False
        self._dead = False
        self._running = 2  # reader + writer; the last one to exit reaps
        self.reader = threading.Thread(
            target=self._read_loop, name=f"{name}-reader", daemon=True
        )
        self.writer = threading.Thread(
            target=self._write_loop, name=f"{name}-writer", daemon=True
        )

    def start(self) -> None:
        self.reader.start()
        self.writer.start()

    # -- reader -----------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    kind, header, payloads = wire.read_frame(self.rfile)
                except ProtocolVersionMismatch as exc:
                    self._enqueue_error(None, exc)
                    break
                except (EOFError, OSError, ValueError):
                    # Client hung up, mid-frame too (ValueError: makefile
                    # closed under us).
                    break
                except WireError as exc:
                    self._enqueue_error(None, exc)
                    break
                if kind != FrameKind.REQUEST:
                    self._enqueue_error(
                        header.get("request_id"),
                        WireError(f"server expects request frames, got {kind.name}"),
                    )
                    continue
                self._handle_request(header, payloads)
        finally:
            with self._lock:
                self._reader_done = True
                self._has_work.notify_all()
            self._thread_exited()

    def _handle_request(self, header: Dict[str, Any], payloads: List[bytes]) -> None:
        request_id = header.get("request_id")
        try:
            request = wire.decode_request(header, payloads)
        except Exception as exc:  # noqa: BLE001 - decode errors go to the peer
            self._enqueue_error(request_id, exc)
            return
        try:
            ticket = self.transport.plan_server.submit(request, policy="reject")
        except ServerBusy as busy:
            self._enqueue(("frame", FrameKind.BUSY, wire.busy_frame(request.request_id, busy), ()))
            return
        except ServerClosed as exc:
            self._enqueue_error(request.request_id, exc)
            return
        with self._lock:
            self._inflight += 1
        ticket.add_done_callback(self._ticket_done)

    def _ticket_done(self, ticket: Ticket) -> None:
        # Runs on the serving thread: hand off, never marshal or send here.
        self._enqueue(("ticket", ticket))

    # -- writer -----------------------------------------------------------------

    def _enqueue(self, item: _QueueItem) -> None:
        with self._lock:
            self._out.append(item)
            self._has_work.notify_all()

    def _enqueue_error(self, request_id: Optional[str], error: BaseException) -> None:
        self._enqueue(
            ("frame", FrameKind.ERROR, wire.error_frame(request_id, error), ())
        )

    def _write_loop(self) -> None:
        try:
            self._drain()
        finally:
            self._thread_exited()

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._out and not self._dead and not (
                    self._reader_done and self._inflight == 0
                ):
                    self._has_work.wait()
                if self._dead or (
                    not self._out and self._reader_done and self._inflight == 0
                ):
                    return  # drained (or force-closed) and no more can arrive
                item = self._out.popleft()
            try:
                self._write_item(item)
            except (OSError, ValueError):
                # The peer is gone.  Ticket items already balanced their
                # in-flight count in _write_item's finally; drop the backlog
                # (the work completed server-side, nothing references it).
                with self._lock:
                    self._dead = True
                    for queued in self._out:
                        if queued[0] == "ticket":
                            self._inflight -= 1
                    self._out.clear()
                    self._has_work.notify_all()
                self._shutdown()  # wake a reader parked in recv
                return

    def _write_item(self, item: _QueueItem) -> None:
        if item[0] == "frame":
            _, kind, header, payloads = item
            wire.write_frame(self.wfile, kind, header, payloads)
            return
        ticket: Ticket = item[1]
        try:
            if ticket.error is not None:
                header = wire.error_frame(ticket.request.request_id, ticket.error)
                kind, payloads = FrameKind.ERROR, ()
            else:
                header, payloads = wire.response_frame(ticket.result(timeout=0))
                kind = FrameKind.RESPONSE
        except Exception as exc:  # noqa: BLE001 - marshalling failure -> peer
            header = wire.error_frame(ticket.request.request_id, exc)
            kind, payloads = FrameKind.ERROR, ()
        try:
            wire.write_frame(self.wfile, kind, header, payloads)
        finally:
            with self._lock:
                self._inflight -= 1
                self._has_work.notify_all()

    # -- shutdown ---------------------------------------------------------------

    def _thread_exited(self) -> None:
        """Reap the connection once both its reader and writer have exited."""
        with self._lock:
            self._running -= 1
            last = self._running == 0
        if last:
            self._close_files()
            self.transport._reap(self)

    def _shutdown(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _close_files(self) -> None:
        for closer in (self.wfile.close, self.rfile.close, self.sock.close):
            try:
                closer()
            except (OSError, ValueError):
                pass

    def begin_close(self) -> None:
        """Half-close: stop reading new requests, keep streaming responses."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def join(self, timeout: Optional[float]) -> None:
        self.reader.join(timeout)
        self.writer.join(timeout)

    def force_close(self) -> None:
        # shutdown() first: it unblocks a reader parked in recv, which a
        # cross-thread close() of the buffered makefile would deadlock on.
        self._shutdown()
        with self._lock:
            self._dead = True
            self._has_work.notify_all()
        self.reader.join(1.0)
        self.writer.join(1.0)
        self._close_files()


class TransportServer:
    """Serve a :class:`~repro.serving.PlanServer` over TCP.

    Pass an existing (started or not) ``plan_server`` to share it with
    in-process submitters, or omit it and the transport creates and owns one
    from ``**server_kwargs`` (stopped again on :meth:`close`).  ``port=0``
    binds an ephemeral port; read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        plan_server: Optional[PlanServer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 64,
        **server_kwargs: Any,
    ):
        if plan_server is not None and server_kwargs:
            raise ValueError(
                "pass either an existing plan_server or PlanServer kwargs, not both"
            )
        self._owns_server = plan_server is None
        self.plan_server = plan_server or PlanServer(**server_kwargs)
        self.host = host
        self.port = port
        self.backlog = backlog
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[_Connection] = []
        self._conn_lock = threading.Lock()
        self._closing = False
        self._closed = False
        self._conn_seq = 0

    # -- lifecycle --------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — available after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("transport not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "TransportServer":
        if self._closed:
            raise RuntimeError("transport already closed")
        if self._listener is not None:
            return self
        self.plan_server.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backlog)
        # A blocked accept() is not reliably woken by close() from another
        # thread; poll with a short timeout so close() always terminates the
        # accept loop.
        listener.settimeout(0.1)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-transport-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def __enter__(self) -> "TransportServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue  # re-check the closing flag
            except OSError:
                return  # listener closed
            sock.settimeout(None)  # accepted sockets must block normally
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                if self._closing:
                    sock.close()
                    return
                self._conn_seq += 1
                conn = _Connection(
                    sock, self, name=f"repro-transport-conn{self._conn_seq}"
                )
                self._connections.append(conn)
            conn.start()

    def _reap(self, conn: _Connection) -> None:
        with self._conn_lock:
            if conn in self._connections:
                self._connections.remove(conn)

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain and shut down; see the module docstring for the ordering."""
        if self._closed:
            return
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.begin_close()
        for conn in connections:
            conn.join(timeout)  # writers exit once in-flight tickets stream out
        for conn in connections:
            conn.force_close()
        if self._owns_server:
            self.plan_server.stop()
        self._closed = True

    def stats(self) -> Dict[str, object]:
        """Transport occupancy, what the wire layer holds (the interned
        programs, and the footprints cached on the server's plans) and the
        underlying server's counters."""
        from .footprint import footprint_stats

        with self._conn_lock:
            live = sum(1 for c in self._connections if c.reader.is_alive())
            total = self._conn_seq
        return {
            "connections_live": live,
            "connections_total": total,
            "wire": {
                "programs": wire.cache_stats()["interned_programs"],
                "footprints": footprint_stats(self.plan_server.plan_cache.plans()),
            },
            "server": self.plan_server.stats(),
        }
