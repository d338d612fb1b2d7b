"""The plan-server child process of the ``serve-tcp`` workload.

Started by ``serve.py``::

    python3 perfbench/server_child.py --src SRC [--trace --spans FILE]

Prints ``{"port": N}`` on one line once its ``TransportServer`` listens, then
serves until SIGTERM.  With ``--trace``, SIGUSR1 installs the span wrappers
(so the client can measure an untraced window first).  On SIGTERM it reads
its counters, closes the transport (connections drain, worker pools shut
down, shared memory is unlinked) and prints one final JSON line.

It waits on a signal, never on a read of stdin: process-pool workers are
forked from this process, and a forked worker closes its inherited stdin at
start-up, which deadlocks while another thread holds the stdin lock in a
blocking read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading


def _queue_waits_ms(spans) -> list:
    """Admission wait per request: from the end of ``submit`` to the start of
    the serving thread's ``_handle`` for the same request id."""
    admitted = {s["request_id"]: s["end"] for s in spans
                if s["name"] == "serving.submit" and s["end"] is not None}
    return [(s["start"] - admitted[s["request_id"]]) * 1e3 for s in spans
            if s["name"] == "serving.handle" and s["request_id"] in admitted]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the repro package")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="JSON-lines file for the recorded spans")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.serving.server import PlanServer
    from repro.serving.transport import TransportServer, wire
    from tracing import Tracer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    tracer = Tracer()
    if args.trace:
        def start_tracing(*_):
            tracer.wrap(wire, "decode_request", "transport.decode_request",
                        lambda header, payloads: header.get("request_id"))
            tracer.wrap(wire, "response_frame", "transport.response_frame",
                        lambda resp: resp.request_id)
            tracer.wrap(PlanServer, "submit", "serving.submit",
                        lambda self, request, policy=None: request.request_id)
            tracer.wrap(PlanServer, "_handle", "serving.handle",
                        lambda self, req, batch_size: req.request_id)

        signal.signal(signal.SIGUSR1, start_tracing)

    server = TransportServer(max_pools=4).start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    while not stop.wait(0.5):
        pass

    report = {
        "stats": server.stats(),
        "fds": len(os.listdir("/proc/self/fd")),
    }
    server.close()
    tracer.uninstall()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        durations = tracer.durations_ms()
        report["queue_wait_ms"] = _queue_waits_ms(tracer.spans)
        report["server_codec_ms"] = (sum(durations.get("transport.decode_request", ()))
                                     + sum(durations.get("transport.response_frame", ())))
        report["requests_traced"] = len(durations.get("serving.handle", ()))
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(report, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
