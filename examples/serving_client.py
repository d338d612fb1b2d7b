#!/usr/bin/env python3
"""Example: a client of the memory-resident plan server.

Starts one :class:`~repro.serving.PlanServer` with a persistent process
pool, fires repeated requests for the same loop nests from several client
threads, and prints how the warm paths amortise: the first request of each
program pays planning and the worker fork, every repeat rides the plan
cache and the already-running pool.

With ``--tcp`` the same traffic goes over the wire transport instead of
in-process submission: ``--tcp self`` starts a loopback
:class:`~repro.serving.transport.TransportServer` in this process and gives
every client thread its own :class:`~repro.serving.transport.TransportClient`
socket; ``--tcp HOST:PORT`` connects to an already-running transport server
elsewhere.

Every other request carries the client's own seeded random store, which
the server writes into in place (over TCP: only the cells the run wrote
travel back, and later requests send only the cells it reads).

The script doubles as the CI serving smoke check (both modes): it validates
every served result against the sequential reference, snapshots
``/dev/shm`` before and after, and exits non-zero on any mismatch or leaked
shared-memory segment.
"""

import argparse
import contextlib
import glob
import sys
import threading

import numpy as np

from repro.runtime import execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import PlanServer
from repro.serving.transport import TransportClient, TransportServer
from repro.workloads.examples import example3_loop, figure1_loop


def _dev_shm():
    return set(glob.glob("/dev/shm/psm_*"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool workers (default 2)")
    parser.add_argument("--requests", type=int, default=4,
                        help="requests per client thread (default 4)")
    parser.add_argument("--threads", type=int, default=2,
                        help="client threads (default 2)")
    parser.add_argument("--tcp", metavar="HOST:PORT",
                        help="use the wire transport: 'self' starts a "
                             "loopback TransportServer in-process, "
                             "HOST:PORT connects to a running one")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="admission bound for the self-hosted "
                             "transport server (default 64)")
    args = parser.parse_args()

    backend = "process"
    reason = process_unavailable_reason()
    if reason is not None:
        print(f"process backend unavailable ({reason}); using serial")
        backend = "serial"

    programs = [figure1_loop(12, 12), example3_loop(10)]
    references = [execute_sequential(p, {}) for p in programs]
    shm_before = _dev_shm()
    failures = []

    cfg = ExecConfig(backend=backend, workers=args.workers)

    with contextlib.ExitStack() as stack:
        if args.tcp is None:
            server = stack.enter_context(PlanServer(default_exec=cfg))
            submit = [server] * args.threads
            stats_source = server
        else:
            if args.tcp == "self":
                transport = stack.enter_context(
                    TransportServer(
                        default_exec=cfg, max_pending=args.max_pending
                    )
                )
                host, port = transport.address
                print(f"self-hosted transport server on {host}:{port}")
                stats_source = transport
            else:
                host, sep, port_s = args.tcp.partition(":")
                if not sep:
                    parser.error("--tcp expects 'self' or HOST:PORT")
                host, port = host, int(port_s)
                stats_source = None
            # one socket per client thread: exercises concurrent
            # connections, per-connection demultiplexing, and busy-retry
            submit = [
                stack.enter_context(TransportClient(host, port, rng_seed=i))
                for i in range(args.threads)
            ]

        def client(worker_id: int) -> None:
            endpoint = submit[worker_id]
            for i in range(args.requests):
                which = (worker_id + i) % len(programs)
                store = None
                ref = references[which]
                if i % 2:  # the client's own store, written in place
                    store = make_store(programs[which], fill="random",
                                       seed=1000 * worker_id + i)
                    ref = execute_sequential(
                        programs[which], {},
                        store={k: v.copy() for k, v in store.items()},
                    )
                response = endpoint.request(programs[which], store=store, timeout=120)
                for name in ref:
                    served = response.result.store[name]
                    if not np.array_equal(ref[name], served) or (
                        store is not None and served is not store[name]
                    ):
                        failures.append(
                            f"client {worker_id} request {i}: {name!r} diverged"
                        )
                print(
                    f"client {worker_id} req {i}: {programs[which].name:<10} "
                    f"strategy={response.strategy:<22} "
                    f"cache_hit={str(response.plan_cache_hit):<5} "
                    f"pool_reused={str(response.pool_reused):<5} "
                    f"batch={response.batch_size} "
                    f"total={response.timings['total_s'] * 1e3:7.2f} ms"
                )

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(args.threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = stats_source.stats() if stats_source is not None else None

    if stats is not None:
        print(f"\nserver stats: {stats}")

    shm_after = _dev_shm()
    leaked = shm_after - shm_before
    if leaked:
        failures.append(f"leaked shared-memory segments: {sorted(leaked)}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("all results validated; no shared-memory segments leaked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
