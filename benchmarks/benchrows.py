"""Helpers shared by the benchmark files: printing and recording bench rows.

The measured artifacts — partition sizes, chain lengths, speedup tables — are
printed with :func:`emit` so they can be compared with the paper and
recorded in EXPERIMENTS.md; pytest-benchmark additionally times the
reproduction itself (:func:`run_once`).

The problem sizes default to scaled-down versions of the paper's parameters so
the exact (enumeration-based) dependence analysis completes in seconds; the
claims being checked (who wins, where the crossovers are, which sets are
empty) are size-stable, and EXPERIMENTS.md records the parameters used.
"""

import json
import os
import platform
import uuid

#: One id per bench session, stamped onto every recorded row so rows written
#: by different runs (and different hosts) stay distinguishable in the
#: perf-trajectory files.
RUN_ID = uuid.uuid4().hex[:12]


def machine_fingerprint():
    """The host facts that make a recorded timing comparable to another."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def stamp_rows(rows):
    """Stamp bench rows with the session ``run_id`` and machine fingerprint."""
    fp = machine_fingerprint()
    return [{**row, "run_id": RUN_ID, "machine": fp} for row in rows]


def emit(title, payload):
    """Print one experiment's reproduced numbers in a stable, greppable form."""
    print(f"\n=== {title} ===")
    print(json.dumps(payload, indent=2, default=str))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive reproduction exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
