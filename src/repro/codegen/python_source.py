"""The ``compiled`` backend's kernel lookup.

The ``compiled`` backend generates no source: every schedule runs on the
lockstep executor (:mod:`repro.runtime.lockstep`).
:func:`ensure_symbolic_kernel` is its one kernel lookup — the schedule's
lowered form, built once and kept on the schedule — with the hit/miss
counters of :func:`kernel_cache_stats`, and :func:`kernel_reason` says why a
program can run on no kernel (the backend then falls back to ``serial``).
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from ..ir.semantics import vectorized

if TYPE_CHECKING:
    import numpy as np

    from ..runtime.lockstep import LoweredSchedule

__all__ = [
    "kernel_reason",
    "ensure_symbolic_kernel",
    "count_kernel_lookup",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


def kernel_reason(program: LoopProgram) -> Optional[str]:
    """``None`` when the compiled kernel can run ``program``'s statements,
    else the reason the ``compiled`` backend records before it falls back to
    ``serial``: a statement whose semantics has no vectorised twin
    (:func:`repro.ir.semantics.vectorized`), or a subscript that is not an
    integer combination of the enclosing loop indices."""
    for ctx in program.statement_contexts():
        if vectorized(ctx.statement.semantics) is None:
            return (
                "custom statement semantics cannot be inlined into a vectorized "
                "kernel"
            )
        for ref in ctx.statement.references():
            if not _integer_subscripts(ref, ctx.index_names):
                return (
                    f"reference {ref.array} has non-integer or parametric "
                    "subscripts"
                )
    return None


def _integer_subscripts(ref, index_names) -> bool:
    return all(
        den == 1 and all(name in index_names for name, _ in terms)
        for terms, _, den in ref.subscript_rows
    )


def ensure_symbolic_kernel(
    program: LoopProgram, schedule: Schedule, store: Mapping[str, np.ndarray]
) -> Tuple[Optional["LoweredSchedule"], str]:
    """The ``compiled`` backend's kernel for ``schedule``: its lowered form
    (:class:`~repro.runtime.lockstep.LoweredSchedule`) for ``program``'s
    statements and ``store``'s array shapes, built at most once per
    schedule.

    Returns ``(lowered, "hit" | "miss")``, or ``(None, reason)`` when
    :func:`kernel_reason` refuses the program.  The reason is checked on a
    miss only: a lowering under the same key ran the same statements.  The
    schedule keeps one lowered form, for the last statements and shapes it
    ran with; a content-equal program (a plan server's freshly decoded
    request, say) hits it too.
    """
    from ..runtime.lockstep import lower_schedule, lowering_key

    key = lowering_key(program.statement_contexts(), store)
    lowered = schedule.lowered.get(key)
    status = "hit"
    if lowered is None:
        reason = kernel_reason(program)
        if reason is not None:
            return None, reason
        lowered = lower_schedule(program, schedule, dict(key[1]))
        schedule.lowered.clear()
        schedule.lowered[key] = lowered
        status = "miss"
    lowered.program = weakref.ref(program)
    count_kernel_lookup(status)
    return lowered, status


_KERNEL_STATS_LOCK = threading.Lock()
_KERNEL_STATS = {"hits": 0, "misses": 0}


def count_kernel_lookup(status: str) -> None:
    """Count one ``"hit"`` or ``"miss"`` of a kernel lookup."""
    with _KERNEL_STATS_LOCK:
        _KERNEL_STATS[{"hit": "hits", "miss": "misses"}[status]] += 1


def kernel_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the compiled kernel's lookups."""
    with _KERNEL_STATS_LOCK:
        return dict(_KERNEL_STATS)


def clear_kernel_cache() -> None:
    """Reset the counters of :func:`kernel_cache_stats`."""
    with _KERNEL_STATS_LOCK:
        _KERNEL_STATS.update(hits=0, misses=0)
