"""Executable Python code generation, and the ``compiled`` kernel's lookup.

Two generators whose output is *actually executed* by the test-suite:

* :func:`generate_chain_function` — the WHILE-loop chain walker of §3.2 as
  Python source: starting from an iteration it repeatedly applies
  ``i ← i·T + u`` (with explicit integrality checks) while the image stays in
  the intermediate set, and returns the visited chain.  The tests compare the
  compiled function against the units of the P2 phase that
  :func:`repro.core.chains.chain_phase` builds.
* :func:`generate_schedule_runner` — a Python function that replays a
  partitioned schedule over an array store (phases → barriers, each phase's
  instances in unit order) using the program's statement semantics.  The
  tests compare its effect against the interpreting executor and the
  sequential reference.

Generated source is returned as a string and compiled with ``compile``/``exec``
into an isolated namespace, so the artifacts can also be written to disk and
inspected — the Python analogue of the paper's generated Fortran.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.recurrence import AffineRecurrence
from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from ..ir.semantics import vectorized

if TYPE_CHECKING:
    import numpy as np

    from ..runtime.lockstep import LoweredSchedule

__all__ = [
    "generate_chain_function",
    "compile_function",
    "generate_schedule_runner",
    "kernel_reason",
    "ensure_symbolic_kernel",
    "count_kernel_lookup",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


def compile_function(source: str, name: str) -> Callable:
    """Compile generated source and return the named function object."""
    namespace: Dict[str, object] = {}
    exec(compile(source, filename=f"<generated:{name}>", mode="exec"), namespace)
    fn = namespace.get(name)
    if fn is None:
        raise ValueError(f"generated source does not define {name!r}")
    return fn  # type: ignore[return-value]


def generate_chain_function(
    recurrence: AffineRecurrence,
    dim: int,
    name: str = "follow_chain",
) -> str:
    """Python source for the WHILE-loop chain walker.

    The generated function has the signature
    ``follow_chain(start, in_intermediate)`` where ``in_intermediate`` is a
    membership predicate for the intermediate set; it returns the list of
    visited iterations (the monotonic chain), exactly what the paper's
    ``chain`` subroutine executes.  Both the forward map and its inverse are
    emitted because the lexicographically forward direction can instantiate
    either side of the dependence equation (cf. figure 2).
    """
    def emit_map(T, u, fname: str) -> List[str]:
        lines = [f"def {fname}(point):"]
        lines.append('    """Apply the affine recurrence; return None when non-integral."""')
        for col in range(dim):
            terms = []
            for row in range(dim):
                coeff = Fraction(T[row][col])
                if coeff == 0:
                    continue
                terms.append(f"Fraction({coeff.numerator}, {coeff.denominator}) * point[{row}]")
            uc = Fraction(u[col])
            terms.append(f"Fraction({uc.numerator}, {uc.denominator})")
            lines.append(f"    c{col} = " + " + ".join(terms))
        checks = " or ".join(f"c{col}.denominator != 1" for col in range(dim))
        lines.append(f"    if {checks}:")
        lines.append("        return None")
        coords = ", ".join(f"int(c{col})" for col in range(dim))
        lines.append(f"    return ({coords}{',' if dim == 1 else ''})")
        return lines

    fwd = recurrence
    inv = recurrence.inverse()
    source_lines: List[str] = ["from fractions import Fraction", ""]
    source_lines += emit_map(fwd.T.tolist(), list(fwd.u), "_apply_forward")
    source_lines.append("")
    source_lines += emit_map(inv.T.tolist(), list(inv.u), "_apply_inverse")
    source_lines.append("")
    source_lines += [
        f"def {name}(start, in_intermediate):",
        '    """Follow the monotonic recurrence chain from start (start included)."""',
        "    chain = [tuple(start)]",
        "    current = tuple(start)",
        "    while True:",
        "        candidates = []",
        "        for step in (_apply_forward, _apply_inverse):",
        "            nxt = step(current)",
        "            if nxt is not None and nxt > current and in_intermediate(nxt):",
        "                candidates.append(nxt)",
        "        candidates = sorted(set(candidates))",
        "        if not candidates:",
        "            return chain",
        "        if len(candidates) > 1:",
        "            raise RuntimeError('chain bifurcates at %r' % (current,))",
        "        current = candidates[0]",
        "        if current in chain:",
        "            return chain",
        "        chain.append(current)",
    ]
    return "\n".join(source_lines) + "\n"


def generate_schedule_runner(
    program: LoopProgram,
    schedule: Schedule,
    name: str = "run_schedule",
) -> str:
    """Python source that replays a schedule over an array store.

    The generated function takes ``(store, semantics)`` where ``store`` maps
    array names to numpy arrays and ``semantics`` maps statement labels to
    callables ``(store, env, read_values) -> value``; phases are separated by
    comments marking the barrier, mirroring the OpenMP structure.
    """
    contexts = program.statement_contexts()
    lines: List[str] = [
        f"def {name}(store, semantics):",
        f'    """Generated from schedule {schedule.name!r} ({schedule.num_phases} phases)."""',
    ]
    for pi, phase in enumerate(schedule.phases):
        lowered = phase.lower()
        lines.append(f"    # phase {pi}: {phase.name} ({len(lowered)} parallel units)")
        for sid, row in zip(lowered.stmt_ids.tolist(), lowered.iters.tolist()):
            ctx = contexts[sid]
            env = dict(zip(ctx.index_names, row))
            env_items = ", ".join(f"{n!r}: {v}" for n, v in env.items())
            stmt = ctx.statement
            reads = []
            for ref in stmt.reads:
                reads.append(f"int(store[{ref.array!r}][{ref.evaluate(env)!r}])")
            reads_src = "[" + ", ".join(reads) + "]"
            lines.append(
                f"    _v = semantics[{stmt.label!r}](store, {{{env_items}}}, {reads_src})"
            )
            for ref in stmt.writes:
                lines.append(f"    store[{ref.array!r}][{ref.evaluate(env)!r}] = int(_v)")
        lines.append(f"    # ---- barrier after phase {pi} ----")
    lines.append("    return store")
    return "\n".join(lines) + "\n"

# ---------------------------------------------------------------------------
# the compiled kernel's lookup
# ---------------------------------------------------------------------------

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
