"""Executable Python code generation.

Three generators whose output is *actually executed* by the test-suite:

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
* :func:`generate_symbolic_kernel_source` — the whole-schedule NumPy kernel
  for a *symbolic* plan (:mod:`repro.core.symbolic`): every DOALL phase is a
  strided-grid gather/compute/scatter, the coset-chain phase steps all chains
  in lockstep, the statement semantics run as their vectorised twins
  (:func:`repro.ir.semantics.vectorized`, imported by the module), and every
  bound is a baked-in integer.  Per-point Python dispatch disappears
  entirely.  :func:`ensure_symbolic_kernel` compiles the module once per
  plan fingerprint and caches the function (the hot-loaded-kernel idiom).
  :func:`symbolic_kernel_reason` says why a schedule is not served (the
  ``compiled`` backend then runs the lockstep executor), and
  :func:`kernel_reason` why a program can run on no kernel at all (the
  backend then falls back to ``serial``).

Generated source is returned as a string and compiled with ``compile``/``exec``
into an isolated namespace, so the artifacts can also be written to disk and
inspected — the Python analogue of the paper's generated Fortran.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from textwrap import indent
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.recurrence import AffineRecurrence
from ..core.schedule import Schedule
from ..ir.program import LoopProgram
from ..ir.semantics import iteration_weights, vectorized
from ..isl.affine import AffineExpr

__all__ = [
    "generate_chain_function",
    "compile_function",
    "generate_schedule_runner",
    "generate_symbolic_kernel_source",
    "kernel_reason",
    "symbolic_kernel_reason",
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
# symbolic-plan kernels: the compiled execution path
# ---------------------------------------------------------------------------

def kernel_reason(program: LoopProgram) -> Optional[str]:
    """``None`` when both compiled kernels can run ``program``'s statements,
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


def symbolic_kernel_reason(program: LoopProgram, schedule: Schedule) -> Optional[str]:
    """``None`` when the generated symbolic kernel can run this schedule,
    else why not.  The kernel serves single-statement symbolic plans, which
    it runs without materialising a phase; the ``compiled`` backend runs
    every other schedule through the lockstep executor."""
    from ..core.symbolic import CosetChainPhase, SymbolicDoallPhase

    if schedule.meta.get("scheme") != "symbolic":
        return (
            f"schedule {schedule.name!r} is not a symbolic plan "
            f"(scheme {schedule.meta.get('scheme', 'unknown')!r})"
        )
    for phase in schedule.phases:
        if not isinstance(phase, (SymbolicDoallPhase, CosetChainPhase)):
            return f"phase {phase.name!r} is not a symbolic box/coset phase"
    if len(program.statement_contexts()) != 1:
        return "kernels cover single-statement nests only"
    return kernel_reason(program)


def _render_subscript(expr: AffineExpr, var_map: Mapping[str, str]) -> str:
    """One affine subscript as a NumPy index expression over grid variables."""
    terms: List[str] = []
    for name, coeff in expr.coeffs:
        c = int(coeff)
        if c == 0:
            continue
        v = var_map[name]
        if c == 1:
            terms.append(v)
        elif c == -1:
            terms.append(f"-{v}")
        else:
            terms.append(f"{c} * {v}")
    const = int(expr.constant)
    if const or not terms:
        terms.append(str(const))
    body = " + ".join(terms).replace("+ -", "- ")
    return body if len(terms) == 1 else f"({body})"


def _emit_statement_body(
    lines: List[str],
    stmt,
    index_names: Sequence[str],
    var_map: Mapping[str, str],
    pad: str,
) -> None:
    """Gather / vectorised semantics / scatter for one phase block.  The
    arithmetic is the semantics' NumPy twin, imported as ``_semantics``."""
    for j, ref in enumerate(stmt.reads):
        subs = ", ".join(_render_subscript(s, var_map) for s in ref.subscripts)
        lines.append(f"{pad}_r{j} = store[{ref.array!r}][{subs}]")
    term = " + ".join(
        f"{weight} * {var_map[name]}" for name, weight in iteration_weights(index_names)
    )
    reads = "".join(f"_r{j}, " for j in range(len(stmt.reads)))
    lines.append(f"{pad}_acc = _semantics(({reads}), {term or 0})")
    for ref in stmt.writes:
        subs = ", ".join(_render_subscript(s, var_map) for s in ref.subscripts)
        lines.append(f"{pad}store[{ref.array!r}][{subs}] = _acc")


def generate_symbolic_kernel_source(
    program: LoopProgram,
    schedule: Schedule,
    name: str = "run_kernel",
) -> str:
    """The complete importable kernel module for a symbolic schedule.

    The generated ``{name}(store)`` mutates the arrays in place and returns
    ``[(phase_name, instances_executed, elapsed_seconds), ...]`` — one row
    per phase, the shape the ``compiled`` backend turns into
    :class:`~repro.runtime.backends.PhaseStats`.  All loop bounds, box
    extents and chain-length formulas are baked in as integers; the only
    Python-level loop left is the chain phase's lockstep walk (one iteration
    per chain *step*, not per instance).
    """
    from ..core.symbolic import CosetChainPhase, SymbolicDoallPhase

    reason = symbolic_kernel_reason(program, schedule)
    if reason is not None:
        raise ValueError(f"cannot generate a symbolic kernel: {reason}")
    ctx = program.statement_contexts()[0]
    stmt = ctx.statement
    names = ctx.index_names
    dim = len(names)
    twin = vectorized(stmt.semantics)

    lines: List[str] = [
        '"""Auto-generated symbolic-plan kernel.  Do not edit."""',
        "",
        "import time as _time",
        "",
        "import numpy as np",
        "",
        f"from {twin.__module__} import {twin.__name__} as _semantics",
        "",
        "",
        f"def {name}(store):",
        f'    """Generated from schedule {schedule.name!r} '
        f'({schedule.num_phases} phases, {schedule.total_work} instances)."""',
        "    _stats = []",
    ]

    for pi, phase in enumerate(schedule.phases):
        lines.append(f"    # phase {pi}: {phase.name}")
        lines.append("    _t0 = _time.perf_counter()")
        if isinstance(phase, SymbolicDoallPhase):
            for box in phase.boxes:
                lines.append(
                    f"    # box {' x '.join(f'[{lo}, {hi}]' for lo, hi in box)}"
                )
                for k, (lo, hi) in enumerate(box):
                    shape = ", ".join(
                        "-1" if j == k else "1" for j in range(dim)
                    )
                    reshape = f".reshape({shape})" if dim > 1 else ""
                    lines.append(
                        f"    _i{k} = np.arange({lo}, {hi + 1}, "
                        f"dtype=np.int64){reshape}"
                    )
                var_map = {n: f"_i{k}" for k, n in enumerate(names)}
                _emit_statement_body(lines, stmt, names, var_map, "    ")
            lines.append(
                f"    _stats.append(({phase.name!r}, {phase.work}, "
                "_time.perf_counter() - _t0))"
            )
        elif isinstance(phase, CosetChainPhase):
            step = phase.step
            lines.append(
                f"    # {len(phase)} coset chains, step {step}, "
                f"P2 {' x '.join(f'[{lo}, {hi}]' for lo, hi in phase.box)}"
            )
            blocks = []
            for bi, box in enumerate(phase.start_boxes):
                axes = ", ".join(
                    f"np.arange({lo}, {hi + 1}, dtype=np.int64)"
                    for lo, hi in box
                )
                lines.append(
                    f"    _g{bi} = np.meshgrid({axes}, indexing='ij')"
                )
                lines.append(
                    f"    _w{bi} = np.stack([_a.ravel() for _a in _g{bi}], "
                    "axis=1)"
                )
                blocks.append(f"_w{bi}")
            if len(blocks) == 1:
                lines.append(f"    _starts = {blocks[0]}")
            else:
                lines.append(
                    f"    _starts = np.concatenate([{', '.join(blocks)}], "
                    "axis=0)"
                )
            avail = []
            for k, u_k in enumerate(step):
                if u_k == 0:
                    continue
                lo2, hi2 = phase.box[k]
                if u_k > 0:
                    avail.append(f"({hi2} - _starts[:, {k}]) // {u_k}")
                else:
                    avail.append(f"(_starts[:, {k}] - {lo2}) // {-u_k}")
            if len(avail) == 1:
                lines.append(f"    _lens = {avail[0]} + 1")
            else:
                lines.append(
                    f"    _lens = np.minimum.reduce([{', '.join(avail)}]) + 1"
                )
            lines += [
                f"    if int(_lens.sum()) != {phase.work}:",
                "        raise RuntimeError(",
                "            'coset chains do not tile P2: %d != %d'",
                f"            % (int(_lens.sum()), {phase.work}))",
                "    # longest chains first: the active set per step is a prefix",
                "    _ord = np.argsort(-_lens, kind='stable')",
                "    _starts = _starts[_ord]",
                "    _neg = -_lens[_ord]",
                "    for _t in range(int(_lens.max()) if _lens.size else 0):",
                "        _na = int(np.searchsorted(_neg, -_t, side='left'))",
            ]
            for k, u_k in enumerate(step):
                off = f" + _t * {u_k}" if u_k else ""
                lines.append(f"        _i{k} = _starts[:_na, {k}]{off}")
            var_map = {n: f"_i{k}" for k, n in enumerate(names)}
            _emit_statement_body(lines, stmt, names, var_map, "        ")
            lines.append(
                f"    _stats.append(({phase.name!r}, {phase.work}, "
                "_time.perf_counter() - _t0))"
            )
        lines.append(f"    # ---- barrier after phase {pi} ----")
    lines.append("    return _stats")
    return "\n".join(lines) + "\n"


#: Compiled kernels keyed on ``schedule.meta['kernel_key']`` — the plan
#: fingerprint plus the bound parameters, i.e. one kernel per distinct
#: (program, params) plan, shared across repeated executions.  LRU-bounded
#: (mirroring ``PlanCache``) and lock-guarded: a long-lived server compiles
#: kernels from many threads, and an unbounded dict of generated functions
#: is a slow memory leak over an open-ended request stream.
_KERNEL_CACHE_MAXSIZE = 128
_KERNEL_CACHE: "OrderedDict[str, Callable]" = OrderedDict()
_KERNEL_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE_STATS = {"hits": 0, "misses": 0}


def ensure_symbolic_kernel(
    program: LoopProgram,
    schedule: Schedule,
    name: str = "run_kernel",
) -> Tuple[Callable, str]:
    """The compiled kernel for a symbolic schedule, compiling at most once.

    Returns ``(kernel, "hit" | "miss")``; raises :class:`ValueError` (with
    the :func:`symbolic_kernel_reason`) when the schedule cannot be served
    by a kernel.
    """
    key = schedule.meta.get("kernel_key")
    if not key:
        raise ValueError(
            "cannot generate a symbolic kernel: schedule has no kernel_key "
            "(not built by the symbolic strategy)"
        )
    with _KERNEL_CACHE_LOCK:
        fn = _KERNEL_CACHE.get(key)
        if fn is not None:
            _KERNEL_CACHE.move_to_end(key)
            _KERNEL_CACHE_STATS["hits"] += 1
            return fn, "hit"
    source = generate_symbolic_kernel_source(program, schedule, name=name)
    fn = compile_function(source, name)
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE[key] = fn
        _KERNEL_CACHE.move_to_end(key)
        while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAXSIZE:
            _KERNEL_CACHE.popitem(last=False)
        _KERNEL_CACHE_STATS["misses"] += 1
    return fn, "miss"


def count_kernel_lookup(status: str) -> None:
    """Count one ``"hit"`` or ``"miss"`` of a kernel cached elsewhere: the
    lockstep executor keeps its lowered schedules on the schedules
    themselves, and each build counts as a miss here."""
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE_STATS[{"hit": "hits", "miss": "misses"}[status]] += 1


def kernel_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of both compiled kernels, and the current size of
    the symbolic-kernel cache."""
    with _KERNEL_CACHE_LOCK:
        return {**_KERNEL_CACHE_STATS, "size": len(_KERNEL_CACHE)}


def clear_kernel_cache() -> None:
    with _KERNEL_CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _KERNEL_CACHE_STATS.update(hits=0, misses=0)
