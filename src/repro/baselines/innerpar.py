"""Inner-loop parallelization baseline ("PAR" in figure 3, Example 3).

The simplest credible competitor: keep the outermost loop sequential and run
the iterations of the inner loops of each outer iteration in parallel, which
is what a dependence test such as the POWER test licenses for Example 3 (the
outer ``I`` loop carries the dependences, the inner ``J``/``K`` loops do not).
The schedule has one phase (one barrier) per outer-loop iteration; the units
of a phase are the statement instances sharing that outer iteration value.
"Outer iteration" is read in the program's one space, the unified index space
of §3.3, as the prefix ``(s0, i1)`` (just ``(i1,)`` for a one-statement nest)
— so two sibling top-level nests (the Cholesky kernel) keep their program
order instead of interleaving by the value of ``i1``.

The scheme is safe whenever the outermost loop carries every dependence, which
the constructor verifies against the exact relation and reports loudly if
violated (in that case a coarser sequential prefix is used).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..core.schedule import Schedule
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram

__all__ = ["inner_parallel_schedule"]


def inner_parallel_schedule(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
    sequential_depth: int = 1,
) -> Schedule:
    """Outer ``sequential_depth`` loops sequential, everything inside parallel.

    Statement instances are grouped by the unified prefix
    ``(s0, i1, ..., s_{d-1}, i_d)`` of depth ``d = sequential_depth``; groups
    execute in ascending (program) order, one phase each, and within a
    group every instance is its own unit.  A phase is named by the prefix's
    loop indices (``outer(i1,)``) when the position digits are the same for
    every instance, and by the whole prefix otherwise.  If some dependence
    is not carried by the sequential outer levels the offending groups run
    as a single sequential unit so the schedule stays correct (and the loss
    of parallelism is visible instead of silently producing wrong code).
    """
    params = dict(params or {})
    analysis = analysis or DependenceAnalysis(program, params)
    space = analysis.space
    rows = space.unified_array
    prefix = space.index_map.prefix(rows, sequential_depth)
    # Rows are in lexicographic (== sequential) order, so each prefix group
    # is one contiguous run and the groups come in ascending prefix order.
    starts = np.flatnonzero((prefix[1:] != prefix[:-1]).any(axis=1)) + 1
    bounds = [0, *starts.tolist(), len(rows)] if len(rows) else [0]
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))

    # Safety check: every dependence must go from a strictly earlier group to
    # a later one (carried by the outer loops) — otherwise both groups run as
    # one sequential unit.
    conflicting = np.zeros(len(bounds) - 1, dtype=bool)
    if len(space.rd_lo):
        g_src = group[space.rd_lo]
        g_dst = group[space.rd_hi]
        bad = g_src >= g_dst
        conflicting[g_src[bad]] = True
        conflicting[g_dst[bad]] = True

    keys = prefix[bounds[:-1]]
    digits = space.index_map.position_columns(keys)
    if (digits == digits[:1]).all():
        keys = space.index_map.iteration_columns(keys)
    phases = [
        space.phase(f"outer{tuple(key)}", rows[lo:hi], [0, hi - lo] if conflict else None)
        for key, conflict, lo, hi in zip(
            keys.tolist(), conflicting.tolist(), bounds, bounds[1:]
        )
    ]
    return Schedule.for_program(
        f"{program.name}-PAR",
        program,
        phases,
        scheme="inner-parallel",
        sequential_depth=sequential_depth,
    )
