"""repro.codegen — code generation from partitions and schedules.

* :mod:`repro.codegen.bounds` — Fourier–Motzkin loop-bound derivation for
  convex sets (the DOALLCodeGeneration step of Algorithm 1);
* :mod:`repro.codegen.fortran` — pseudo-Fortran/OpenMP listings matching the
  structure of the paper's Example 1/3 output (documentation parity);
* :mod:`repro.codegen.python_source` — executable Python generation for the
  WHILE-loop chain walker and for whole schedules (tested by execution), and
  the ``compiled`` backend's kernel lookup (the schedule lowered for the
  lockstep executor, :mod:`repro.runtime.lockstep`).
"""

from .bounds import BoundExpr, LoopBounds, NestBounds, nest_bounds, render_affine
from .fortran import (
    chain_subroutine,
    doall_nest_listing,
    rec_partition_listing,
    union_listing,
)
from .python_source import (
    compile_function,
    generate_chain_function,
    generate_schedule_runner,
)

__all__ = [
    "nest_bounds",
    "NestBounds",
    "LoopBounds",
    "BoundExpr",
    "render_affine",
    "doall_nest_listing",
    "union_listing",
    "chain_subroutine",
    "rec_partition_listing",
    "generate_chain_function",
    "generate_schedule_runner",
    "compile_function",
]
