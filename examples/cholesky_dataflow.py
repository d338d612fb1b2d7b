#!/usr/bin/env python3
"""Example 4: dataflow-partitioning the NASA Cholesky kernel.

The Cholesky kernel has multiple coupled reference pairs and imperfectly
nested loops, so Algorithm 1 takes its second branch: iterative dataflow
partitioning over the statement-level unified iteration space (§3.3/§3.4).
This script builds the kernel, runs the partitioner, reports the number of
partitioning steps (the paper reports 238 at NMAT=250, M=4, N=40, NRHS=3 —
the count is independent of NMAT), validates the schedule, and compares the
schedule against the paper's PDM code (a DOALL over the L dimension).
"""

import argparse

from repro.analysis.experiments import _cholesky_pdm_schedule
from repro.core import PlanConfig, plan
from repro.runtime import compare_schemes
from repro.workloads import cholesky_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmat", type=int, default=2)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--n", type=int, default=24)
    parser.add_argument("--nrhs", type=int, default=1)
    args = parser.parse_args()

    program = cholesky_loop(nmat=args.nmat, m=args.m, n=args.n, nrhs=args.nrhs)
    print(f"Cholesky kernel: NMAT={args.nmat}, M={args.m}, N={args.n}, NRHS={args.nrhs}")
    print(f"statements: {[s.label for s in program.statements()]}")

    result = plan(program, config=ALGORITHM1)
    print(f"\nscheme               : {result.scheme}")
    print(f"partitioning steps   : {result.schedule.num_phases}  (paper: 238 at full size)")
    print(f"statement instances  : {result.schedule.total_work}")
    print(f"widest wavefront     : {result.schedule.max_parallelism}")

    report = result.validate()
    print(f"validation           : {report}")

    pdm = _cholesky_pdm_schedule(program)
    table = compare_schemes({"REC dataflow": result.schedule, "PDM (DOALL over L)": pdm})
    print("\nSimulated speedups (1-4 CPUs):")
    print(table.format())


if __name__ == "__main__":
    main()
