#!/usr/bin/env python3
"""Quickstart: plan, inspect and validate the paper's running example.

Runs the unified planning facade on the figure-1 loop

    DO I1 = 1, N1
      DO I2 = 1, N2
        a(3*I1+1, 2*I1+I2-1) = a(I1+3, I2+1)

``repro.plan`` walks the strategy fallback chain (Algorithm 1's
recurrence-chain branch wins here), and the returned ``Plan`` carries the
three-set partition, the recurrence chains, the Theorem-1 bound and the
schedule; ``Plan.validate()`` checks that executing the parallel schedule
gives exactly the same array contents as the sequential loop.
"""

import repro
from repro.analysis.report import format_table
from repro.runtime import speedup_curve


def main(n1: int = 30, n2: int = 100) -> None:
    program = repro.workloads.figure1_loop(n1, n2)
    print(program)
    print()

    result = repro.plan(program)
    print(result.explain())
    print()
    counts = result.partition.counts()
    print(
        format_table(
            ["set", "iterations"],
            [[name, counts[name]] for name in ("space", "P1", "P2", "P3", "W")],
        )
    )
    print(f"chains          : {result.summary().get('n_chains', 0)} "
          f"(longest {result.longest_chain()}, Theorem 1 bound {result.chain_length_bound()})")
    print(f"phases          : {result.schedule.num_phases}")
    print(f"ideal speedup   : {result.schedule.ideal_speedup():.1f}")

    print(f"validation      : {result.validate()}")

    # A re-plan of the same nest is served from the plan cache.
    assert repro.plan(repro.workloads.figure1_loop(n1, n2)) is result

    print("\nSimulated speedups (4-CPU SMP cost model):")
    curve = speedup_curve(result.schedule, (1, 2, 3, 4))
    print(format_table(["CPUs", "speedup"], [[p, f"{s:.2f}"] for p, s in curve.items()]))


if __name__ == "__main__":
    main()
