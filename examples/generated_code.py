#!/usr/bin/env python3
"""Code generation: the paper-style listing and executable generated Python.

Reproduces the *output* side of the paper: the Example-1-style pseudo-Fortran
listing (DOALL nests for the initial/final partitions, the WHILE-loop ``chain``
subroutine for the intermediate set) and the executable Python the package
generates for the same schedule, which is run and checked against the
sequential loop.
"""

import numpy as np

from repro.codegen import (
    compile_function,
    generate_chain_function,
    generate_schedule_runner,
    rec_partition_listing,
)
from repro.core import AffineRecurrence, PlanConfig, plan, symbolic_three_set_partition
from repro.dependence import DependenceAnalysis, symbolic_dependence_relation
from repro.ir.semantics import DEFAULT_SEMANTICS
from repro.runtime import execute_sequential, make_store
from repro.workloads import figure1_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def main() -> None:
    # 1. the paper-style listing from the symbolic partition (rational skeleton)
    program = figure1_loop(10, 10)
    relation = symbolic_dependence_relation(program)
    partition = symbolic_three_set_partition(program.iteration_space(), relation)
    recurrence = AffineRecurrence.from_pair(DependenceAnalysis(program, {}).single_coupled_pair())
    print("=== Example-1-style listing (pseudo-Fortran skeleton) ===")
    print(rec_partition_listing(partition, recurrence, "s(I1,I2)", order=["I1", "I2"]))

    # 2. executable generated Python: the chain walker and the schedule runner
    result = plan(figure1_loop(20, 30), config=ALGORITHM1)
    chain_src = generate_chain_function(result.recurrence, 2)
    print("\n=== generated chain walker (Python) ===")
    print(chain_src)
    follow_chain = compile_function(chain_src, "follow_chain")
    p2 = set(map(tuple, result.partition.p2_array().tolist()))
    starts = map(tuple, result.partition.w_array().tolist())
    chains = [follow_chain(start, lambda p: p in p2) for start in starts]
    print(f"walked {len(chains)} chains, longest {max((len(c) for c in chains), default=0)}")

    program = figure1_loop(8, 9)
    result = plan(program, config=ALGORITHM1)
    runner_src = generate_schedule_runner(program, result.schedule)
    runner = compile_function(runner_src, "run_schedule")
    store = make_store(program)
    semantics = {s.label: (s.semantics or DEFAULT_SEMANTICS) for s in program.statements()}
    runner(store, semantics)
    reference = execute_sequential(program, {})
    match = all(np.array_equal(reference[k], store[k]) for k in reference)
    print(f"\ngenerated schedule runner reproduces the sequential result: {match}")


if __name__ == "__main__":
    main()
