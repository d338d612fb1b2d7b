"""E4 — Example 2: REC partition of Ju & Chaudhary's loop.

Paper artifact: at N=12 the intermediate set contains the single iteration
(2, 6) (so the WHILE loop disappears); the REC partition yields 3 fully
parallel phases versus the 5 sequential unique sets of the UNIQUE scheme.
"""

from repro.analysis.experiments import run_example2_partition
from repro.baselines import unique_sets_schedule
from repro.core import PlanConfig, plan
from repro.workloads import example2_loop

from benchrows import emit, run_once


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


def test_example2_partition_n12(benchmark, report):
    result = run_once(benchmark, run_example2_partition, 12)
    report("Example 2 (N=12): REC partition", result)
    assert result["P2_points"] == [(2, 6)]
    assert result["phases"] == 3
    assert result["validated"] is True


def test_example2_rec_fewer_phases_than_unique(report):
    prog = example2_loop(30)
    rec = plan(prog, config=ALGORITHM1, cache=False)
    unique = unique_sets_schedule(prog, {})
    report(
        "Example 2 (N=30): phase counts",
        {"REC": rec.schedule.num_phases, "UNIQUE": unique.num_phases},
    )
    assert rec.schedule.num_phases <= unique.num_phases
