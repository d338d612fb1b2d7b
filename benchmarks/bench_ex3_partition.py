"""E5 — Example 3: the imperfectly nested Chen & Yew loop.

Paper artifact: the recurrence partitioning finds an *empty* intermediate set,
so the loop becomes two sequences of DOALL nests (P1 then P3) and
"theoretically can finish in two iteration time".
"""

from repro.analysis.experiments import run_example3_partition

from benchrows import emit, run_once


def test_example3_empty_intermediate_set(benchmark, report):
    result = run_once(benchmark, run_example3_partition, 40)
    report("Example 3 (N=40): statement-level partition", result)
    assert result["P2"] == 0
    assert result["phases"] == 2
    assert result["validated"] is True
