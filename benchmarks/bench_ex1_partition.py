"""E3 — Example 1: REC partition of the figure-1 loop.

Paper artifact: the Example 1 listing (initial / intermediate+WHILE / final
partitions) and the chain-length bound 1 + log3(sqrt(N1^2 + N2^2)) from
Theorem 1 with det(T) = 3.  Run at a scaled-down N1 x N2 (the paper uses
300 x 1000 for timing only); the structural claims are size-independent.
"""

from repro.analysis.experiments import run_example1_partition

from benchrows import emit, run_once


def test_example1_recurrence_partition(benchmark, report):
    result = run_once(benchmark, run_example1_partition, 30, 100)
    report("Example 1 (N1=30, N2=100): REC partition", result)
    assert result["scheme"] == "recurrence-chains"
    assert result["phases"] == 3
    assert result["validated"] is True
    assert result["det_T"] == 3.0
    assert result["longest_chain"] <= result["theorem1_bound"]
