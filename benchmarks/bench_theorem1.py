"""E11 — Theorem 1: the chain-length bound log_a(L) + 1.

Measured longest recurrence chain vs the bound for several iteration-space
sizes of the Example 1 loop (a = det T = 3).
"""

from repro.analysis.experiments import run_theorem1_check

from benchrows import emit, run_once


def test_theorem1_bound_holds(benchmark, report):
    result = run_once(benchmark, run_theorem1_check, ((10, 10), (20, 30), (40, 50), (60, 80)))
    report("Theorem 1: longest chain vs bound", result)
    assert result["all_hold"] is True
