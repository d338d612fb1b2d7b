"""E8 — Figure 3, top-right: Example 2 speedups (REC vs UNIQUE, 1-4 CPUs).

Paper shape: REC outperforms UNIQUE because it generates a shorter sequence of
fully parallel regions (3 partitions vs 5 unique sets, one of them sequential).
"""

from repro.analysis.experiments import run_figure3_experiment
from repro.analysis.report import format_speedups

from benchrows import emit, run_once


def test_figure3_example2_speedups(benchmark, report):
    result = run_once(benchmark, run_figure3_experiment, "ex2", {"N": 60})
    report("Figure 3 / Example 2 speedups", result)
    print(format_speedups(result))
    speedups = result["speedups"]
    for p in result["processors"]:
        assert result["winner_at"][p] == "REC"
    assert result["phases"]["REC"] <= result["phases"]["UNIQUE"]
