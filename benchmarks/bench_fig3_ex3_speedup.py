"""E9 — Figure 3, bottom-left: Example 3 speedups (REC vs PAR vs DOACROSS).

Paper shape: REC performs best because it has the least synchronization (two
DOALL phases); inner-loop parallelization (PAR) pays one barrier per outer
iteration; DOACROSS pays per-iteration synchronization.
"""

from repro.analysis.experiments import run_figure3_experiment
from repro.analysis.report import format_speedups

from benchrows import emit, run_once


def test_figure3_example3_speedups(benchmark, report):
    result = run_once(benchmark, run_figure3_experiment, "ex3", {"N": 40})
    report("Figure 3 / Example 3 speedups", result)
    print(format_speedups(result))
    speedups = result["speedups"]
    for p in result["processors"]:
        assert result["winner_at"][p] == "REC"
    # REC has the fewest phases (least synchronization)
    assert result["phases"]["REC"] <= min(result["phases"]["PAR"], result["phases"]["DOACROSS"])
    # DOACROSS trails PAR and REC at 4 CPUs (most synchronization)
    assert speedups["DOACROSS"][-1] <= speedups["REC"][-1]
