"""E7 — Figure 3, top-left: Example 1 speedups (REC vs PDM vs PL, 1-4 CPUs).

Paper shape: REC is the best scheme at every thread count (super-linear below
3 threads thanks to the simplified subscript arithmetic of the WHILE chains);
PDM and PL trail it.  The simulation reproduces the ordering and the scaling;
absolute Itanium numbers are not claimed (see DESIGN.md §2).
"""

from repro.analysis.experiments import run_figure3_experiment
from repro.analysis.report import format_speedups

from benchrows import emit, run_once


def test_figure3_example1_speedups(benchmark, report):
    result = run_once(benchmark, run_figure3_experiment, "ex1", {"N1": 40, "N2": 120})
    report("Figure 3 / Example 1 speedups", result)
    print(format_speedups(result))
    speedups = result["speedups"]
    # REC wins at every processor count
    for k, p in enumerate(result["processors"]):
        assert result["winner_at"][p] == "REC"
    # REC is super-linear at low thread counts (subscript simplification)
    assert speedups["REC"][1] > 2.0
    # all schemes scale with the processor count
    for values in speedups.values():
        assert values[-1] > 1.5
