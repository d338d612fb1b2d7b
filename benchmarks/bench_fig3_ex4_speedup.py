"""E10 — Figure 3, bottom-right: Example 4 (Cholesky) speedups (REC dataflow vs PDM).

Paper shape: REC's dataflow partitioning wins below 3 threads (loop-bound
optimization), but the simpler PDM partitioning has better load balance and
overtakes it at higher thread counts.  The simulation reproduces the two
regimes: REC's advantage shrinks (or reverses) as the processor count grows
because its 200+ barrier-separated wavefronts stop scaling, while PDM's single
DOALL phase keeps scaling.
"""

from repro.analysis.experiments import run_figure3_experiment
from repro.analysis.report import format_speedups
from repro.runtime.metrics import SpeedupTable, crossover_points

from benchrows import emit, run_once


def test_figure3_example4_speedups(benchmark, report):
    result = run_once(
        benchmark,
        run_figure3_experiment,
        "ex4",
        {"NMAT": 3, "M": 4, "N": 24, "NRHS": 1},
        processors=(1, 2, 3, 4),
    )
    report("Figure 3 / Example 4 speedups", result)
    print(format_speedups(result))
    speedups = result["speedups"]
    rec, pdm = speedups["REC"], speedups["PDM"]
    # The load-balance effect of the paper: the simpler PDM partitioning wins
    # at the higher thread counts, and REC's relative position only gets worse
    # as the processor count grows (its 200+ barrier-separated wavefronts stop
    # scaling).  The paper's REC advantage below 3 threads (coming from the
    # Omega loop-bound optimization of the generated sequential code) is not
    # modelled — recorded as a deviation in EXPERIMENTS.md.
    assert result["winner_at"][4] == "PDM"
    advantage = [r - p for r, p in zip(rec, pdm)]
    assert advantage[-1] < advantage[0]
    # PDM keeps scaling up to 4 CPUs
    assert pdm[-1] > pdm[0] * 2.5
