"""E1 — Figure 1: the dependence structure of the running example loop.

Paper artifact: figure 1 shows the 10x10 iteration space with direct
dependences of distances (2,2), (4,4), (6,6).  The benchmark reproduces the
exact dependence set and checks those facts.
"""

from repro.analysis.experiments import run_figure1_dependences

from benchrows import emit, run_once


def test_figure1_dependence_structure(benchmark, report):
    result = run_once(benchmark, run_figure1_dependences, 10, 10)
    report("Figure 1 (N1=N2=10): exact dependences", result)
    assert result["distances"] == [(2, 2), (4, 4), (6, 6)]
    assert result["direct_dependences"] == 18
    assert result["uniform"] is False
    assert result["single_coupled_pair"] is True
