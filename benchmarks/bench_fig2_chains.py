"""E2 — Figure 2: monotonic chain splitting of the 1-D loop a(2I) = a(21-I).

Paper artifact: the chain 6 -> 9 -> 3 -> 15 splits into monotonic chains
6 -> 9, 3 -> 9, 3 -> 15; P1 is the initial iterations {1..6} plus the
independent iterations {7,12,14,16,18,20}; the intermediate set is empty.
"""

from repro.analysis.experiments import run_figure2_chains

from benchrows import emit, run_once


def test_figure2_monotonic_chains(benchmark, report):
    result = run_once(benchmark, run_figure2_chains, 20)
    report("Figure 2 (N=20): partition sets", result)
    assert result["independent"] == [7, 12, 14, 16, 18, 20]
    assert result["initial"] == [1, 2, 3, 4, 5, 6]
    assert result["P2"] == []
    assert {(6, 9), (3, 9), (3, 15)} <= set(result["monotonic_pairs"])
