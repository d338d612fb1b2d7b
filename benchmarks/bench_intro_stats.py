"""E12 — §1 statistics: non-uniform / coupled-subscript fractions on a corpus.

The SPECfp95 sources are unavailable; the corpus generator produces loops with
a known composition calibrated to the paper's numbers (45% coupled pairs) and
the classifier's measured fractions are compared against the generation
ground truth (methodology reproduction, see DESIGN.md §2).
"""

from repro.analysis.experiments import run_intro_statistics

from benchrows import emit, run_once


def test_intro_statistics(benchmark, report):
    result = run_once(benchmark, run_intro_statistics, loops=40, seed=20040815)
    report("§1 statistics on the synthetic corpus", result)
    measured = result["measured"]
    generated = result["generated"]
    assert abs(measured["coupled_fraction"] - generated["coupled_fraction"]) < 1e-9
    assert 0.0 < measured["coupled_fraction"] < 1.0
