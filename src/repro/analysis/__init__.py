"""repro.analysis — program features, corpus statistics, experiments, reports.

* :mod:`repro.analysis.features` — the selection-facing
  :class:`~repro.analysis.features.ProgramFeatures` summary of one plan
  request (array-native extraction, cached on the plan fingerprint);
* :mod:`repro.analysis.stats` — loop classification (coupled / uniform /
  non-uniform) and corpus aggregation for the §1 statistics;
* :mod:`repro.analysis.experiments` — one ``run_*`` function per paper
  table/figure, shared by the benchmarks, the examples and EXPERIMENTS.md;
* :mod:`repro.analysis.report` — plain-text table formatting.
"""

from .features import (
    ProgramFeatures,
    clear_feature_cache,
    feature_cache_stats,
    program_features,
)
from .experiments import (
    DEFAULT_COST_MODEL,
    DOACROSS_COST_MODEL,
    REC_COST_MODEL,
    run_example1_partition,
    run_example2_partition,
    run_example3_partition,
    run_example4_dataflow,
    run_figure1_dependences,
    run_figure2_chains,
    run_figure3_experiment,
    run_intro_statistics,
    run_theorem1_check,
)
from .report import format_dict, format_speedups, format_table
from .stats import CorpusStatistics, LoopClassification, classify_loop, corpus_statistics

__all__ = [
    "ProgramFeatures",
    "program_features",
    "clear_feature_cache",
    "feature_cache_stats",
    "run_figure1_dependences",
    "run_figure2_chains",
    "run_example1_partition",
    "run_example2_partition",
    "run_example3_partition",
    "run_example4_dataflow",
    "run_figure3_experiment",
    "run_theorem1_check",
    "run_intro_statistics",
    "REC_COST_MODEL",
    "DEFAULT_COST_MODEL",
    "DOACROSS_COST_MODEL",
    "classify_loop",
    "corpus_statistics",
    "CorpusStatistics",
    "LoopClassification",
    "format_table",
    "format_speedups",
    "format_dict",
]
