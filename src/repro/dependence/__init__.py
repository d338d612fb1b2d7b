"""repro.dependence — exact data-dependence analysis.

* :mod:`repro.dependence.pair` — reference pairs and their coefficient
  matrices (A, a, B, b) and recurrence form (T, u);
* :mod:`repro.dependence.exact` — the statement domains scanned from the
  loop bounds and the exact dependence pairs for concrete bounds (the
  Omega-equivalent used by the partitioners and validators);
* :mod:`repro.dependence.distance` — the uniform/non-uniform classification
  of §2;
* :mod:`repro.dependence.analysis` — the whole-program driver.
"""

from .analysis import DependenceAnalysis, StatementPairDependence
from .distance import PairClassification, classify_pair, is_uniform_distances
from .exact import enumerate_domain, exact_pair_dependences, reference_addresses
from .pair import ReferencePair

__all__ = [
    "DependenceAnalysis",
    "StatementPairDependence",
    "ReferencePair",
    "exact_pair_dependences",
    "enumerate_domain",
    "reference_addresses",
    "is_uniform_distances",
    "classify_pair",
    "PairClassification",
]
