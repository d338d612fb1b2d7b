"""repro.dependence — exact and conservative data-dependence analysis.

* :mod:`repro.dependence.pair` — reference pairs and their coefficient
  matrices (A, a, B, b) and recurrence form (T, u);
* :mod:`repro.dependence.exact` — exact dependence pairs for concrete bounds
  (the Omega-equivalent used by the partitioners and validators);
* :mod:`repro.dependence.tests` — conservative GCD and Banerjee tests;
* :mod:`repro.dependence.distance` — distance/direction vectors and the
  uniform/non-uniform classification of §2;
* :mod:`repro.dependence.analysis` — the whole-program driver.
"""

from .analysis import DependenceAnalysis, StatementPairDependence
from .distance import (
    PairClassification,
    classify_pair,
    direction_vectors,
    distance_vectors,
    is_uniform_relation,
    is_uniform_relation_arrays,
    is_uniform_distances,
)
from .exact import enumerate_domain, exact_pair_dependences, reference_addresses
from .pair import ReferencePair
from .tests import DependenceTestResult, banerjee_test, combined_test, gcd_test

__all__ = [
    "DependenceAnalysis",
    "StatementPairDependence",
    "ReferencePair",
    "exact_pair_dependences",
    "enumerate_domain",
    "reference_addresses",
    "gcd_test",
    "banerjee_test",
    "combined_test",
    "DependenceTestResult",
    "distance_vectors",
    "direction_vectors",
    "is_uniform_relation",
    "is_uniform_relation_arrays",
    "is_uniform_distances",
    "classify_pair",
    "PairClassification",
]
