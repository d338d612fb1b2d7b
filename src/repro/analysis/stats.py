"""Static corpus statistics (the §1 motivation numbers).

The classifier answers, for every loop of a corpus:

* does it contain a *coupled* reference pair (paper terminology: loop indices
  appear in several subscript dimensions / a dimension mixes indices)?
* does it carry any loop-carried dependence at all?
* are its dependences uniform or non-uniform?

Two classification paths are provided and cross-checked by the tests:

* a *static* (matrix-level) path that only inspects the coefficient matrices —
  the kind of classification a compiler front-end performs over a large
  benchmark suite, and
* an *exact* path that enumerates the dependences for concrete bounds and
  applies the definition of §2 directly.

:func:`corpus_statistics` aggregates the per-loop classifications into the
percentages the paper quotes (fraction of loops with non-uniform dependences,
fraction of pairs with coupled subscripts, fraction of coupled pairs that
generate non-uniform dependences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from ..workloads.synthetic import SyntheticLoopSpec

__all__ = ["LoopClassification", "classify_loop", "CorpusStatistics", "corpus_statistics"]


@dataclass(frozen=True)
class LoopClassification:
    """Classification of one loop nest."""

    name: str
    has_coupled_pair: bool
    has_dependences: bool
    uniform_by_matrix: bool
    uniform_exact: Optional[bool]

    @property
    def non_uniform(self) -> bool:
        """Non-uniform by the exact check when available, else by matrices."""
        if self.uniform_exact is not None:
            return self.has_dependences and not self.uniform_exact
        return self.has_dependences and not self.uniform_by_matrix


def classify_loop(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    exact: bool = True,
) -> LoopClassification:
    """Classify one loop (coupled / dependent / uniform / non-uniform)."""
    analysis = DependenceAnalysis(program, dict(params or {}))
    coupled = any(
        p.has_coupled_subscript_dimensions() for p in analysis.reference_pairs
    )
    has_deps = analysis.has_dependences()
    uniform_matrix = all(p.is_uniform() for p in analysis.coupled_pairs) if analysis.coupled_pairs else True
    uniform_exact: Optional[bool] = None
    if exact and program.is_perfect_nest():
        uniform_exact = analysis.is_uniform()
    return LoopClassification(
        name=program.name,
        has_coupled_pair=coupled,
        has_dependences=has_deps,
        uniform_by_matrix=uniform_matrix,
        uniform_exact=uniform_exact,
    )


@dataclass(frozen=True)
class CorpusStatistics:
    """Aggregate corpus percentages (the paper's §1-style numbers)."""

    total_loops: int
    loops_with_coupled_subscripts: int
    loops_with_dependences: int
    loops_with_nonuniform_dependences: int
    coupled_loops_with_nonuniform_dependences: int

    @property
    def coupled_fraction(self) -> float:
        return self.loops_with_coupled_subscripts / self.total_loops if self.total_loops else 0.0

    @property
    def nonuniform_fraction(self) -> float:
        return (
            self.loops_with_nonuniform_dependences / self.total_loops
            if self.total_loops
            else 0.0
        )

    @property
    def nonuniform_given_coupled(self) -> float:
        return (
            self.coupled_loops_with_nonuniform_dependences
            / self.loops_with_coupled_subscripts
            if self.loops_with_coupled_subscripts
            else 0.0
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_loops": self.total_loops,
            "coupled_fraction": round(self.coupled_fraction, 4),
            "nonuniform_fraction": round(self.nonuniform_fraction, 4),
            "nonuniform_given_coupled": round(self.nonuniform_given_coupled, 4),
        }


def corpus_statistics(
    specs: Sequence[SyntheticLoopSpec],
    exact: bool = True,
) -> Tuple[CorpusStatistics, List[LoopClassification]]:
    """Classify every loop of a corpus and aggregate the percentages."""
    classifications = [classify_loop(spec.program, exact=exact) for spec in specs]
    coupled = [c for c in classifications if c.has_coupled_pair]
    nonuniform = [c for c in classifications if c.non_uniform]
    coupled_nonuniform = [c for c in coupled if c.non_uniform]
    with_deps = [c for c in classifications if c.has_dependences]
    stats = CorpusStatistics(
        total_loops=len(classifications),
        loops_with_coupled_subscripts=len(coupled),
        loops_with_dependences=len(with_deps),
        loops_with_nonuniform_dependences=len(nonuniform),
        coupled_loops_with_nonuniform_dependences=len(coupled_nonuniform),
    )
    return stats, classifications
