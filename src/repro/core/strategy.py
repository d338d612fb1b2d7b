"""The unified planning facade: strategy registry, :class:`PlanConfig`,
executable :class:`Plan` objects and the :func:`plan` entry point.

The paper's experimental story is a *comparison* — recurrence-chain
partitioning (Algorithm 1) against PDM, PL, unique sets, DOACROSS,
minimum-distance tiling and inner-loop parallelization — but historically
each scheme had its own ad-hoc entry point and every consumer hand-rolled
the same try/except-around-:class:`PartitioningNotApplicable` dispatch.
This module puts one compiler-style facade in front of all of them:

``plan(program, params, config=PlanConfig(...)) -> Plan``

* every scheme is a :class:`PartitionStrategy` in a **registry**; selection
  is delegated to a :class:`StrategySelector` (its own registry):
  ``selector="table"`` (the default) ranks the registry against a
  **calibrated workload table** (``selection_table.json``, regenerated by
  ``benchmarks/bench_strategy_selection.py`` from the corpus sweep) keyed by
  the program's :class:`~repro.analysis.features.ProgramFeatures` bucket;
  ``selector="feature_rules"`` ranks by each strategy's
  ``score(features) -> Score`` hook; ``selector="fixed"`` walks the
  historical fallback chain (recurrence-chains → dataflow → pdm → pl →
  unique-sets → doacross → tiling → inner-parallel) bit-identically.
  Whatever the order, the first *applicable* strategy wins and every probe
  failure is recorded — ``Plan.explain()`` reports the features seen, the
  per-strategy scores and the skip reasons, replacing the old hand-rolled
  fallback idiom.  An explicit ``PlanConfig(strategies=...)`` order is
  honoured literally (no re-ranking);
* :class:`PlanConfig` centralises the knobs that used to be scattered as
  keyword arguments: the strategy preference order, the selector, the
  executor's shuffle seed and its default execution config;
* :class:`Plan` is the single result object — schedule, partition/chain/
  statement-space diagnostics, chosen strategy, per-strategy timings — with
  ``.execute(backend=…)``, ``.validate()`` and ``.codegen(target=…)``
  delegating to :mod:`repro.runtime` / :mod:`repro.codegen`;
* an LRU :class:`PlanCache` keyed by ``(program fingerprint, params,
  config)`` makes repeated requests for the same loop nest (the serving
  scenario) return the identical :class:`Plan` without re-analysis.

Execution goes through the same pattern on the runtime side: the
:mod:`repro.runtime.backends` registry of :class:`ExecutionBackend` s
(``serial`` / ``threaded`` / ``process`` / ``simulated``) is reached via
``Plan.execute(backend=..., workers=...)`` or a
:class:`~repro.runtime.backends.ExecConfig` attached to
:class:`PlanConfig`; the shared-memory process pool turns the planned
phase/barrier schedules into wall-clock speedups on multi-core hosts.
Future work — symbolic-partition codegen — plugs in as more
strategies/targets behind the same facade.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..dependence.analysis import DependenceAnalysis, ImperfectNestError
from ..ir.program import LoopProgram
from ..runtime.backends import ExecConfig
from .chains import MonotonicChain
from .partition import ThreeSetPartition
from .partitioner import (
    PartitioningNotApplicable,
    RecurrencePartitionResult,
    dataflow_branch,
    recurrence_branch,
    recurrence_not_applicable_reason,
)
from .recurrence import AffineRecurrence
from .schedule import Schedule
from .statement import StatementLevelSpace

__all__ = [
    "PartitionStrategy",
    "PlanConfig",
    "Plan",
    "PlanCache",
    "PlanningContext",
    "plan",
    "default_plan_cache",
    "program_fingerprint",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "strategy_table",
    "Score",
    "SelectionReport",
    "StrategySelector",
    "register_selector",
    "get_selector",
    "selector_names",
    "load_selection_table",
    "DEFAULT_SELECTOR",
]

#: The selector registry (populated at the bottom of this module); declared
#: here so ``PlanConfig.__post_init__`` can validate against it.
_SELECTORS: "OrderedDict[str, StrategySelector]" = OrderedDict()

#: Name of the selector a bare ``PlanConfig()`` uses.
DEFAULT_SELECTOR = "table"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanConfig:
    """Every knob of the planning pipeline, in one hashable object.

    ``strategies``
        Explicit strategy preference order (names from the registry); the
        first applicable one wins and **no selector re-ranking happens** — a
        pinned order is honoured literally (``("dataflow",)`` forces the
        dataflow branch).  ``None`` means the registry's chain, ranked by the
        configured selector.
    ``selector``
        How the registry chain is ordered when ``strategies`` is ``None``:
        ``"table"`` (default — the calibrated workload table, falling back
        to feature rules for uncalibrated buckets), ``"feature_rules"``
        (rank by each strategy's ``score(features)`` hook) or ``"fixed"``
        (the historical registration-order fallback chain, bit-identical to
        the pre-selector dispatch).
    ``rng_seed``
        Default intra-phase shuffle seed used by :meth:`Plan.execute`
        (``None`` disables shuffling, matching the executors' contract).
    ``exec_config``
        Default :class:`~repro.runtime.backends.ExecConfig` for
        :meth:`Plan.execute`: when set, a bare ``plan.execute()`` runs
        through the execution-backend registry (``serial`` / ``threaded`` /
        ``process`` / ``simulated``) with these knobs.  ``None`` means the
        serial backend shuffled by ``rng_seed``.
    """

    strategies: Optional[Tuple[str, ...]] = None
    selector: str = DEFAULT_SELECTOR
    rng_seed: Optional[int] = 0
    exec_config: Optional[ExecConfig] = None

    def __post_init__(self):
        if _SELECTORS and self.selector not in _SELECTORS:
            raise ValueError(
                f"unknown selector {self.selector!r}; registered: "
                f"{', '.join(_SELECTORS)}"
            )
        if self.strategies is not None:
            object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.exec_config is not None and not isinstance(self.exec_config, ExecConfig):
            raise TypeError("exec_config must be an ExecConfig (or None)")


# ---------------------------------------------------------------------------
# strategy protocol and registry
# ---------------------------------------------------------------------------


@dataclass
class PlanningContext:
    """Everything a strategy may consult: program, params, config, analysis.

    One :class:`~repro.dependence.analysis.DependenceAnalysis` is shared
    across the whole fallback chain, so a
    skipped strategy's applicability probe never re-runs the exact analyser
    for the next candidate.
    """

    program: LoopProgram
    params: Dict[str, int]
    config: PlanConfig
    analysis: DependenceAnalysis
    #: The program fingerprint ``plan()`` already computed for its cache key;
    #: lets selectors hit the feature cache without re-hashing the program.
    fingerprint: str = ""

    @property
    def is_perfect_nest(self) -> bool:
        contexts = self.program.statement_contexts()
        names = contexts[0].index_names if contexts else ()
        return all(ctx.index_names == names for ctx in contexts)


@dataclass(frozen=True)
class StrategyBuild:
    """What a strategy hands back to the facade: the schedule plus extras."""

    schedule: Schedule
    partition: Optional[object] = None  # ThreeSetPartition / PDMPartition / ...
    chains: Tuple[MonotonicChain, ...] = ()
    recurrence: Optional[AffineRecurrence] = None
    statement_space: Optional[StatementLevelSpace] = None
    rec_result: Optional[RecurrencePartitionResult] = None


@dataclass(frozen=True)
class Score:
    """A strategy's self-assessed fit for a program's features.

    ``value`` is in ``[0, 1]`` by convention (higher = better fit);
    ``reason`` is the human-readable justification surfaced by
    ``Plan.explain()``.  Scores *rank* applicable strategies — they never
    override the hard ``applicability`` gates.
    """

    value: float
    reason: str = ""


def _default_score(features) -> Score:
    return Score(0.5, "no feature model registered for this strategy")


@dataclass(frozen=True)
class PartitionStrategy:
    """One partitioning scheme behind the facade.

    ``applicability(ctx)`` returns ``None`` when the strategy applies or a
    human-readable reason when it does not (surfaced by ``Plan.explain()``);
    ``builder(ctx)`` produces the :class:`StrategyBuild` and is only called
    after the applicability probe passed; ``score(features)`` is the
    applicability-*strength* hook — given a program's
    :class:`~repro.analysis.features.ProgramFeatures` it returns a
    :class:`Score` that the ``feature_rules`` selector ranks strategies by
    (and that the ``table`` selector falls back to for uncalibrated
    feature buckets).
    """

    name: str
    scheme: str
    description: str
    applicability: Callable[[PlanningContext], Optional[str]]
    builder: Callable[[PlanningContext], StrategyBuild]
    score: Callable[..., Score] = _default_score


_REGISTRY: "OrderedDict[str, PartitionStrategy]" = OrderedDict()


def register_strategy(strategy: PartitionStrategy) -> PartitionStrategy:
    """Add a strategy to the registry; registration order is the default
    fallback order.  Re-registering a name replaces the entry in place (so a
    plugin can refine a built-in without reordering the chain)."""
    _REGISTRY[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> PartitionStrategy:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names in default fallback order."""
    return tuple(_REGISTRY)


def strategy_table() -> List[Dict[str, str]]:
    """The registry as rows (name / scheme / description) for docs and reports."""
    return [
        {"name": s.name, "scheme": s.scheme, "description": s.description}
        for s in _REGISTRY.values()
    ]


# ---------------------------------------------------------------------------
# built-in strategies
# ---------------------------------------------------------------------------


def _rec_applicability(ctx: PlanningContext) -> Optional[str]:
    return recurrence_not_applicable_reason(ctx.analysis)


def _rec_builder(ctx: PlanningContext) -> StrategyBuild:
    result = recurrence_branch(ctx.program, ctx.params, ctx.analysis)
    return StrategyBuild(
        schedule=result.schedule,
        partition=result.partition,
        chains=result.chains,
        recurrence=result.recurrence,
        statement_space=result.statement_space,
        rec_result=result,
    )


def _dataflow_builder(ctx: PlanningContext) -> StrategyBuild:
    result = dataflow_branch(ctx.program, ctx.params, ctx.analysis)
    return StrategyBuild(
        schedule=result.schedule,
        statement_space=result.statement_space,
        rec_result=result,
    )


def _always_applicable(ctx: PlanningContext) -> Optional[str]:
    return None


def _perfect_nest_only(ctx: PlanningContext) -> Optional[str]:
    if not ctx.is_perfect_nest:
        return "requires a perfect nest (single shared iteration space)"
    return None


def _pdm_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.pdm import pdm_partition, pdm_schedule

    schedule = pdm_schedule(ctx.program, ctx.params, ctx.analysis)
    partition = None
    if ctx.is_perfect_nest:
        partition = pdm_partition(
            ctx.analysis.iteration_space_points, ctx.analysis.iteration_dependences
        )
    return StrategyBuild(schedule=schedule, partition=partition)


def _pl_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.pl import pl_partition, pl_schedule

    schedule = pl_schedule(ctx.program, ctx.params, ctx.analysis)
    partition = pl_partition(
        ctx.analysis.iteration_space_points, ctx.analysis.iteration_dependences
    )
    return StrategyBuild(schedule=schedule, partition=partition)


def _unique_sets_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.unique_sets import unique_sets_partition, unique_sets_schedule

    schedule = unique_sets_schedule(ctx.program, ctx.params, ctx.analysis)
    partition = unique_sets_partition(
        ctx.analysis.iteration_space_points, ctx.analysis.iteration_dependences
    )
    return StrategyBuild(schedule=schedule, partition=partition)


def _doacross_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.doacross import doacross_schedule

    return StrategyBuild(
        schedule=doacross_schedule(ctx.program, ctx.params, ctx.analysis)
    )


def _tiling_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.tiling import tiling_schedule

    return StrategyBuild(
        schedule=tiling_schedule(ctx.program, ctx.params, ctx.analysis)
    )


def _innerpar_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.innerpar import inner_parallel_schedule

    return StrategyBuild(
        schedule=inner_parallel_schedule(ctx.program, ctx.params, ctx.analysis)
    )


def _symbolic_applicability(ctx: PlanningContext) -> Optional[str]:
    from .symbolic import symbolic_not_applicable_reason

    return symbolic_not_applicable_reason(ctx.program, ctx.params, ctx.analysis)


def _symbolic_builder(ctx: PlanningContext) -> StrategyBuild:
    from .symbolic import build_symbolic_schedule

    return StrategyBuild(
        schedule=build_symbolic_schedule(
            ctx.program, ctx.params, ctx.analysis, fingerprint=ctx.fingerprint
        )
    )


# -- feature-rule scorers ----------------------------------------------------
#
# Heuristic applicability-strength models, one per built-in strategy.  They
# encode the paper's qualitative claims (REC dominates the single non-uniform
# coupled pair case; uniformization schemes want uniform distances; tiling
# wants uniform rectangular nests) and exist so selection degrades gracefully
# for programs outside the calibrated table's buckets.  The calibrated table
# — measured, not guessed — takes precedence wherever it has data.


def _score_recurrence(f) -> Score:
    if not f.perfect_nest:
        return Score(0.05, "imperfect nest: the Lemma 1 gate cannot pass")
    if not f.single_coupled_pair:
        return Score(0.1, "needs exactly one coupled pair with dependences")
    if f.uniform is False:
        return Score(0.95, "one non-uniform coupled pair: the REC home ground")
    return Score(0.7, "one uniform coupled pair: chains degenerate to strides")


def _score_dataflow(f) -> Score:
    if not f.perfect_nest:
        return Score(0.85, "imperfect nest: statement-level wavefronts apply directly")
    if f.n_dependences == 0:
        return Score(0.8, "no dependences: a single DOALL wavefront")
    width = f.wavefront_width if f.wavefront_width is not None else 1.0
    if width >= 8.0:
        return Score(0.6, f"wide wavefronts (mean width ~{width:.0f})")
    return Score(0.3, f"narrow wavefronts (mean width ~{width:.1f}): barrier-bound")


def _score_pdm(f) -> Score:
    if not f.perfect_nest:
        return Score(0.02, "statement-level PDM is conservative on imperfect nests")
    if f.uniform:
        return Score(0.5, "uniform distances: the pseudo-distance matrix is exact")
    return Score(0.35, "non-uniform distances: PDM over-synchronizes")


def _score_pl(f) -> Score:
    if not f.perfect_nest:
        return Score(0.02, "requires a perfect nest")
    if f.coupled_subscripts:
        return Score(0.3, "coupled subscripts: direction vectors lose precision")
    return Score(0.4, "separable subscripts: labeling is exact")


def _score_unique_sets(f) -> Score:
    if not f.perfect_nest:
        return Score(0.02, "requires a perfect nest")
    return Score(0.25, "unique-set splitting rarely beats three-set + chains")


def _score_doacross(f) -> Score:
    if not f.perfect_nest:
        return Score(0.1, "DOACROSS on an imperfect nest synchronizes per statement")
    if f.uniform:
        return Score(0.4, "uniform distances: tight BDV synchronization")
    return Score(0.25, "non-uniform distances: conservative BDV delays")


def _score_tiling(f) -> Score:
    if f.perfect_nest and f.uniform and f.rectangular:
        return Score(0.55, "uniform rectangular nest: minimum-distance tiles exactly")
    return Score(0.1, "tiling needs uniform distances on a rectangular space")


def _score_innerpar(f) -> Score:
    if f.nest_depth >= 2:
        return Score(0.2, "inner DOALL exists but the outer loop stays sequential")
    return Score(0.05, "depth-1 nest: nothing inner to parallelize")


def _score_symbolic(f) -> Score:
    if not f.perfect_nest:
        return Score(0.02, "requires a single-statement perfect nest")
    if not f.rectangular:
        return Score(0.05, "requires a rectangular iteration space")
    if not (f.uniform and f.single_coupled_pair):
        return Score(0.1, "requires exactly one uniform dependence distance")
    return Score(
        0.9,
        "rectangular + single uniform distance: O(1) closed-form plan "
        "and a compiled vectorized kernel",
    )


register_strategy(PartitionStrategy(
    name="recurrence-chains",
    scheme="recurrence-chains",
    description="Algorithm 1, Lemma 1 branch: P1 / monotonic WHILE chains / P3",
    applicability=_rec_applicability,
    builder=_rec_builder,
    score=_score_recurrence,
))
register_strategy(PartitionStrategy(
    name="dataflow",
    scheme="dataflow",
    description="Algorithm 1, iterative dataflow branch: one DOALL wavefront per peel",
    applicability=_always_applicable,
    builder=_dataflow_builder,
    score=_score_dataflow,
))
register_strategy(PartitionStrategy(
    name="pdm",
    scheme="pdm",
    description="pseudo-distance-matrix uniformization (Yu & D'Hollander '00)",
    applicability=_always_applicable,
    builder=_pdm_builder,
    score=_score_pdm,
))
register_strategy(PartitionStrategy(
    name="pl",
    scheme="pl",
    description="partitioning & labeling / direction-vector uniformization",
    applicability=_perfect_nest_only,
    builder=_pl_builder,
    score=_score_pl,
))
register_strategy(PartitionStrategy(
    name="unique-sets",
    scheme="unique-sets",
    description="unique-sets oriented partitioning (Ju & Chaudhary '97)",
    applicability=_perfect_nest_only,
    builder=_unique_sets_builder,
    score=_score_unique_sets,
))
register_strategy(PartitionStrategy(
    name="doacross",
    scheme="doacross",
    description="BDV-synchronized DOACROSS wavefronts (Tzen & Ni '93)",
    applicability=_always_applicable,
    builder=_doacross_builder,
    score=_score_doacross,
))
register_strategy(PartitionStrategy(
    name="tiling",
    scheme="min-distance-tiling",
    description="minimum-distance tiling (Punyamurtula et al. '99)",
    applicability=_perfect_nest_only,
    builder=_tiling_builder,
    score=_score_tiling,
))
register_strategy(PartitionStrategy(
    name="inner-parallel",
    scheme="inner-parallel",
    description="outer loop sequential, inner iterations parallel (PAR)",
    applicability=_always_applicable,
    builder=_innerpar_builder,
    score=_score_innerpar,
))
register_strategy(PartitionStrategy(
    name="symbolic",
    scheme="symbolic",
    description="closed-form three-set partition, O(1)-in-N plan + compiled kernel",
    applicability=_symbolic_applicability,
    builder=_symbolic_builder,
    score=_score_symbolic,
))


# ---------------------------------------------------------------------------
# strategy selectors: how the registry chain is ordered
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionReport:
    """What the selector saw and decided — attached to every :class:`Plan`.

    ``order`` is the ranked chain actually walked; ``scores`` are
    ``(strategy, value, reason)`` triples in ranked order (empty for the
    fixed selector and for pinned/single-strategy orders, which skip feature
    extraction entirely); ``features`` is the
    :class:`~repro.analysis.features.ProgramFeatures` record when one was
    extracted; ``bucket`` is its calibration-table key; ``source`` says how
    the order was produced.
    """

    selector: str
    order: Tuple[str, ...]
    scores: Tuple[Tuple[str, float, str], ...] = ()
    features: Optional[object] = None
    bucket: Optional[str] = None
    source: str = ""


@dataclass(frozen=True)
class StrategySelector:
    """One ranking policy behind ``PlanConfig(selector=...)``.

    ``rank(ctx, order)`` returns ``(ranked order, SelectionReport)``; it may
    only reorder ``order``, never add or drop names — hard applicability
    gates stay with the strategies themselves.
    """

    name: str
    description: str
    rank: Callable[[PlanningContext, Tuple[str, ...]],
                   Tuple[Tuple[str, ...], SelectionReport]]


def register_selector(selector: StrategySelector) -> StrategySelector:
    _SELECTORS[selector.name] = selector
    return selector


def get_selector(name: str) -> StrategySelector:
    try:
        return _SELECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown selector {name!r}; registered: {', '.join(_SELECTORS)}"
        ) from None


def selector_names() -> Tuple[str, ...]:
    return tuple(_SELECTORS)


def _ctx_features(ctx: PlanningContext):
    """The planning context's ProgramFeatures (shared analysis, cached on the
    plan fingerprint).  Imported lazily: ``repro.analysis`` imports this
    module at package-init time."""
    from ..analysis.features import program_features

    return program_features(
        ctx.program,
        ctx.params,
        analysis=ctx.analysis,
        fingerprint=ctx.fingerprint or None,
    )


def _rank_fixed(ctx, order):
    return tuple(order), SelectionReport(
        selector="fixed", order=tuple(order), source="registration-order chain"
    )


def _rank_feature_rules(ctx, order):
    features = _ctx_features(ctx)
    scored = []
    for name in order:
        s = get_strategy(name).score(features)
        scored.append((name, round(float(s.value), 4), s.reason))
    # Stable sort: ties keep the registry/registration order.
    ranked_rows = sorted(scored, key=lambda row: -row[1])
    ranked = tuple(name for name, _, _ in ranked_rows)
    return ranked, SelectionReport(
        selector="feature_rules",
        order=ranked,
        scores=tuple(ranked_rows),
        features=features,
        bucket=features.bucket(),
        source="per-strategy feature scores",
    )


#: Path of the checked-in calibrated strategy-selection table (regenerated by
#: ``benchmarks/bench_strategy_selection.py``, see REPRO_WRITE_SELECTION_TABLE).
SELECTION_TABLE_PATH = Path(__file__).with_name("selection_table.json")

_SELECTION_TABLE_CACHE: Dict[str, object] = {}
_SELECTION_TABLE_LOCK = threading.Lock()


def load_selection_table(path: Optional[Path] = None) -> Dict[str, object]:
    """The calibrated bucket → ranked-strategies table (cached per path).

    Shape: ``{"version", "processors", "corpus": {...}, "buckets": {bucket:
    [{"strategy", "rel_time"}, ...]}, "families": {family: bucket}}`` where
    ``rel_time`` is the family-averaged simulated time relative to the
    bucket's best strategy (1.0 = fastest).  A missing file yields an empty
    table — the ``table`` selector then behaves like ``feature_rules``.
    """
    key = str(path or SELECTION_TABLE_PATH)
    with _SELECTION_TABLE_LOCK:
        if key not in _SELECTION_TABLE_CACHE:
            target = Path(key)
            if target.exists():
                _SELECTION_TABLE_CACHE[key] = json.loads(target.read_text())
            else:
                _SELECTION_TABLE_CACHE[key] = {"version": 0, "buckets": {}, "families": {}}
        return _SELECTION_TABLE_CACHE[key]


def clear_selection_table_cache() -> None:
    with _SELECTION_TABLE_LOCK:
        _SELECTION_TABLE_CACHE.clear()


def _rank_table(ctx, order):
    features = _ctx_features(ctx)
    bucket = features.bucket()
    table = load_selection_table()
    entries = table.get("buckets", {}).get(bucket)
    if not entries:
        ranked, report = _rank_feature_rules(ctx, order)
        return ranked, replace(
            report,
            selector="table",
            bucket=bucket,
            source="bucket not calibrated; feature-rule fallback",
        )
    calibrated = [e["strategy"] for e in entries if e["strategy"] in order]
    rest = [name for name in order if name not in calibrated]
    ranked = tuple(calibrated + rest)
    scores = tuple(
        (
            e["strategy"],
            round(1.0 / max(float(e["rel_time"]), 1e-9), 4),
            f"calibrated: {e['rel_time']:.2f}x the bucket's best simulated time",
        )
        for e in entries
        if e["strategy"] in order
    ) + tuple((name, 0.0, "not calibrated in this bucket") for name in rest)
    return ranked, SelectionReport(
        selector="table",
        order=ranked,
        scores=scores,
        features=features,
        bucket=bucket,
        source="calibrated workload table",
    )


register_selector(StrategySelector(
    name="fixed",
    description="the historical registration-order fallback chain",
    rank=_rank_fixed,
))
register_selector(StrategySelector(
    name="feature_rules",
    description="rank by each strategy's score(features) hook",
    rank=_rank_feature_rules,
))
register_selector(StrategySelector(
    name="table",
    description="rank by the calibrated corpus win table (feature-rule fallback)",
    rank=_rank_table,
))


# ---------------------------------------------------------------------------
# the Plan result object
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Plan:
    """The single result object of :func:`plan` — identity-compared so a
    cache hit is observable as ``plan(...) is plan(...)``."""

    program: LoopProgram
    params: Dict[str, int]
    config: PlanConfig
    strategy: str
    scheme: str
    schedule: Schedule
    analysis: DependenceAnalysis
    partition: Optional[object] = None
    chains: Tuple[MonotonicChain, ...] = ()
    recurrence: Optional[AffineRecurrence] = None
    statement_space: Optional[StatementLevelSpace] = None
    skipped: Tuple[Tuple[str, str], ...] = ()
    timings: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    rec_result: Optional[RecurrencePartitionResult] = None
    selection: Optional[SelectionReport] = None

    # -- structural views -------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return self.schedule.num_phases

    def longest_chain(self) -> int:
        return max((len(c) for c in self.chains), default=0)

    def chain_length_bound(self) -> Optional[int]:
        """Theorem 1 bound (recurrence-chain plans only; ``None`` otherwise)."""
        if self.rec_result is None:
            return None
        return self.rec_result.chain_length_bound()

    def summary(self) -> Dict[str, object]:
        """Headline facts; for Algorithm 1 plans this is a superset of the
        historical ``RecurrencePartitionResult.summary()`` dictionary.
        Statement-level plans (§3.3) additionally report the unified space:
        instance count, unified vector width, and dependence count."""
        if self.rec_result is not None:
            info = self.rec_result.summary()
        else:
            info = {
                "program": self.program.name,
                "scheme": self.scheme,
                **self.schedule.summary(),
            }
        info["strategy"] = self.strategy
        if self.statement_space is not None:
            info["n_statement_instances"] = len(self.statement_space)
            info["unified_width"] = self.statement_space.width
            info["n_unified_dependences"] = len(self.statement_space.rd)
        return info

    def explain(self) -> str:
        """Why this strategy was chosen, which were skipped and why, and the
        per-strategy planning times — the replacement for hand-rolled
        try/except dispatch around :class:`PartitioningNotApplicable`."""
        lines = [f"plan for {self.program.name!r} (params {self.params or '{}'}):"]
        if self.selection is not None and self.selection.scores:
            lines.append(
                f"  selector {self.selection.selector!r} "
                f"({self.selection.source})"
            )
            if self.selection.features is not None:
                lines.append(f"  features: {self.selection.features.describe()}")
            if self.selection.bucket is not None:
                lines.append(f"  bucket: {self.selection.bucket}")
            for name, value, reason in self.selection.scores:
                lines.append(f"  - score {name} {value:.2f}: {reason}")
        for name, reason in self.skipped:
            lines.append(f"  - skipped {name}: {reason}")
        took = self.timings.get(self.strategy)
        suffix = f" in {took * 1e3:.2f} ms" if took is not None else ""
        lines.append(f"  - selected {self.strategy} (scheme {self.scheme!r}){suffix}")
        hint = self.schedule.meta.get("backend_hint")
        if hint:
            lines.append(f"  backend: {hint}")
        lines.append(
            f"  schedule: {self.schedule.num_phases} phases, "
            f"{self.schedule.total_work} instances, "
            f"max parallelism {self.schedule.max_parallelism}"
        )
        return "\n".join(lines)

    # -- delegation to runtime / codegen ---------------------------------------

    _UNSET = object()

    def execute(
        self,
        store=None,
        seed=_UNSET,
        rng=None,
        lock_free: bool = True,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        """Run the plan's schedule over concrete arrays through the
        execution-backend registry (:mod:`repro.runtime.backends`); returns
        the unified :class:`~repro.runtime.backends.RunResult`.

        The defaults come from ``config.exec_config`` — or, when that is
        ``None``, the ``serial`` backend shuffled by ``config.rng_seed``.
        ``backend=`` / ``workers=`` / ``seed=`` / ``lock_free=False``
        override them per call: ``plan(...).execute(backend="process",
        workers=4)`` is the multi-core path.  Pass ``seed=None`` (and no
        ``rng``) to disable intra-phase shuffling.
        """
        from ..runtime.backends import execute

        base = self.config.exec_config
        if base is None:
            base = ExecConfig(seed=self.config.rng_seed)
        overrides = {}
        if backend is not None:
            overrides["backend"] = backend
        if workers is not None:
            overrides["workers"] = workers
        if seed is not Plan._UNSET:
            overrides["seed"] = seed
        if not lock_free:
            overrides["lock_free"] = False
        return execute(
            self.program, self.schedule, self.params, store=store,
            config=base, rng=rng, **overrides,
        )

    def validate(self, seeds: Sequence[int] = (0, 1, 2)):
        """Validate coverage, dependence safety and exact semantics.

        The dependence relation is picked to match the schedule's level:
        statement-level plans check against the unified-space relation,
        iteration-level plans against the combined Rd; imperfect-nest plans
        without a statement space skip the relation check (coverage and
        semantics still run).
        """
        from ..dependence.analysis import ImperfectNestError
        from ..runtime.executor import validate_schedule

        if self.statement_space is not None:
            deps = self.statement_space.rd
        else:
            try:
                deps = self.analysis.iteration_dependences
            except ImperfectNestError:
                deps = None
        return validate_schedule(
            self.program, self.schedule, self.params, dependences=deps, seeds=seeds
        )

    def codegen(self, target: str = "python") -> str:
        """Generate source for the plan.

        ``target="python"`` emits the executable schedule runner
        (:func:`repro.codegen.python_source.generate_schedule_runner`);
        ``target="fortran"`` emits the paper-style DOALL/WHILE listing from
        the symbolic three-set partition (recurrence-chain plans on perfect
        nests only).
        """
        if target == "python":
            from ..codegen.python_source import generate_schedule_runner

            return generate_schedule_runner(self.program, self.schedule)
        if target == "fortran":
            if self.recurrence is None:
                raise ValueError(
                    "fortran codegen needs a recurrence-chain plan "
                    f"(this plan used strategy {self.strategy!r})"
                )
            from ..codegen.fortran import rec_partition_listing
            from .partition import symbolic_three_set_partition

            sym = symbolic_three_set_partition(
                self.program.iteration_space(), self.analysis.symbolic_relation()
            )
            if self.params:
                sym = sym.bind_parameters(self.params)
            contexts = self.program.statement_contexts()
            order = list(contexts[0].index_names)
            statement = f"{contexts[0].statement.label}({', '.join(order)})"
            return rec_partition_listing(sym, self.recurrence, statement, order=order)
        raise ValueError(f"unknown codegen target {target!r}; use 'python' or 'fortran'")


# ---------------------------------------------------------------------------
# fingerprinting and the plan cache
# ---------------------------------------------------------------------------


def program_fingerprint(program: LoopProgram) -> str:
    """A content hash of a loop program, for in-process plan caching.

    Two structurally identical programs (same name, loop text, parameters and
    array shapes) share a fingerprint even when they are distinct objects —
    the serving scenario plans a freshly parsed copy of the same nest and
    must hit the cache.  Custom statement ``semantics`` callables do not
    change the *plan*, but the cached :class:`Plan` executes and validates
    its own ``program``, so they are folded in by identity: two programs
    only share a fingerprint when each statement carries the same semantics
    object (or both use the default).  Identity comparison is sound here
    because a cached entry keeps its program — and hence its semantics
    objects — alive, so equal ids imply the same live callable; it also
    makes fingerprints process-local, which is exactly the cache's scope.
    """
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(str(program).encode())
    digest.update(repr(tuple(program.parameters)).encode())
    digest.update(repr(sorted(program.array_shapes.items())).encode())
    for stmt in program.statements():
        marker = "default" if stmt.semantics is None else f"sem@{id(stmt.semantics)}"
        digest.update(f"{stmt.label}:{marker};".encode())
    return digest.hexdigest()


CacheKey = Tuple[str, Tuple[Tuple[str, int], ...], PlanConfig]


class PlanCache:
    """A small LRU cache of :class:`Plan` objects.

    Keys are ``(program fingerprint, sorted params, config)``; values are the
    plans themselves, returned by identity on a hit so repeated requests for
    the same loop nest skip re-analysis entirely.

    Thread-safe: every access holds an internal lock, so one cache can be
    shared by all of a :class:`~repro.serving.PlanServer`'s client threads.
    (A stale *miss* under concurrency just means two threads plan the same
    program once each — the second ``put`` wins, which is harmless because
    plans for identical keys are interchangeable.)
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[CacheKey, Plan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        program: LoopProgram,
        params: Mapping[str, int],
        config: PlanConfig,
        fingerprint: Optional[str] = None,
    ) -> CacheKey:
        """The cache key; the single place its shape is defined.

        ``fingerprint`` lets a caller that already hashed the program (e.g.
        :func:`plan`) skip re-hashing it.
        """
        return (
            fingerprint if fingerprint is not None else program_fingerprint(program),
            tuple(sorted((str(k), int(v)) for k, v in params.items())),
            config,
        )

    def get(self, key: CacheKey) -> Optional[Plan]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, value: Plan) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits, "misses": self.misses}


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache used by ``plan(..., cache=True)``."""
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


def plan(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    config: Optional[PlanConfig] = None,
    cache=True,
) -> Plan:
    """Plan a parallel execution of ``program`` at concrete parameter values.

    Walks the configured strategy chain (default: the full registry order),
    picks the first applicable strategy, and returns a :class:`Plan` that
    records the schedule, the scheme-specific partition diagnostics, and why
    earlier strategies were skipped.  Raises
    :class:`~repro.core.partitioner.PartitioningNotApplicable` when no
    strategy in the chain applies, with every skip reason in the message.

    ``cache`` is ``True`` (use the process-default :class:`PlanCache`),
    ``False``/``None`` (plan fresh), or a :class:`PlanCache` instance.  On a
    hit the *identical* plan object is returned.
    """
    params = dict(params or {})
    config = config or PlanConfig()

    if cache is True:
        cache_obj: Optional[PlanCache] = _DEFAULT_CACHE
    elif isinstance(cache, PlanCache):
        cache_obj = cache
    elif cache:
        raise TypeError("cache must be True, False/None, or a PlanCache instance")
    else:
        cache_obj = None

    fingerprint = program_fingerprint(program)
    key: Optional[CacheKey] = None
    if cache_obj is not None:
        key = PlanCache.key(program, params, config, fingerprint=fingerprint)
        hit = cache_obj.get(key)
        if hit is not None:
            return hit

    order = config.strategies if config.strategies is not None else strategy_names()
    if not order:
        raise ValueError("PlanConfig.strategies must name at least one strategy")

    skipped: List[Tuple[str, str]] = []
    timings: Dict[str, float] = {}
    t_start = time.perf_counter()
    ctx = PlanningContext(
        program=program,
        params=params,
        config=config,
        analysis=DependenceAnalysis(program, params),
        fingerprint=fingerprint,
    )
    # How the chain is ordered: an explicit PlanConfig.strategies tuple is
    # honoured literally (no feature extraction, no re-ranking), as is a
    # single-name chain.  Otherwise the configured selector ranks the registry.
    if config.strategies is not None:
        selection = SelectionReport(
            selector=config.selector,
            order=tuple(order),
            source="pinned order (PlanConfig.strategies)",
        )
    elif len(order) <= 1:
        selection = SelectionReport(
            selector=config.selector,
            order=tuple(order),
            source="single-strategy chain",
        )
    else:
        order, selection = get_selector(config.selector).rank(ctx, tuple(order))
    chosen: Optional[PartitionStrategy] = None
    build: Optional[StrategyBuild] = None
    for name in order:
        strategy = get_strategy(name)
        reason = strategy.applicability(ctx)
        if reason is not None:
            skipped.append((name, reason))
            continue
        t0 = time.perf_counter()
        try:
            build = strategy.builder(ctx)
        except (PartitioningNotApplicable, ImperfectNestError) as err:
            # A ranked walk can probe a builder the fixed chain's hard
            # gates used to shield; a build-time refusal is just a skip.
            timings[name] = time.perf_counter() - t0
            skipped.append((name, f"builder raised: {err}"))
            continue
        timings[name] = time.perf_counter() - t0
        chosen = strategy
        break
    timings["total"] = time.perf_counter() - t_start

    if chosen is None or build is None:
        detail = "; ".join(f"{name}: {reason}" for name, reason in skipped)
        raise PartitioningNotApplicable(
            f"no strategy in {tuple(order)} applies to {program.name!r} ({detail})"
        )

    result = Plan(
        program=program,
        params=params,
        config=config,
        strategy=chosen.name,
        scheme=build.schedule.meta.get("scheme", chosen.scheme),
        schedule=build.schedule,
        analysis=ctx.analysis,
        partition=build.partition,
        chains=build.chains,
        recurrence=build.recurrence,
        statement_space=build.statement_space,
        skipped=tuple(skipped),
        timings=timings,
        fingerprint=fingerprint,
        rec_result=build.rec_result,
        selection=selection,
    )
    if cache_obj is not None and key is not None:
        cache_obj.put(key, result)
    return result
