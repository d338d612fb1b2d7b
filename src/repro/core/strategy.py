"""The unified planning facade: strategy registry, :class:`PlanConfig`,
executable :class:`Plan` objects and the :func:`plan` entry point.

The paper's experimental story is a *comparison* — recurrence-chain
partitioning (Algorithm 1) against PDM, PL, unique sets, DOACROSS,
minimum-distance tiling and inner-loop parallelization — but historically
each scheme had its own ad-hoc entry point and every consumer hand-rolled
the same try/except-around-:class:`PartitioningNotApplicable` dispatch.
This module puts one compiler-style facade in front of all of them:

``plan(program, params, config=PlanConfig(...)) -> Plan``

* every scheme is a :class:`PartitionStrategy` in a **registry** whose
  registration order is Algorithm 1's fallback chain (recurrence-chains →
  dataflow → pdm → pl → unique-sets → doacross → tiling → inner-parallel →
  symbolic).  One selection policy orders that chain: the program's
  :class:`~repro.analysis.features.ProgramFeatures` bucket is looked up in
  the **calibrated workload table** (``selection_table.json``, regenerated
  by ``benchmarks/bench_strategy_selection.py`` from the corpus sweep); the
  bucket's calibrated strategies come first and the rest follow in registry
  order, so an uncalibrated bucket (or a missing table) walks the registry
  chain unchanged.  An explicit ``PlanConfig(strategies=...)`` order is
  honoured literally (no re-ranking).  Whatever the order, the first
  *applicable* strategy wins and every probe failure is recorded —
  ``Plan.explain()`` reports the features seen, the calibrated scores and
  the skip reasons, replacing the old hand-rolled fallback idiom;
* :class:`PlanConfig` holds the one planning knob, the strategy preference
  order, validated on construction;
* :class:`Plan` is the single result object — schedule, partition/chain
  diagnostics, the shared dependence analysis, chosen strategy, per-strategy timings — with
  ``.execute(backend=…)`` and ``.validate()`` delegating to
  :mod:`repro.runtime`;
* an LRU :class:`PlanCache` keyed by ``(program fingerprint, params,
  config)`` makes repeated requests for the same loop nest (the serving
  scenario) return the identical :class:`Plan` without re-analysis.

Execution goes through the same pattern on the runtime side: the
:mod:`repro.runtime.backends` registry of :class:`ExecutionBackend` s
(``serial`` / ``process`` / ``compiled``) is reached via
``Plan.execute(backend=..., workers=..., seed=...)``; its knobs live in
:class:`~repro.runtime.backends.ExecConfig`, never in :class:`PlanConfig`, so
execution settings cannot split the plan cache.  The shared-memory process
pool turns the planned phase/barrier schedules into wall-clock speedups on
multi-core hosts.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
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

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from .partitioner import (
    PartitioningNotApplicable,
    RecurrencePartitionResult,
    dataflow_branch,
    recurrence_branch,
    recurrence_not_applicable_reason,
)
from .recurrence import AffineRecurrence
from .schedule import Schedule
from .symbolic import (
    CosetChainPhase,
    build_symbolic_schedule,
    symbolic_not_applicable_reason,
)

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
    "SelectionReport",
    "load_selection_table",
]

#: The strategy registry (populated below); declared here so
#: ``PlanConfig.__post_init__`` can validate names against it.
_REGISTRY: "OrderedDict[str, PartitionStrategy]" = OrderedDict()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanConfig:
    """The planning pipeline's one knob, in a hashable object that keys the
    plan cache.  Execution knobs live in
    :class:`~repro.runtime.backends.ExecConfig` and reach a plan only through
    :meth:`Plan.execute`.

    ``strategies``
        Explicit strategy preference order (a non-empty tuple of registered
        names); the first applicable one wins and **no re-ranking happens**
        — a pinned order is honoured literally (``("dataflow",)`` forces the
        dataflow branch, ``strategy_names()`` walks the registry chain).
        ``None`` means the registry's chain ranked by the calibrated table.

    The field is checked on construction, so a bad config (a bare string
    for ``strategies``, an empty tuple, an unknown name) fails here and not
    inside :func:`plan`.
    """

    strategies: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.strategies is not None:
            if isinstance(self.strategies, str):
                raise TypeError(
                    "PlanConfig.strategies must be a sequence of strategy "
                    f"names, not the string {self.strategies!r}"
                )
            names = tuple(self.strategies)
            if not names:
                raise ValueError("PlanConfig.strategies must name at least one strategy")
            for name in names:
                if name not in _REGISTRY:
                    raise ValueError(
                        f"unknown strategy {name!r}; registered: {', '.join(_REGISTRY)}"
                    )
            object.__setattr__(self, "strategies", names)


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
    #: lets selection hit the feature cache without re-hashing the program.
    fingerprint: str = ""


@dataclass(frozen=True)
class StrategyBuild:
    """What a strategy hands back to the facade: the schedule plus extras."""

    schedule: Schedule
    partition: Optional[object] = None  # ThreeSetPartition / PDMPartition / ...
    recurrence: Optional[AffineRecurrence] = None
    rec_result: Optional[RecurrencePartitionResult] = None


@dataclass(frozen=True)
class PartitionStrategy:
    """One partitioning scheme behind the facade.

    ``applicability(ctx)`` returns ``None`` when the strategy applies or a
    human-readable reason when it does not (surfaced by ``Plan.explain()``);
    ``builder(ctx)`` produces the :class:`StrategyBuild` and is only called
    after the applicability probe passed.
    """

    name: str
    scheme: str
    description: str
    applicability: Callable[[PlanningContext], Optional[str]]
    builder: Callable[[PlanningContext], StrategyBuild]


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
        recurrence=result.recurrence,
        rec_result=result,
    )


def _dataflow_builder(ctx: PlanningContext) -> StrategyBuild:
    result = dataflow_branch(ctx.program, ctx.params, ctx.analysis)
    return StrategyBuild(schedule=result.schedule, rec_result=result)


def _always_applicable(ctx: PlanningContext) -> Optional[str]:
    return None


def _perfect_nest_only(ctx: PlanningContext) -> Optional[str]:
    if not ctx.program.is_perfect_nest():
        return "requires a perfect nest (one loop chain, statements innermost)"
    return None


def _pdm_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.pdm import pdm_schedule_and_partition

    schedule, partition = pdm_schedule_and_partition(ctx.program, ctx.params, ctx.analysis)
    return StrategyBuild(schedule=schedule, partition=partition)


def _pl_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.pl import pl_schedule_and_partition

    schedule, partition = pl_schedule_and_partition(ctx.program, ctx.params, ctx.analysis)
    return StrategyBuild(schedule=schedule, partition=partition)


def _unique_sets_builder(ctx: PlanningContext) -> StrategyBuild:
    from ..baselines.unique_sets import unique_sets_schedule_and_partition

    schedule, partition = unique_sets_schedule_and_partition(
        ctx.program, ctx.params, ctx.analysis
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
    return symbolic_not_applicable_reason(ctx.program, ctx.params, ctx.analysis)


def _symbolic_builder(ctx: PlanningContext) -> StrategyBuild:
    return StrategyBuild(
        schedule=build_symbolic_schedule(ctx.program, ctx.params, ctx.analysis)
    )


register_strategy(PartitionStrategy(
    name="recurrence-chains",
    scheme="recurrence-chains",
    description="Algorithm 1, Lemma 1 branch: P1 / monotonic WHILE chains / P3",
    applicability=_rec_applicability,
    builder=_rec_builder,
))
register_strategy(PartitionStrategy(
    name="dataflow",
    scheme="dataflow",
    description="Algorithm 1, iterative dataflow branch: one DOALL wavefront per peel",
    applicability=_always_applicable,
    builder=_dataflow_builder,
))
register_strategy(PartitionStrategy(
    name="pdm",
    scheme="pdm",
    description="pseudo-distance-matrix uniformization (Yu & D'Hollander '00)",
    applicability=_always_applicable,
    builder=_pdm_builder,
))
register_strategy(PartitionStrategy(
    name="pl",
    scheme="pl",
    description="partitioning & labeling / direction-vector uniformization",
    applicability=_perfect_nest_only,
    builder=_pl_builder,
))
register_strategy(PartitionStrategy(
    name="unique-sets",
    scheme="unique-sets",
    description="unique-sets oriented partitioning (Ju & Chaudhary '97)",
    applicability=_perfect_nest_only,
    builder=_unique_sets_builder,
))
register_strategy(PartitionStrategy(
    name="doacross",
    scheme="doacross",
    description="BDV-synchronized DOACROSS wavefronts (Tzen & Ni '93)",
    applicability=_always_applicable,
    builder=_doacross_builder,
))
register_strategy(PartitionStrategy(
    name="tiling",
    scheme="min-distance-tiling",
    description="minimum-distance tiling (Punyamurtula et al. '99)",
    applicability=_perfect_nest_only,
    builder=_tiling_builder,
))
register_strategy(PartitionStrategy(
    name="inner-parallel",
    scheme="inner-parallel",
    description="outer loop sequential, inner iterations parallel (PAR)",
    applicability=_always_applicable,
    builder=_innerpar_builder,
))
register_strategy(PartitionStrategy(
    name="symbolic",
    scheme="symbolic",
    description="closed-form three-set partition, O(1)-in-N plan + compiled kernel",
    applicability=_symbolic_applicability,
    builder=_symbolic_builder,
))


# ---------------------------------------------------------------------------
# selection: how the registry chain is ordered
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionReport:
    """How the strategy chain was ordered — attached to every :class:`Plan`.

    ``order`` is the chain actually walked; ``scores`` are ``(strategy,
    value, reason)`` triples for a calibrated bucket, in ranked order (empty
    for pinned orders and uncalibrated buckets); ``features`` is the
    :class:`~repro.analysis.features.ProgramFeatures` record when one was
    extracted (every unpinned plan); ``bucket`` is its calibration-table
    key; ``source`` says how the order was produced.
    """

    order: Tuple[str, ...]
    scores: Tuple[Tuple[str, float, str], ...] = ()
    features: Optional[object] = None
    bucket: Optional[str] = None
    source: str = ""


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
    table — every bucket then walks the registry chain.
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


def _rank(ctx: PlanningContext) -> Tuple[Tuple[str, ...], SelectionReport]:
    """The one selection policy: ``(chain to walk, report)``.

    A pinned ``PlanConfig.strategies`` is walked literally, without feature
    extraction.  Otherwise the program's feature bucket is looked up in the
    calibrated table: its strategies come first, best simulated time first,
    and every other registered strategy follows in registry order — so an
    uncalibrated bucket walks Algorithm 1's registry chain unchanged.  The
    order only decides which applicable strategy is probed first; the hard
    applicability gates stay with the strategies themselves.
    """
    if ctx.config.strategies is not None:
        order = ctx.config.strategies
        return order, SelectionReport(
            order=order, source="pinned order (PlanConfig.strategies)"
        )
    # Imported lazily: ``repro.analysis`` imports this module at package-init
    # time.
    from ..analysis.features import program_features

    features = program_features(
        ctx.program,
        ctx.params,
        analysis=ctx.analysis,
        fingerprint=ctx.fingerprint or None,
    )
    bucket = features.bucket()
    entries = [
        e for e in load_selection_table().get("buckets", {}).get(bucket, ())
        if e["strategy"] in _REGISTRY
    ]
    calibrated = [e["strategy"] for e in entries]
    ranked = tuple(calibrated + [n for n in _REGISTRY if n not in calibrated])
    scores: Tuple[Tuple[str, float, str], ...] = ()
    if entries:
        scores = tuple(
            (
                e["strategy"],
                round(1.0 / max(float(e["rel_time"]), 1e-9), 4),
                f"calibrated: {e['rel_time']:.2f}x the bucket's best simulated time",
            )
            for e in entries
        ) + tuple(
            (name, 0.0, "not calibrated in this bucket") for name in ranked[len(entries):]
        )
    return ranked, SelectionReport(
        order=ranked,
        scores=scores,
        features=features,
        bucket=bucket,
        source=(
            "calibrated workload table" if entries
            else "bucket not calibrated; registry order"
        ),
    )


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
    recurrence: Optional[AffineRecurrence] = None
    skipped: Tuple[Tuple[str, str], ...] = ()
    timings: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    rec_result: Optional[RecurrencePartitionResult] = None
    selection: Optional[SelectionReport] = None
    #: The wire transport's read and write sets of the schedule's arrays,
    #: for the last array shapes it served
    #: (:mod:`repro.serving.transport.footprint`), freed with the plan.
    footprints: Dict[object, object] = field(default_factory=dict, repr=False)

    # -- structural views -------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return self.schedule.num_phases

    def _coset_chains(self) -> List[CosetChainPhase]:
        """The ``symbolic`` plan's chain phase (none for other builders)."""
        return [ph for ph in self.schedule.phases if isinstance(ph, CosetChainPhase)]

    def longest_chain(self) -> int:
        """Points on the longest P2 chain (recurrence-chain and ``symbolic``
        plans; 0 otherwise)."""
        if self.rec_result is not None:
            return self.rec_result.longest_chain()
        return max((ph.span for ph in self._coset_chains()), default=0)

    def chain_length_bound(self) -> Optional[int]:
        """Theorem 1 bound (recurrence-chain plans only; ``None`` otherwise)."""
        if self.rec_result is None:
            return None
        return self.rec_result.chain_length_bound()

    def summary(self) -> Dict[str, object]:
        """Headline facts; for Algorithm 1 plans this is a superset of the
        historical ``RecurrencePartitionResult.summary()`` dictionary."""
        if self.rec_result is not None:
            info = self.rec_result.summary()
        else:
            info = {
                "program": self.program.name,
                "scheme": self.scheme,
                **self.schedule.summary(),
            }
            for chains in self._coset_chains():
                info["n_chains"] = len(chains)
                info["longest_chain"] = chains.span
        info["strategy"] = self.strategy
        return info

    def explain(self) -> str:
        """Why this strategy was chosen, which were skipped and why, and the
        per-strategy planning times — the replacement for hand-rolled
        try/except dispatch around :class:`PartitioningNotApplicable`."""
        lines = [f"plan for {self.program.name!r} (params {self.params or '{}'}):"]
        sel = self.selection
        if sel is not None and sel.features is not None:
            lines.append(f"  selection: {sel.source}")
            lines.append(f"  features: {sel.features.describe()}")
            lines.append(f"  bucket: {sel.bucket}")
            for name, value, reason in sel.scores:
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

    # -- delegation to runtime ---------------------------------------------------

    _UNSET = object()

    def execute(
        self,
        store=None,
        seed=_UNSET,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ):
        """Run the plan's schedule over concrete arrays through the
        execution-backend registry (:mod:`repro.runtime.backends`); returns
        the unified :class:`~repro.runtime.backends.RunResult`.

        A bare call runs ``ExecConfig()``: the ``serial`` backend shuffled by
        seed 0.  ``backend=`` / ``workers=`` / ``seed=`` override it per
        call: ``plan(...).execute(backend="process", workers=4)`` is the
        multi-core path, and ``seed=None`` disables intra-phase shuffling.
        """
        from ..runtime.backends import execute

        overrides = {}
        if backend is not None:
            overrides["backend"] = backend
        if workers is not None:
            overrides["workers"] = workers
        if seed is not Plan._UNSET:
            overrides["seed"] = seed
        return execute(
            self.program, self.schedule, self.params, store=store, **overrides
        )

    def validate(self, seeds: Sequence[int] = (0, 1, 2)):
        """Validate coverage, dependence safety and exact semantics.

        Every plan is checked against the analysis' one space and its Rd,
        each scheduled instance keyed by its unified vector.  This dependence
        check is the executors' race check: they run a phase's units without
        locks.
        """
        from ..runtime.executor import validate_schedule

        return validate_schedule(
            self.program, self.schedule, self.params,
            dependences=self.analysis.space, seeds=seeds,
        )


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

    The digest is cached on the (immutable) program object, so a plan
    server re-planning one interned program hashes it once.  The cache
    never leaves the process: :class:`LoopProgram` drops it when pickled.
    """
    cached = program.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(str(program).encode())
    digest.update(repr(tuple(program.parameters)).encode())
    digest.update(repr(sorted(program.array_shapes.items())).encode())
    for stmt in program.statements():
        marker = "default" if stmt.semantics is None else f"sem@{id(stmt.semantics)}"
        digest.update(f"{stmt.label}:{marker};".encode())
    fingerprint = digest.hexdigest()
    object.__setattr__(program, "_fingerprint", fingerprint)
    return fingerprint


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

    def plans(self) -> List[Plan]:
        """A snapshot of the cached plans, least recently used first."""
        with self._lock:
            return list(self._entries.values())

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

    Walks the strategy chain (a pinned ``config.strategies`` literally,
    otherwise the registry ranked by the calibrated table), picks the first
    applicable strategy, and returns a :class:`Plan` that
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
    order, selection = _rank(ctx)
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
        except PartitioningNotApplicable as err:
            # A ranked walk can probe a builder the registry chain's hard
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
        recurrence=build.recurrence,
        skipped=tuple(skipped),
        timings=timings,
        fingerprint=fingerprint,
        rec_result=build.rec_result,
        selection=selection,
    )
    if cache_obj is not None and key is not None:
        cache_obj.put(key, result)
    return result
