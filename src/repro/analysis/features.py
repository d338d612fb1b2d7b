"""Program features for strategy selection.

The paper's premise (§1, echoed by the SPECfp95-style corpus in
:mod:`repro.workloads.corpus`) is that real loop nests are a *mix* — roughly
46 % non-uniform, 45 % coupled-subscript — so no single partitioning scheme
wins everywhere.  Acting on that requires knowing, per program, which mix it
belongs to: this module reduces a :class:`~repro.dependence.analysis.DependenceAnalysis`
to a small, hashable :class:`ProgramFeatures` record whose
:meth:`~ProgramFeatures.bucket` keys the calibrated selection table that
:func:`repro.core.strategy.plan` ranks strategies by.

Design constraints:

* **array-native** — every fact is read off the analysis' one cached space
  (``DependenceAnalysis.space``: its rows, Rd as row indices into them,
  the reference pairs' non-empty flags, and
  :func:`~repro.dependence.distance.is_uniform_distances` on those indices
  through :meth:`DependenceAnalysis.is_uniform`); no per-point Python set
  algebra is introduced;
* **shared work** — extraction consumes the *same* ``DependenceAnalysis``
  object the winning strategy's builder will consume, so nothing selection
  touches is re-analysed by the build;
* **no probing** — every fact is a count or a verdict the analysis already
  holds; no partition is built to describe the program (symbolic-eligible
  nests get closed-form counts and enumerate nothing);
* **cached on the plan fingerprint** — :func:`program_features` memoises on
  ``(program fingerprint, params)``, so repeated planning of the same nest
  (the serving scenario) never re-extracts, mirroring the plan cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram

__all__ = [
    "ProgramFeatures",
    "program_features",
    "clear_feature_cache",
    "feature_cache_stats",
]


@dataclass(frozen=True)
class ProgramFeatures:
    """The selection-facing summary of one (program, params) pair.

    ``uniform`` is three-valued: ``True``/``False`` for perfect nests (the
    exhaustive §2 check over the space's Rd) and ``None`` for any other
    program, whose unified distances mix position digits into the loop
    distances.  ``n_points`` counts statement instances and
    ``n_dependences`` the pairs of that Rd.
    """

    program: str
    nest_depth: int
    n_statements: int
    perfect_nest: bool
    rectangular: bool
    n_points: int
    n_reference_pairs: int
    n_coupled_pairs: int
    coupled_subscripts: bool
    single_coupled_pair: bool
    n_dependences: int
    uniform: Optional[bool]

    @property
    def dependence_density(self) -> float:
        """Direct dependences per point — 0.0 for an empty space."""
        return self.n_dependences / self.n_points if self.n_points else 0.0

    def bucket(self) -> str:
        """The coarse feature key the calibrated selection table is indexed by.

        Components, ``|``-joined: nest shape (``perfect``/``imperfect``),
        the Lemma 1 gate (``1cp``: exactly one coupled pair with
        dependences), subscript coupling in the paper's §1 sense, the
        uniformity verdict, space shape, clamped depth, and whether any
        dependence exists at all.
        """
        uniform = {True: "uniform", False: "nonuniform", None: "mixed"}[self.uniform]
        return "|".join(
            [
                "perfect" if self.perfect_nest else "imperfect",
                "1cp" if self.single_coupled_pair else "mcp",
                "coupled" if self.coupled_subscripts else "separable",
                uniform,
                "rect" if self.rectangular else "nonrect",
                f"d{min(self.nest_depth, 3)}",
                "dep" if self.n_dependences else "free",
            ]
        )

    def as_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        info = asdict(self)
        info["dependence_density"] = round(self.dependence_density, 6)
        info["bucket"] = self.bucket()
        return info

    def describe(self) -> str:
        """One compact line for ``Plan.explain()``."""
        shape = "rect" if self.rectangular else "nonrect"
        nest = "perfect" if self.perfect_nest else "imperfect"
        uniform = {True: "uniform", False: "non-uniform", None: "mixed"}[self.uniform]
        return (
            f"depth={self.nest_depth} statements={self.n_statements} ({nest}, {shape}), "
            f"{self.n_points} points, {self.n_dependences} dependences "
            f"({uniform}, {self.n_coupled_pairs} coupled pairs)"
        )


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _is_rectangular(program: LoopProgram) -> bool:
    """True when every loop bound is a single expression free of loop indices.

    Parameters are allowed (``DO I = 1, N`` is rectangular); an index in any
    bound (``DO J = 1, I``) or a MAX/MIN multi-expression bound makes the
    space non-rectangular.
    """
    loops = program.loops()
    indices = {lp.index for lp in loops}
    for lp in loops:
        if len(lp.lower) != 1 or len(lp.upper) != 1:
            return False
        for expr in (*lp.lower, *lp.upper):
            if any(v in indices for v in expr.variables):
                return False
    return True


def _closed_form(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
) -> Optional[Tuple[int, int, bool]]:
    """O(1)-in-N feature facts for the symbolic-eligible case, or ``None``.

    When the nest is rectangular with a single uniform integral dependence
    distance ``u``, every fact the enumerating path derives from the
    analysis' space and its Rd is a product of the box extents:
    ``|Φ| = Π e_k``, ``|Rd| = Π max(0, e_k − |u_k|)`` (iteration ``i``
    depends on ``i − u`` whenever both ends stay in the box).  Returns ``(n_points, n_deps, single_coupled_pair)``.
    """
    from ..core.symbolic import box_count, rectangular_box

    box = rectangular_box(program, params)
    if box is None:
        return None
    info = analysis.uniform_shift_pairs
    if info is None:
        return None
    shift, n_active_pairs = info
    n_points = box_count(box)
    extents = [hi - lo + 1 for lo, hi in box]
    n_deps = 1 if n_points else 0
    for e, u in zip(extents, shift):
        n_deps *= max(0, e - abs(u))
    return n_points, n_deps, n_deps > 0 and n_active_pairs == 1


def _extract(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
) -> ProgramFeatures:
    contexts = program.statement_contexts()
    perfect = program.is_perfect_nest()
    closed = _closed_form(program, params, analysis) if perfect else None

    uniform: Optional[bool]
    if closed is not None:
        # Symbolic-eligible nest: every count is a closed-form product —
        # no iteration space or dependence relation is ever enumerated.
        n_points, n_deps, single_coupled_pair = closed
        uniform = True
    else:
        # The builders' own space and Rd (shared through the analysis).
        n_points = len(analysis.space)
        n_deps = len(analysis.space.rd)
        uniform = analysis.is_uniform() if perfect else None
        single_coupled_pair = analysis.has_single_coupled_pair()

    return ProgramFeatures(
        program=program.name,
        nest_depth=max((ctx.depth for ctx in contexts), default=0),
        n_statements=len(contexts),
        perfect_nest=perfect,
        rectangular=_is_rectangular(program),
        n_points=n_points,
        n_reference_pairs=len(analysis.reference_pairs),
        n_coupled_pairs=len(analysis.coupled_pairs),
        coupled_subscripts=any(
            p.has_coupled_subscript_dimensions() for p in analysis.reference_pairs
        ),
        single_coupled_pair=single_coupled_pair,
        n_dependences=n_deps,
        uniform=uniform,
    )


# ---------------------------------------------------------------------------
# the fingerprint-keyed cache
# ---------------------------------------------------------------------------

_CACHE_MAXSIZE = 256
_CACHE: "OrderedDict[Tuple[str, Tuple[Tuple[str, int], ...]], ProgramFeatures]" = (
    OrderedDict()
)
#: Guards ``_CACHE`` and its counters — feature extraction runs on every
#: planning thread of a long-lived server, so the LRU must not be mutated
#: concurrently (an OrderedDict can corrupt under racing move_to_end/popitem).
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def clear_feature_cache() -> None:
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_HITS = _CACHE_MISSES = 0


def feature_cache_stats() -> Dict[str, int]:
    with _CACHE_LOCK:
        return {"size": len(_CACHE), "hits": _CACHE_HITS, "misses": _CACHE_MISSES}


def program_features(
    program: LoopProgram,
    params: Optional[Mapping[str, int]] = None,
    analysis: Optional[DependenceAnalysis] = None,
    fingerprint: Optional[str] = None,
    cache: bool = True,
) -> ProgramFeatures:
    """Extract (or recall) the :class:`ProgramFeatures` of one plan request.

    ``analysis`` should be the planning call's shared
    :class:`~repro.dependence.analysis.DependenceAnalysis` so every view the
    extraction touches stays warm for the winning strategy's builder; one is
    created when omitted.  ``fingerprint`` lets a caller that already hashed
    the program (``plan()`` always has) skip re-hashing; features are
    memoised on ``(fingerprint, sorted params)`` so re-planning the same
    nest never re-extracts.
    """
    global _CACHE_HITS, _CACHE_MISSES
    params = dict(params or {})
    key = None
    if cache:
        if fingerprint is None:
            from ..core.strategy import program_fingerprint

            fingerprint = program_fingerprint(program)
        key = (fingerprint, tuple(sorted((str(k), int(v)) for k, v in params.items())))
        with _CACHE_LOCK:
            hit = _CACHE.get(key)
            if hit is not None:
                _CACHE.move_to_end(key)
                _CACHE_HITS += 1
                return hit
            _CACHE_MISSES += 1
    if analysis is None:
        analysis = DependenceAnalysis(program, params)
    features = _extract(program, params, analysis)
    if key is not None:
        with _CACHE_LOCK:
            _CACHE[key] = features
            while len(_CACHE) > _CACHE_MAXSIZE:
                _CACHE.popitem(last=False)
    return features
