"""Symbolic O(1)-in-N planning: closed-form three-set schedules.

Every other strategy in the registry enumerates the iteration space Φ —
O(|Φ|) memory and time — before it can emit a schedule.  This module builds
the paper's Theorem 1 partition *symbolically* for the Lemma 1
single-uniform-pair case and represents the result with phase objects whose
size is independent of N:

* :func:`uniform_shift` — the eligibility gate, entirely syntactic: a
  single-statement rectangular perfect nest whose reference pairs all reduce
  to one uniform dependence distance ``u`` (``T = A·B⁻¹ = I``,
  ``u = (a−b)·B⁻¹`` integral).  Nothing here touches an enumerated view.
* :func:`build_symbolic_schedule` — runs
  :func:`~repro.core.partition.symbolic_three_set_partition` on the symbolic
  relation, converts every union member to a concrete integer **box** via
  :func:`~repro.codegen.bounds.nest_bounds` + ``BoundExpr.evaluate``, and
  cross-checks ``|P1| + |P2| + |P3| == |Φ|`` with closed-form products —
  any geometry the box algebra cannot represent exactly raises
  :class:`~repro.core.partitioner.PartitioningNotApplicable` and the
  fallback chain moves on.
* :class:`SymbolicDoallPhase` / :class:`CosetChainPhase` — schedule phases
  that store boxes, not points.  ``len`` / ``work`` / ``span`` are products
  and closed-form chain bounds; :meth:`~SymbolicDoallPhase.lower` builds the
  materialised :class:`~repro.core.schedule.Phase` only when a consumer
  (the interpreter, the validators, the simulator) asks for it.

The chain phase realises the ROADMAP's coset observation: for a uniform
distance ``u`` the chains are cosets of the distance lattice
(cf. :class:`repro.baselines.lattice.DistanceLattice`), i.e. strided arrays
``start + t·u`` clipped to the P2 box — no edge matching over Rd.  With
``Φ`` a box and ``Rd`` the translation by ``u``::

    ran = (Φ + u) ∩ Φ        dom = (Φ − u) ∩ Φ
    P1  = Φ \\ ran            P2 = ran ∩ dom         P3 = ran \\ dom
    W   = {w ∈ P2 : w − 2u ∉ Φ}

and walking back from any ``p ∈ P2`` by ``u`` stays inside P2 until it hits
a ``w ∈ W`` (``p − u ∈ dom`` always; ``p − u ∈ ran`` iff ``p − 2u ∈ Φ``), so
the cosets ``{w + t·u}`` tile P2 exactly — the generated kernels assert the
tiling (``Σ len == |P2|``) at run time as a cheap belt-and-braces check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..codegen.bounds import nest_bounds
from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from .partition import symbolic_three_set_partition
from .partitioner import PartitioningNotApplicable
from .schedule import Phase, Schedule

__all__ = [
    "SymbolicDoallPhase",
    "CosetChainPhase",
    "Box",
    "box_count",
    "rectangular_box",
    "uniform_shift",
    "uniform_shift_pairs",
    "symbolic_not_applicable_reason",
    "build_symbolic_schedule",
]

#: One integer box: ``((lo, hi), ...)`` per dimension, inclusive on both ends.
Box = Tuple[Tuple[int, int], ...]


def box_count(box: Box) -> int:
    """Number of integer points in a box (0 when any extent is negative)."""
    total = 1
    for lo, hi in box:
        if hi < lo:
            return 0
        total *= hi - lo + 1
    return total


def _box_points(box: Box) -> np.ndarray:
    """All points of a box as an ``(n, d)`` int64 array, lexicographic order."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box]
    if not axes:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# symbolic phases
# ---------------------------------------------------------------------------


class SymbolicDoallPhase:
    """A DOALL phase over a union of disjoint integer boxes.

    Metrics (``len`` / ``work`` / ``span``) are closed-form products of the
    box extents, so building and inspecting the phase costs O(boxes), not
    O(points).  :meth:`lower` enumerates the points, one instance of the
    program's single statement per unit.
    """

    __slots__ = ("name", "boxes", "_count", "_points")

    def __init__(self, name: str, boxes: Sequence[Box]):
        self.name = name
        kept = []
        for box in boxes:
            norm = tuple((int(lo), int(hi)) for lo, hi in box)
            if box_count(norm):
                kept.append(norm)
        self.boxes: Tuple[Box, ...] = tuple(kept)
        self._count = sum(box_count(b) for b in self.boxes)
        self._points: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._count

    @property
    def work(self) -> int:
        return self._count

    @property
    def span(self) -> int:
        return 1 if self._count else 0

    def points_array(self) -> np.ndarray:
        if self._points is None:
            if self.boxes:
                self._points = np.concatenate(
                    [_box_points(b) for b in self.boxes], axis=0
                )
            else:
                dim = 0
                self._points = np.zeros((0, dim), dtype=np.int64)
        return self._points

    def lower(self) -> Phase:
        """The enumerated phase: every point, in box order, one unit each."""
        points = self.points_array()
        return Phase(self.name, 0, points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicDoallPhase):
            return NotImplemented
        return self.name == other.name and self.boxes == other.boxes

    def __hash__(self) -> int:
        return hash((self.name, self.boxes))

    def __repr__(self) -> str:
        return (
            f"SymbolicDoallPhase({self.name!r}, "
            f"<{len(self.boxes)} boxes, {self._count} points>)"
        )


class CosetChainPhase:
    """The intermediate phase as lattice cosets: ``start + t·u`` strided runs.

    Chain starts live in ``start_boxes`` (the W boxes), the step is the
    uniform distance ``u``, and every chain is clipped to the single P2
    ``box`` — a line ∩ box is an interval, so each chain is one contiguous
    strided run and its length is a per-dimension floor-division minimum.
    ``work`` is ``|P2|`` (the cosets tile P2 — see the module docstring) and
    ``span`` the longest chain, both closed-form.
    """

    __slots__ = (
        "name", "start_boxes", "step", "box", "_work", "_n_chains", "_chains",
    )

    def __init__(
        self,
        name: str,
        start_boxes: Sequence[Box],
        step: Sequence[int],
        box: Box,
    ):
        self.name = name
        self.step: Tuple[int, ...] = tuple(int(c) for c in step)
        if not any(self.step):
            raise ValueError("CosetChainPhase needs a non-zero step")
        self.box: Box = tuple((int(lo), int(hi)) for lo, hi in box)
        kept = []
        for b in start_boxes:
            norm = tuple((int(lo), int(hi)) for lo, hi in b)
            if box_count(norm):
                kept.append(norm)
        self.start_boxes: Tuple[Box, ...] = tuple(kept)
        self._work = box_count(self.box) if self.start_boxes else 0
        self._n_chains = sum(box_count(b) for b in self.start_boxes)
        self._chains: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._n_chains

    @property
    def work(self) -> int:
        return self._work

    def _box_span(self, b: Box) -> int:
        """Longest chain starting in ``b`` — coordinates are independent, so
        ``max_w min_k f_k(w_k) == min_k max_{w_k} f_k(w_k)``."""
        best = None
        for k, u_k in enumerate(self.step):
            if u_k == 0:
                continue
            lo2, hi2 = self.box[k]
            lo_w, hi_w = b[k]
            avail = (hi2 - lo_w) // u_k if u_k > 0 else (hi_w - lo2) // (-u_k)
            best = avail if best is None else min(best, avail)
        return 1 + (best or 0)

    @property
    def span(self) -> int:
        return max((self._box_span(b) for b in self.start_boxes), default=0)

    def chains(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, lens)``: the ``(n, d)`` chain starts and their lengths.

        Verifies the tiling invariant ``Σ lens == |P2|`` on materialisation.
        """
        if self._chains is None:
            if not self.start_boxes:
                dim = len(self.step)
                self._chains = (
                    np.zeros((0, dim), dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                )
                return self._chains
            starts = np.concatenate(
                [_box_points(b) for b in self.start_boxes], axis=0
            )
            lens = None
            for k, u_k in enumerate(self.step):
                if u_k == 0:
                    continue
                lo2, hi2 = self.box[k]
                if u_k > 0:
                    avail = (hi2 - starts[:, k]) // u_k
                else:
                    avail = (starts[:, k] - lo2) // (-u_k)
                lens = avail if lens is None else np.minimum(lens, avail)
            lens = lens + 1
            if int(lens.sum()) != self._work:
                raise RuntimeError(
                    f"coset chains do not tile P2: sum of lengths "
                    f"{int(lens.sum())} != |P2| {self._work}"
                )
            self._chains = (starts, lens)
        return self._chains

    def lower(self) -> Phase:
        """The enumerated phase: chain ``c`` is ``start_c + t·step`` for
        ``t < len_c``, the chains laid out back to back, one unit each."""
        starts, lens = self.chains()
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        t = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], lens)
        iters = np.repeat(starts, lens, axis=0) + t[:, None] * np.asarray(
            self.step, dtype=np.int64
        )
        return Phase(self.name, 0, iters, offsets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CosetChainPhase):
            return NotImplemented
        return (
            self.name == other.name
            and self.start_boxes == other.start_boxes
            and self.step == other.step
            and self.box == other.box
        )

    def __hash__(self) -> int:
        return hash((self.name, self.start_boxes, self.step, self.box))

    def __repr__(self) -> str:
        return (
            f"CosetChainPhase({self.name!r}, step {self.step}, "
            f"<{self._n_chains} chains, {self._work} instances>)"
        )


# ---------------------------------------------------------------------------
# the eligibility gate — syntactic, O(1) in the space size
# ---------------------------------------------------------------------------


def rectangular_box(
    program: LoopProgram, params: Mapping[str, int]
) -> Optional[Box]:
    """The iteration space as one concrete box, or ``None``.

    Succeeds only for rectangular nests: every loop has a single lower and a
    single upper bound whose variables are all bound parameters.  The result
    is ordered outermost-first (the loop-index order).
    """
    box: List[Tuple[int, int]] = []
    for lp in program.loops():
        if len(lp.lower) != 1 or len(lp.upper) != 1 or lp.stride != 1:
            return None
        bounds = []
        for expr in (lp.lower[0], lp.upper[0]):
            if any(v not in params for v in expr.variables):
                return None
            value = expr.evaluate(params)
            if value.denominator != 1:
                return None
            bounds.append(int(value))
        box.append((bounds[0], bounds[1]))
    return tuple(box)


def _lex_positive(u: Tuple[int, ...]) -> Tuple[int, ...]:
    for c in u:
        if c > 0:
            return u
        if c < 0:
            return tuple(-x for x in u)
    return u


def uniform_shift_pairs(
    program: LoopProgram, analysis: DependenceAnalysis
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """``(u, n_active_pairs)`` for the single-uniform-distance case, or ``None``.

    Syntactic only: walks the reference pairs, requires every pair to be a
    uniform full-rank recurrence (``T = I``), drops pairs whose shift is
    non-integral or zero (they generate no cross-iteration dependences), and
    demands that exactly one lex-normalised distance remains.
    ``n_active_pairs`` counts the pairs carrying that distance (the feature
    extractor needs it for the Lemma 1 single-pair flag).  Never touches an
    enumerated relation or space.
    """
    contexts = program.statement_contexts()
    if len(contexts) != 1:
        return None
    shifts = set()
    active = 0
    for pair in analysis.reference_pairs:
        try:
            if not pair.is_square_full_rank() or not pair.is_uniform():
                return None
            rec = pair.recurrence()
        except ValueError:
            return None  # e.g. parameters inside subscripts
        if rec is None:
            return None
        _, u = rec
        if any(Fraction(c).denominator != 1 for c in u):
            continue  # non-integral shift: the pair has no solutions
        u_int = tuple(int(c) for c in u)
        if not any(u_int):
            continue  # zero distance: no cross-iteration dependence
        shifts.add(_lex_positive(u_int))
        active += 1
    if len(shifts) != 1:
        return None
    return shifts.pop(), active


def uniform_shift(
    program: LoopProgram, analysis: DependenceAnalysis
) -> Optional[Tuple[int, ...]]:
    """The single uniform dependence distance of ``program``, or ``None``."""
    info = uniform_shift_pairs(program, analysis)
    return info[0] if info is not None else None


def symbolic_not_applicable_reason(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
) -> Optional[str]:
    """``None`` when the symbolic strategy applies, else a human-readable
    reason — the :class:`~repro.core.strategy.PartitionStrategy`
    applicability hook."""
    contexts = program.statement_contexts()
    if len(contexts) != 1:
        return "requires a single-statement perfect nest"
    if rectangular_box(program, params) is None:
        return "requires a rectangular space (constant bounds, unit strides)"
    if uniform_shift(program, analysis) is None:
        return (
            "requires exactly one uniform integral dependence distance "
            "(the Lemma 1 single-pair case with T = I)"
        )
    return None


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


def _union_boxes(uset, order: Sequence[str]) -> List[Box]:
    """Every member of a parameter-free union set as a concrete box.

    Raises :class:`PartitioningNotApplicable` when a member is not exactly a
    box (guard constraints, bounds referencing other loop variables, or an
    unbounded direction) — the builder's contract is to refuse rather than
    approximate.
    """
    boxes: List[Box] = []
    for member in uset.members:
        nb = nest_bounds(member.simplified(), order)
        if nb.guards:
            raise PartitioningNotApplicable(
                "symbolic partition member has non-box guard constraints"
            )
        box: List[Tuple[int, int]] = []
        for level in nb.levels:
            if not level.lowers or not level.uppers:
                raise PartitioningNotApplicable(
                    f"symbolic partition member is unbounded in {level.variable}"
                )
            for bound in (*level.lowers, *level.uppers):
                if bound.expr.variables:
                    raise PartitioningNotApplicable(
                        "symbolic partition member is not an axis-aligned box"
                    )
            lo = max(b.evaluate({}) for b in level.lowers)
            hi = min(b.evaluate({}) for b in level.uppers)
            box.append((int(lo), int(hi)))
        if box_count(tuple(box)):
            boxes.append(tuple(box))
    return boxes


def build_symbolic_schedule(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
    fingerprint: str = "",
) -> Schedule:
    """The Theorem 1 schedule from the symbolic partition, O(1) in |Φ|.

    Three phases — P1 DOALL, the coset chains over P2, P3 DOALL — each
    represented by boxes.  The closed-form counts are cross-checked
    (``|P1| + |P2| + |P3| == |Φ|``); any mismatch means the rational set
    algebra approximated the integer geometry and the builder refuses.
    """
    shift = uniform_shift(program, analysis)
    if shift is None:
        raise PartitioningNotApplicable(
            "no single uniform integral dependence distance"
        )
    space = program.iteration_space()
    order = list(space.variables)
    sym = symbolic_three_set_partition(space, analysis.symbolic_relation())
    if params:
        sym = sym.bind_parameters(params)

    phi_boxes = _union_boxes(sym.space, order)
    p1_boxes = _union_boxes(sym.p1, order)
    p2_boxes = _union_boxes(sym.p2, order)
    p3_boxes = _union_boxes(sym.p3, order)
    w_boxes = _union_boxes(sym.w, order)

    if len(phi_boxes) != 1:
        raise PartitioningNotApplicable("iteration space is not a single box")
    if len(p2_boxes) > 1:
        raise PartitioningNotApplicable(
            "intermediate set P2 is not a single box"
        )

    n_phi = box_count(phi_boxes[0])
    n_p1 = sum(box_count(b) for b in p1_boxes)
    n_p2 = sum(box_count(b) for b in p2_boxes)
    n_p3 = sum(box_count(b) for b in p3_boxes)
    if n_p1 + n_p2 + n_p3 != n_phi:
        raise PartitioningNotApplicable(
            f"symbolic partition is not exact here: |P1|+|P2|+|P3| = "
            f"{n_p1 + n_p2 + n_p3} != |Phi| = {n_phi}"
        )

    phases = [SymbolicDoallPhase("P1-doall", p1_boxes)]
    if n_p2:
        phases.append(CosetChainPhase("P2-chains", w_boxes, shift, p2_boxes[0]))
    phases.append(SymbolicDoallPhase("P3-doall", p3_boxes))

    key_params = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    if not fingerprint:
        from .strategy import program_fingerprint

        fingerprint = program_fingerprint(program)
    return Schedule.for_program(
        f"symbolic-{program.name}",
        program,
        phases,
        scheme="symbolic",
        shift=shift,
        kernel_key=f"{fingerprint}|{key_params}",
        backend_hint=(
            "compiled (generated NumPy kernel, cached on the plan "
            "fingerprint; serial fallback)"
        ),
    )
