"""Symbolic O(1)-in-N planning: closed-form three-set schedules.

Every other strategy in the registry enumerates the iteration space Φ —
O(|Φ|) memory and time — before it can emit a schedule.  This module builds
the paper's Theorem 1 partition *symbolically* for the Lemma 1
single-uniform-pair case and represents the result with phase objects whose
size is independent of N:

* :func:`symbolic_not_applicable_reason` — the eligibility gate, entirely
  syntactic: a single-statement rectangular perfect nest whose reference
  pairs all reduce to one uniform dependence distance ``u``
  (``T = A·B⁻¹ = I``, ``u = (a−b)·B⁻¹`` integral), solved once per analysis
  (:attr:`~repro.dependence.analysis.DependenceAnalysis.uniform_shift_pairs`).
  Nothing here touches an enumerated view.
* :func:`box_partition` — eq. 5 and the chain starts W in integer box
  arithmetic, straight from the loop box (:func:`rectangular_box`) and
  ``u``: box intersection, translation and difference (disjoint slabs,
  outermost dimension first).  :func:`build_symbolic_schedule` turns the
  boxes into phases; ``|P1| + |P2| + |P3| == |Φ|`` holds by construction.
* :class:`SymbolicDoallPhase` / :class:`CosetChainPhase` — schedule phases
  that store boxes, not points.  ``len`` / ``work`` / ``span`` are products
  and closed-form chain bounds; :meth:`~SymbolicDoallPhase.lower` builds the
  materialised :class:`~repro.core.schedule.Phase` only when a consumer
  (the interpreter, the validators, the simulator) asks for it.

The chain phase realises the ROADMAP's coset observation: for a uniform
distance ``u`` the chains are cosets of the distance lattice
(cf. :class:`repro.baselines.lattice.DistanceLattice`), i.e. strided arrays
``start + t·u`` clipped to the P2 box — no edge matching over Rd.  With
``Φ`` a box and ``Rd`` the translation by ``u``, every set is a box
translate or a box difference, which is how :func:`box_partition` builds
them::

    ran = (Φ + u) ∩ Φ        dom = (Φ − u) ∩ Φ
    P1  = Φ \\ ran            P2 = ran ∩ dom         P3 = ran \\ dom
    W   = {w ∈ P2 : w − 2u ∉ Φ} = P2 \\ (Φ + 2u)

P2 is an intersection of boxes, so it is always one box.  Walking back from
any ``p ∈ P2`` by ``u`` stays inside P2 until it hits a ``w ∈ W``
(``p − u ∈ dom`` always; ``p − u ∈ ran`` iff ``p − 2u ∈ Φ``), so the cosets
``{w + t·u}`` tile P2 exactly — :meth:`CosetChainPhase.chains`, which the
lockstep executor lowers from, asserts the tiling (``Σ len == |P2|``) as a
cheap belt-and-braces check.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..dependence.analysis import DependenceAnalysis
from ..ir.program import LoopProgram
from .partitioner import PartitioningNotApplicable
from .schedule import Phase, Schedule

__all__ = [
    "SymbolicDoallPhase",
    "CosetChainPhase",
    "Box",
    "box_count",
    "rectangular_box",
    "BoxPartition",
    "box_partition",
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


def symbolic_not_applicable_reason(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
) -> Optional[str]:
    """``None`` when the symbolic strategy applies, else a human-readable
    reason — the :class:`~repro.core.strategy.PartitionStrategy`
    applicability hook."""
    # The box spans every loop of the program, so it is the statement's
    # space only when the loops form one chain around that statement.
    if len(program.statement_contexts()) != 1 or not program.is_perfect_nest():
        return "requires a single-statement perfect nest"
    if rectangular_box(program, params) is None:
        return "requires a rectangular space (constant bounds, unit strides)"
    if analysis.uniform_shift_pairs is None:
        return (
            "requires exactly one uniform integral dependence distance "
            "(the Lemma 1 single-pair case with T = I)"
        )
    return None


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


def _box_intersect(a: Box, b: Box) -> Box:
    """``a ∩ b`` (empty when any extent comes out negative)."""
    return tuple((max(la, lb), min(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


def _box_translate(box: Box, shift: Sequence[int]) -> Box:
    """``box + shift``."""
    return tuple((lo + c, hi + c) for (lo, hi), c in zip(box, shift))


def _box_difference(a: Box, b: Box) -> List[Box]:
    """``a \\ b`` as at most ``2·d`` disjoint non-empty boxes.

    Slabs are peeled outermost dimension first: the part of ``a`` below and
    above ``b`` in dimension ``k``, with the dimensions before ``k`` already
    clipped to ``b``.
    """
    if not box_count(_box_intersect(a, b)):
        return [a] if box_count(a) else []
    out: List[Box] = []
    rest = list(a)
    for k, (lb, hb) in enumerate(b):
        lo, hi = rest[k]
        if lo < lb:
            out.append(tuple(rest[:k] + [(lo, lb - 1)] + rest[k + 1:]))
        if hb < hi:
            out.append(tuple(rest[:k] + [(hb + 1, hi)] + rest[k + 1:]))
        rest[k] = (max(lo, lb), min(hi, hb))
    return out


class BoxPartition(NamedTuple):
    """Eq. 5's sets and W as disjoint boxes; P2 is one, possibly empty, box."""

    p1: List[Box]
    p2: Box
    p3: List[Box]
    w: List[Box]


def box_partition(phi: Box, shift: Sequence[int]) -> BoxPartition:
    """Eq. 5 for ``Φ = phi`` and ``Rd = {i − u → i}``, in box arithmetic.

    ``shift`` is the lex-positive distance ``u``; see the module docstring
    for the four formulas.  O(d²) integer work, whatever the size of Φ.
    """
    neg = tuple(-c for c in shift)
    ran = _box_intersect(_box_translate(phi, shift), phi)
    dom = _box_intersect(_box_translate(phi, neg), phi)
    p2 = _box_intersect(ran, dom)
    two_u = tuple(2 * c for c in shift)
    return BoxPartition(
        p1=_box_difference(phi, ran),
        p2=p2,
        p3=_box_difference(ran, dom),
        w=_box_difference(p2, _box_translate(phi, two_u)),
    )


def build_symbolic_schedule(
    program: LoopProgram,
    params: Mapping[str, int],
    analysis: DependenceAnalysis,
) -> Schedule:
    """The Theorem 1 schedule from the closed-form partition, O(1) in |Φ|.

    Three phases — P1 DOALL, the coset chains over P2, P3 DOALL — each
    represented by boxes built by :func:`box_partition` from the loop box
    and the shift, so ``|P1| + |P2| + |P3| == |Φ|`` holds by construction.
    """
    reason = symbolic_not_applicable_reason(program, params, analysis)
    if reason is not None:
        raise PartitioningNotApplicable(reason)
    shift, _ = analysis.uniform_shift_pairs
    phi = rectangular_box(program, params)
    part = box_partition(phi, shift)
    n_p2 = box_count(part.p2)
    assert (
        sum(map(box_count, part.p1)) + n_p2 + sum(map(box_count, part.p3))
        == box_count(phi)
    ), "box partition does not cover the iteration space"

    phases = [SymbolicDoallPhase("P1-doall", part.p1)]
    if n_p2:
        phases.append(CosetChainPhase("P2-chains", part.w, shift, part.p2))
    phases.append(SymbolicDoallPhase("P3-doall", part.p3))
    return Schedule.for_program(
        f"symbolic-{program.name}",
        program,
        phases,
        scheme="symbolic",
        shift=shift,
        backend_hint=(
            "compiled (lockstep kernel lowered in closed form from the boxes "
            "and cosets; serial fallback)"
        ),
    )
