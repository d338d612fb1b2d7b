"""Whole-program dependence analysis.

:class:`DependenceAnalysis` ties the pieces of this package together: it
enumerates the coupled reference pairs of a program, runs the exact analyser
on each for concrete parameter values, and exposes the views the partitioners
consume:

* the program's one iteration space, :attr:`DependenceAnalysis.space`: the
  §3.3 statement-level space of every statement instance and the combined
  relation ``Rd`` over it, held as row-index pairs into the space and
  oriented so every pair maps the lexicographically earlier instance to the
  later one (eq. 4).  A one-statement program's space is its plain
  iteration space;
* per reference-pair finite relations (:attr:`~DependenceAnalysis.pair_dependences`,
  a view derived on demand that planning never reads),
* summary facts: is there a single coupled pair?  is it square and full rank?
  are the dependences uniform?

Results are cached; the analysis object is intended to be created once per
(program, parameter binding) and passed around.

The analysis is **array-native end to end** for concrete spaces: each
statement's domain is enumerated once into an ``(n, depth)`` int64 array
(:meth:`DependenceAnalysis.statement_domain_array`), the exact analyser
joins address keys on sorted int64 arrays (:mod:`repro.dependence.exact`),
and Rd is built once, by one join per reference pair, straight into row
indices of the space; the uniformity check reads those indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ir.program import LoopProgram
from ..isl.linalg import int_adjugate
from ..isl.relations import FiniteRelation, readonly_view
from .exact import enumerate_domain, exact_pair_dependences
from .pair import ReferencePair
from .distance import classify_pair, is_uniform_distances

if TYPE_CHECKING:
    from ..core.statement import StatementLevelSpace

__all__ = ["DependenceAnalysis", "StatementPairDependence"]


@dataclass(frozen=True)
class StatementPairDependence:
    """Exact dependences of one reference pair, with its classification."""

    pair: ReferencePair
    relation: FiniteRelation

    @property
    def source_label(self) -> str:
        return self.pair.source_ctx.statement.label

    @property
    def target_label(self) -> str:
        return self.pair.target_ctx.statement.label

    def is_empty(self) -> bool:
        return self.relation.is_empty()


@dataclass
class DependenceAnalysis:
    """Exact dependence analysis of a loop program at concrete parameter values.

    The address joins run on sorted int64 keys and every relation is combined
    on its array form.  The program must bind every parameter in ``params``
    and have unit-stride loops (:func:`repro.ir.normalize.normalize_program`
    rewrites any other); both are checked on construction, before any
    feature or strategy reads the analysis.
    """

    program: LoopProgram
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        missing = [p for p in self.program.parameters if p not in self.params]
        if missing:
            raise ValueError(
                f"program {self.program.name!r} has unbound parameters {missing}; "
                f"pass concrete values in params"
            )
        for loop in self.program.loops():
            if loop.stride != 1:
                raise ValueError(
                    f"program {self.program.name!r}: loop {loop.index} has stride "
                    f"{loop.stride}; the analysis needs unit-stride loops, so rewrite "
                    f"the program with repro.ir.normalize.normalize_program first"
                )

    # -- reference pairs --------------------------------------------------------

    @cached_property
    def reference_pairs(self) -> List[ReferencePair]:
        """Candidate dependence equations: same array, at least one write.

        Each unordered reference pair is analysed once (the exact analyser
        handles both orientations internally).  A reference is keyed by its
        statement, array and integer subscript rows, which identify it as
        its rational subscripts do, at the cost of hashing ints.
        """
        pairs: List[ReferencePair] = []
        seen = set()
        for ctx1, r1, ctx2, r2 in self.program.reference_pairs():
            key = frozenset([
                (ctx1.statement.label, r1.array, r1.subscript_rows),
                (ctx2.statement.label, r2.array, r2.subscript_rows),
            ])
            if key in seen:
                continue
            seen.add(key)
            pairs.append(ReferencePair(ctx1, r1, ctx2, r2))
        return pairs

    @cached_property
    def coupled_pairs(self) -> List[ReferencePair]:
        return [p for p in self.reference_pairs if p.is_coupled()]

    # -- exact dependences -------------------------------------------------------

    @cached_property
    def pair_dependences(self) -> List[StatementPairDependence]:
        """Exact direct dependences of every reference pair (source→target of eq. 2).

        A view derived on demand, one relation per reference pair, that only
        tests and reports read: planning never materialises it.  The space's
        Rd and each pair's non-empty flag come from one join per pair in the
        space builder (:attr:`space`, ``space.pair_flags``).  Every pair join
        here reads its two statements' domains from the shared per-statement
        cache (:meth:`statement_domain_array`).
        """
        out = []
        for pair in self.reference_pairs:
            for ctx in (pair.source_ctx, pair.target_ctx):
                self.statement_domain_array(ctx.statement.label)
            rel = exact_pair_dependences(
                pair,
                self.params,
                self.program.parameters,
                domains=self._domain_cache,
            )
            out.append(StatementPairDependence(pair, rel))
        return out

    @cached_property
    def _domain_cache(self) -> Dict[str, np.ndarray]:
        return {}

    def statement_domain_array(self, label: str) -> np.ndarray:
        """One statement's iteration domain as ``(n, depth)`` int64 rows.

        Lexicographic row order (:func:`~repro.dependence.exact.enumerate_domain`),
        cached per statement — shared by every reference-pair join and by the
        statement-level space builder (:mod:`repro.core.statement`), so the
        possibly non-rectangular enumeration runs once per statement.
        """
        cache = self._domain_cache
        if label not in cache:
            # Read-only: the same array is handed to every pair join and to
            # the statement-space builder; an in-place edit through any of
            # them must raise, not silently corrupt the shared cache.
            cache[label] = readonly_view(
                enumerate_domain(
                    self.program.context_of(label), self.params, self.program.parameters
                )
            )
        return cache[label]

    @cached_property
    def space(self) -> "StatementLevelSpace":
        """The program's one iteration space: the §3.3 statement-level space.

        Every statement instance as one unified row (lexicographic ==
        sequential order), the statement of each row, and the combined
        relation Rd over those rows as row-index pairs, every pair oriented
        from the earlier instance to the later one and self-pairs dropped
        (eq. 4).  A
        one-statement program's rows are its iteration vectors, so its space
        and Rd are the plain iteration space and iteration-level relation.
        Built once per analysis (:func:`repro.core.statement.build_statement_space`)
        and read by the features, every builder and ``Plan.validate()``.
        """
        # Imported lazily: the space module sits above this one.
        from ..core.statement import build_statement_space

        return build_statement_space(self.program, self.params, self)

    # -- the Lemma 1 single-uniform-distance case ----------------------------------

    @cached_property
    def uniform_shift_pairs(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """``(u, n_active_pairs)`` for the single-uniform-distance case, or ``None``.

        Syntactic: every reference pair of a single-statement program must be
        a uniform full-rank recurrence (``T = I``); pairs with a non-integral
        or zero shift carry no cross-iteration dependence and are dropped, and
        exactly one lex-positive distance ``u`` must remain, carried by
        ``n_active_pairs`` pairs.  Solved once and read by the feature
        extractor, the ``symbolic`` gate and its builder.

        Each pair's integer matrices are read once: ``A == B`` with ``B``
        square and invertible makes ``T = A·B⁻¹ = I``, so only the shift
        ``u = (a − b)·B⁻¹`` is solved (``ReferencePair.recurrence`` forms
        ``T`` as well, for the Lemma 1 callers that need it).  ``B⁻¹`` is
        formed once per distinct ``B``, fraction-free as ``adj(B) / det(B)``,
        and every pair's shift is an integer product with it.
        A subscript with a parameter or a non-integer coefficient or offset
        (which the IR validator rejects) gives ``None``.
        """
        if len(self.program.statement_contexts()) != 1:
            return None
        adjugates: Dict[Tuple[Tuple[int, ...], ...], Tuple[List[List[int]], int]] = {}
        shifts = set()
        active = 0
        for pair in self.reference_pairs:
            try:
                A, a = pair.source_ref.integer_coefficient_matrix(pair.source_indices)
                B, b = pair.target_ref.integer_coefficient_matrix(pair.target_indices)
                if not A or A != B:
                    return None  # not a uniform recurrence
                key = tuple(map(tuple, B))
                if key not in adjugates:
                    adjugates[key] = int_adjugate(B)
            except ValueError:
                return None  # B not square, or a non-integer subscript
            adj, det = adjugates[key]
            if det == 0:
                return None  # B singular: no recurrence
            diff = [x - y for x, y in zip(a, b)]
            numer = [sum(d * row[k] for d, row in zip(diff, adj)) for k in range(len(diff))]
            if any(x % det for x in numer):
                continue  # non-integral shift: the pair has no solutions
            u_int = tuple(x // det for x in numer)
            if not any(u_int):
                continue  # zero distance: no cross-iteration dependence
            if next(c for c in u_int if c) < 0:
                u_int = tuple(-c for c in u_int)
            shifts.add(u_int)
            active += 1
        if len(shifts) != 1:
            return None
        return shifts.pop(), active

    # -- summary facts -------------------------------------------------------------

    @cached_property
    def classifications(self):
        return [classify_pair(p) for p in self.coupled_pairs]

    @cached_property
    def dependent_coupled_pairs(self) -> List[ReferencePair]:
        """The coupled reference pairs that generate dependences (read off
        the space builder's per-pair flags, ``space.pair_flags``)."""
        return [
            pair
            for pair, dependent in zip(self.reference_pairs, self.space.pair_flags)
            if dependent and pair.is_coupled()
        ]

    def has_single_coupled_pair(self) -> bool:
        """True when exactly one coupled reference pair generates dependences."""
        return len(self.dependent_coupled_pairs) == 1

    def single_coupled_pair(self) -> Optional[ReferencePair]:
        """That one pair (see :meth:`has_single_coupled_pair`), else ``None``."""
        pairs = self.dependent_coupled_pairs
        return pairs[0] if len(pairs) == 1 else None

    def is_uniform(self) -> bool:
        """Exhaustive uniformity check of Rd over the space's rows
        (:func:`~repro.dependence.distance.is_uniform_distances`).

        Read on the space's own indices: its rows are unique and sorted and
        every pair of Rd lies inside it, so neither a row dedup nor an
        in-space filter is needed, and the rows' keys come from the space's
        one cached codec.
        """
        space = self.space
        if not len(space.rd_lo):
            return True
        rows = space.unified_array
        codec, keys = space.keys()
        return is_uniform_distances(
            rows, codec, keys, rows[space.rd_hi] - rows[space.rd_lo]
        )

    def has_dependences(self) -> bool:
        return len(self.space.rd_lo) > 0

    def summary(self) -> Dict[str, object]:
        """A small dict of headline facts, convenient for reports and tests.

        Uniformity (§2) is a property of a perfect nest's distances; any
        other program reports ``None`` there.
        """
        return {
            "program": self.program.name,
            "params": dict(self.params),
            "n_reference_pairs": len(self.reference_pairs),
            "n_coupled_pairs": len(self.coupled_pairs),
            "n_direct_dependences": len(self.space.rd),
            "single_coupled_pair": self.has_single_coupled_pair(),
            "uniform": self.is_uniform() if self.program.is_perfect_nest() else None,
        }
