"""Unions of convex sets (the "disjunctive" layer of the integer-set library).

The three-set partitioning of the paper manipulates sets built by ``∩, ∪, \\,
dom, ran`` from the iteration space and the dependence relation, and the
result of those operations is in general *not* convex — it is a finite union
of convex sets.  :class:`UnionSet` implements those operations, keeping each
member convex so that the code generator can later emit one DOALL loop nest
per convex member (exactly as Algorithm 1's ``DOALLCodeGeneration`` does by
splitting a set into disjoint convex sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .convex import Constraint, ConvexSet, EQ, GE

__all__ = ["UnionSet"]


@dataclass(frozen=True)
class UnionSet:
    """A finite union of :class:`ConvexSet` members over the same variables."""

    variables: Tuple[str, ...]
    members: Tuple[ConvexSet, ...] = ()
    parameters: Tuple[str, ...] = ()

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def empty(variables: Sequence[str], parameters: Sequence[str] = ()) -> "UnionSet":
        return UnionSet(tuple(variables), (), tuple(parameters))

    @staticmethod
    def universe(variables: Sequence[str], parameters: Sequence[str] = ()) -> "UnionSet":
        return UnionSet(
            tuple(variables),
            (ConvexSet.universe(variables, parameters),),
            tuple(parameters),
        )

    @staticmethod
    def from_convex(cs: ConvexSet) -> "UnionSet":
        return UnionSet(cs.variables, (cs,), cs.parameters)

    @staticmethod
    def from_members(
        variables: Sequence[str],
        members: Iterable[ConvexSet],
        parameters: Sequence[str] = (),
    ) -> "UnionSet":
        kept = tuple(m for m in members if not m.is_obviously_empty())
        return UnionSet(tuple(variables), kept, tuple(parameters))

    # -- structure ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.variables)

    def _check_compatible(self, other: "UnionSet") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"sets are over different spaces: {self.variables} vs {other.variables}"
            )

    def simplified(self) -> "UnionSet":
        """Drop members proven empty (cheap checks only)."""
        kept = tuple(
            m.simplified() for m in self.members if not m.simplified().is_obviously_empty()
        )
        return UnionSet(self.variables, kept, self.parameters)

    def coalesced(self, params: Mapping[str, int] | None = None) -> "UnionSet":
        """Drop members that are empty under full (integer-exact) emptiness."""
        kept = tuple(m for m in self.members if not m.is_empty(params))
        return UnionSet(self.variables, kept, self.parameters)

    def prune_rational(self) -> "UnionSet":
        """Drop members whose rational relaxation is empty (cheaper than
        :meth:`coalesced`, still sound: only provably-empty members are removed).
        Used to keep the member count of iterated set algebra under control."""
        from .convex import _rationally_infeasible

        kept = tuple(
            m for m in self.members
            if not m.is_obviously_empty() and not _rationally_infeasible(m)
        )
        return UnionSet(self.variables, kept, self.parameters)

    def bind_parameters(self, values: Mapping[str, int]) -> "UnionSet":
        remaining = tuple(p for p in self.parameters if p not in values)
        return UnionSet(
            self.variables,
            tuple(m.bind_parameters(values) for m in self.members),
            remaining,
        ).simplified()

    def rename_variables(self, mapping: Mapping[str, str]) -> "UnionSet":
        return UnionSet(
            tuple(mapping.get(v, v) for v in self.variables),
            tuple(m.rename_variables(mapping) for m in self.members),
            tuple(mapping.get(p, p) for p in self.parameters),
        )

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "UnionSet") -> "UnionSet":
        self._check_compatible(other)
        params = tuple(dict.fromkeys(self.parameters + other.parameters))
        return UnionSet(self.variables, self.members + other.members, params).simplified()

    def intersect(self, other: "UnionSet") -> "UnionSet":
        self._check_compatible(other)
        params = tuple(dict.fromkeys(self.parameters + other.parameters))
        members: List[ConvexSet] = []
        for a in self.members:
            for b in other.members:
                members.append(
                    ConvexSet(
                        self.variables, a.constraints + b.constraints, params
                    ).simplified()
                )
        return UnionSet.from_members(self.variables, members, params)

    def subtract(self, other: "UnionSet") -> "UnionSet":
        """Set difference ``self \\ other``.

        Each convex member of ``other`` is removed in turn; removing one convex
        set from a convex set yields a union of convex sets obtained by negating
        one constraint at a time while keeping the previous ones — this also
        makes the resulting members pairwise disjoint, which the DOALL code
        generator relies on.
        """
        self._check_compatible(other)
        result = self
        for b in other.members:
            result = result._subtract_convex(b)
        return result.simplified()

    def _subtract_convex(self, b: ConvexSet) -> "UnionSet":
        params = tuple(dict.fromkeys(self.parameters + b.parameters))
        new_members: List[ConvexSet] = []
        for a in self.members:
            # a \ b = union over constraints c_i of b of
            #   a ∧ c_1 ∧ ... ∧ c_{i-1} ∧ ¬c_i
            prefix: List[Constraint] = []
            for c in b.constraints:
                for neg in c.negated():
                    piece = ConvexSet(
                        self.variables,
                        a.constraints + tuple(prefix) + (neg,),
                        params,
                    ).simplified()
                    if not piece.is_obviously_empty():
                        new_members.append(piece)
                if c.kind == EQ:
                    prefix.append(c)
                else:
                    prefix.append(c)
            if not b.constraints:
                # subtracting the universe removes everything
                continue
        return UnionSet(self.variables, tuple(new_members), params)

    # -- queries ----------------------------------------------------------------

    def contains(self, point: Sequence[int], params: Mapping[str, int] | None = None) -> bool:
        return any(m.contains(point, params) for m in self.members)

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return all(m.is_empty(params) for m in self.members)

    def enumerate(self, params: Mapping[str, int] | None = None) -> List[Tuple[int, ...]]:
        """All integer points (bounded sets only), sorted lexicographically.

        Points belonging to several members are reported once.
        """
        from .enumerate_points import enumerate_convex

        seen = set()
        for m in self.members:
            for p in enumerate_convex(m, params):
                seen.add(p)
        return sorted(seen)

    def count(self, params: Mapping[str, int] | None = None) -> int:
        return len(self.enumerate(params))

    def sample_point(self, params: Mapping[str, int] | None = None) -> Optional[Tuple[int, ...]]:
        for m in self.members:
            p = m.sample_point(params)
            if p is not None:
                return p
        return None

    # -- display ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.members:
            return f"{{ [{', '.join(self.variables)}] : false }}"
        return " ∪ ".join(str(m) for m in self.members)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnionSet({self})"
