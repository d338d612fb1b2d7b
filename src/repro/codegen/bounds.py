"""Loop-bound generation from convex sets (Fourier–Motzkin code generation).

Algorithm 1 hands every fully parallel set to ``DOALLCodeGeneration``, which
separates the set into disjoint convex sets and generates one DOALL loop nest
per convex set, bounded by that set's constraints.  The bounds of loop level
``k`` come from eliminating the deeper variables and collecting, among the
remaining constraints, the lower/upper bounds on variable ``k`` as affine
expressions of the outer variables — rounded with ceiling/floor division
because the coefficients need not be ±1.  Constraints that are not usable as
bounds (equalities, or inequalities the projection could not tighten into the
bounds) become ``IF`` guards at the innermost level, exactly like the
``IF (i1-3.le.3*((i1-2)/3))`` guards in the paper's listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isl.affine import AffineExpr
from ..isl.convex import Constraint, ConvexSet, EQ
from ..isl.fourier_motzkin import eliminate_variables

__all__ = ["BoundExpr", "LoopBounds", "NestBounds", "nest_bounds", "render_affine"]


def render_affine(expr: AffineExpr) -> str:
    """Render an affine expression in Fortran-ish source syntax."""
    parts: List[str] = []
    for name, coeff in expr.coeffs:
        c = coeff
        if c == 1:
            term = name
        elif c == -1:
            term = f"-{name}"
        else:
            term = f"{c}*{name}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    if expr.constant != 0 or not parts:
        c = expr.constant
        if parts and c > 0:
            parts.append(f"+{c}")
        else:
            parts.append(f"{c}")
    return "".join(parts)


@dataclass(frozen=True)
class BoundExpr:
    """One bound: ``expr / divisor`` with ceiling (lower) or floor (upper) rounding."""

    expr: AffineExpr
    divisor: int
    is_lower: bool

    def render(self) -> str:
        body = render_affine(self.expr)
        if self.divisor == 1:
            return body
        if self.is_lower:
            # ceil(e/d) == floor((e + d - 1)/d) for positive d
            return f"({render_affine(self.expr + (self.divisor - 1))})/{self.divisor}"
        return f"({body})/{self.divisor}"

    def evaluate(self, env) -> int:
        value = self.expr.evaluate(env)
        if self.is_lower:
            return -((-value) // self.divisor)  # ceiling division
        return value // self.divisor  # floor division


@dataclass(frozen=True)
class LoopBounds:
    """All lower and upper bounds of one loop level (MAX of lowers, MIN of uppers)."""

    variable: str
    lowers: Tuple[BoundExpr, ...]
    uppers: Tuple[BoundExpr, ...]

    def render_lower(self) -> str:
        rendered = [b.render() for b in self.lowers] or ["-infinity"]
        return rendered[0] if len(rendered) == 1 else "MAX(" + ", ".join(rendered) + ")"

    def render_upper(self) -> str:
        rendered = [b.render() for b in self.uppers] or ["+infinity"]
        return rendered[0] if len(rendered) == 1 else "MIN(" + ", ".join(rendered) + ")"


@dataclass(frozen=True)
class NestBounds:
    """Per-level bounds plus leftover guard constraints for one convex set."""

    levels: Tuple[LoopBounds, ...]
    guards: Tuple[Constraint, ...]


def nest_bounds(cs: ConvexSet, order: Optional[Sequence[str]] = None) -> NestBounds:
    """Derive loop-nest bounds for a convex set in the given variable order.

    ``order`` defaults to the set's variable order (outermost first).  Equality
    constraints and any constraint that mentions variables deeper than the
    level being bounded end up as guards.
    """
    order = list(order or cs.variables)
    guards: List[Constraint] = [c for c in cs.constraints if c.kind == EQ]
    levels: List[LoopBounds] = []
    for depth, name in enumerate(order):
        outer = set(order[:depth])
        deeper = order[depth + 1:]
        projected = eliminate_variables(
            [c for c in cs.constraints if c.kind != EQ], deeper
        )
        lowers: List[BoundExpr] = []
        uppers: List[BoundExpr] = []
        for c in projected:
            coeff = c.coeff(name)
            if coeff == 0:
                continue
            if any(v != name and v not in outer and v not in cs.parameters for v, _ in c.coeffs):
                guards.append(c)
                continue
            # c: coeff*name + rest >= 0, with integer coefficients
            rest = AffineExpr.build({v: k for v, k in c.coeffs if v != name}, c.constant)
            if coeff > 0:
                # name >= ceil((-rest)/coeff)
                lowers.append(BoundExpr(expr=-rest, divisor=coeff, is_lower=True))
            else:
                # name <= floor(rest/(-coeff))
                uppers.append(BoundExpr(expr=rest, divisor=-coeff, is_lower=False))
        levels.append(LoopBounds(name, tuple(lowers), tuple(uppers)))
    return NestBounds(tuple(levels), tuple(guards))
