"""Classic conservative dependence tests: GCD and Banerjee bounds.

The recurrence-chain partitioner itself relies on *exact* dependences, but the
paper positions it against the classic compile-time tests, and the statistics
experiment (E12) needs a cheap classifier for large synthetic corpora.  Both
tests answer "can the dependence equation have a solution?" conservatively:

* :func:`gcd_test` — a linear diophantine equation ``Σ c_k x_k = c0`` has an
  integer solution iff ``gcd(c_k) | c0``; applied per array dimension.  If any
  dimension fails, the references are independent.
* :func:`banerjee_test` — bounds the LHS−RHS expression over the (rational)
  iteration box; if 0 lies outside ``[min, max]`` there is no solution.

Both may report "maybe dependent" for actually-independent pairs (that is what
conservative means), but must never report "independent" for a dependent pair —
a property the test suite checks against the exact analyser.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..isl.affine import AffineExpr
from ..isl.convex import Constraint
from .pair import ReferencePair

__all__ = ["DependenceTestResult", "gcd_test", "banerjee_test", "combined_test"]


@dataclass(frozen=True)
class DependenceTestResult:
    """Outcome of a conservative dependence test."""

    independent: bool
    reason: str

    def __bool__(self) -> bool:  # truthy == "provably independent"
        return self.independent


def _difference_expressions(pair: ReferencePair) -> List[AffineExpr]:
    """Per-dimension expressions ``src_subscript(i) − dst_subscript(j)``.

    Source iteration variables keep their names; target iteration variables are
    renamed with a ``'`` suffix so the two sides do not collide even when the
    statements share loop index names (same-statement pairs always do).
    """
    rename = {name: name + "'" for name in pair.target_indices}
    out = []
    for s_sub, t_sub in zip(pair.source_ref.subscripts, pair.target_ref.subscripts):
        out.append(s_sub - t_sub.rename(rename))
    if len(pair.source_ref.subscripts) != len(pair.target_ref.subscripts):
        raise ValueError("reference pair with mismatched array ranks")
    return out


def gcd_test(pair: ReferencePair) -> DependenceTestResult:
    """Per-dimension GCD test.  ``independent=True`` means provably no solution."""
    for dim, expr in enumerate(_difference_expressions(pair)):
        # The integer row of ``expr == 0`` keeps its coefficients' gcd exactly
        # when that gcd does not divide the constant.
        row = Constraint.eq(expr)
        if not row.is_contradiction():
            continue
        if not row.coeffs:
            return DependenceTestResult(True, f"dimension {dim}: constant mismatch")
        g = gcd(*[c for _, c in row.coeffs])
        return DependenceTestResult(
            True, f"dimension {dim}: gcd {g} does not divide {row.constant}"
        )
    return DependenceTestResult(False, "gcd test cannot disprove a solution")


def _variable_ranges(
    pair: ReferencePair, params: Mapping[str, int]
) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Rational ranges for source variables and primed target variables."""
    ranges: Dict[str, Tuple[Fraction, Fraction]] = {}

    def add(ctx, suffix: str):
        domain = ctx.domain().bind_parameters(params)
        for v in domain.variables:
            lo, hi = domain.variable_bounds(v)
            if lo is None or hi is None:
                raise ValueError(f"unbounded loop variable {v}")
            ranges[v + suffix] = (Fraction(lo), Fraction(hi))

    add(pair.source_ctx, "")
    add(pair.target_ctx, "'")
    return ranges


def banerjee_test(pair: ReferencePair, params: Mapping[str, int]) -> DependenceTestResult:
    """Banerjee bounds test over the rectangular hull of the iteration domains."""
    try:
        ranges = _variable_ranges(pair, params)
    except ValueError as exc:
        return DependenceTestResult(False, f"cannot bound variables: {exc}")
    for dim, expr in enumerate(_difference_expressions(pair)):
        lo = expr.constant
        hi = expr.constant
        for name, coeff in expr.coeffs:
            if name not in ranges:
                # Parameter occurring directly in a subscript: cannot bound.
                return DependenceTestResult(False, f"unbounded symbol {name}")
            vlo, vhi = ranges[name]
            if coeff > 0:
                lo += coeff * vlo
                hi += coeff * vhi
            else:
                lo += coeff * vhi
                hi += coeff * vlo
        if lo > 0 or hi < 0:
            return DependenceTestResult(
                True, f"dimension {dim}: range [{lo}, {hi}] excludes 0"
            )
    return DependenceTestResult(False, "banerjee bounds include 0 in every dimension")


def combined_test(pair: ReferencePair, params: Mapping[str, int]) -> DependenceTestResult:
    """GCD then Banerjee; independent when either one disproves the dependence."""
    g = gcd_test(pair)
    if g.independent:
        return g
    b = banerjee_test(pair, params)
    if b.independent:
        return b
    return DependenceTestResult(False, "neither GCD nor Banerjee disproves the dependence")
