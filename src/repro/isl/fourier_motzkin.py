"""Fourier–Motzkin elimination over affine constraints.

Eliminating a variable from a conjunction of affine constraints produces the
projection of the (rational) solution set onto the remaining variables.  The
package uses it for the conservative per-variable bounds of convex sets
(:meth:`~repro.isl.convex.ConvexSet.variable_bounds`), which the exact
analyser enumerates statement domains between.

The rows are canonical integer rows (:class:`~repro.isl.convex.Constraint`),
and both steps stay integral: a lower and an upper bound combine by integer
multiples, and substituting through an equality ``a*x + e == 0`` scales the
other row by ``|a|`` first, so no division is needed.  Each result row is made
canonical again, which also tightens it over the integers.

The integer projection is in general a superset of the true integer shadow
(dark-shadow/Omega-test refinements are not implemented); all *exact* integer
reasoning in this package is done by enumeration of bounded sets, and FME is
used only where a conservative rational answer is sound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .convex import _FALSE, Constraint, ConvexSet, EQ, GE, _canonical

__all__ = ["eliminate_variable", "eliminate_variables", "project_onto"]


def _substitute_equality(constraints: List[Constraint], name: str) -> List[Constraint] | None:
    """If an equality pins ``name``, substitute it and return new constraints.

    With the equality ``a*name + e == 0`` every other row ``c*name + r``
    becomes ``|a|*row - sign(a)*c*eq``, in which ``name`` cancels.  Returns
    ``None`` when no usable equality exists.
    """
    for idx, eq in enumerate(constraints):
        if eq.kind != EQ:
            continue
        a = eq.coeff(name)
        if a == 0:
            continue
        scale = abs(a)
        out = []
        for j, row in enumerate(constraints):
            if j == idx:
                continue
            c = row.coeff(name)
            if c == 0:
                out.append(row)
                continue
            t = c if a > 0 else -c
            acc: Dict[str, int] = {n: scale * v for n, v in row.coeffs}
            for n, v in eq.coeffs:
                acc[n] = acc.get(n, 0) - t * v
            out.append(_canonical(row.kind, acc, scale * row.constant - t * eq.constant))
        return out
    return None


def eliminate_variable(constraints: Iterable[Constraint], name: str) -> List[Constraint]:
    """Eliminate one variable from a conjunction of constraints."""
    cons = list(constraints)
    # Prefer substitution through an equality: exact and cheap.
    substituted = _substitute_equality(cons, name)
    if substituted is not None:
        return substituted

    # No equality mentions ``name`` now, so every row that does is a bound.
    lowers: List[Tuple[int, Constraint]] = []   # a*name + rest >= 0, a > 0
    uppers: List[Tuple[int, Constraint]] = []   # -b*name + rest >= 0, b > 0
    result: List[Constraint] = []
    for c in cons:
        coeff = c.coeff(name)
        if coeff == 0:
            result.append(c)
        elif coeff > 0:
            lowers.append((coeff, c))
        else:
            uppers.append((-coeff, c))

    for a, lo in lowers:
        for b, up in uppers:
            # name >= -lo_rest/a and name <= up_rest/b: b*lo_rest + a*up_rest >= 0
            acc: Dict[str, int] = {n: b * v for n, v in lo.coeffs if n != name}
            for n, v in up.coeffs:
                if n != name:
                    acc[n] = acc.get(n, 0) + a * v
            result.append(_canonical(GE, acc, b * lo.constant + a * up.constant))
    return result


def eliminate_variables(constraints: Iterable[Constraint], names: Sequence[str]) -> List[Constraint]:
    """Eliminate several variables in the given order."""
    cons = list(constraints)
    for name in names:
        cons = eliminate_variable(cons, name)
        # Early exit on contradiction keeps the combinatorics in check.
        if any(c.is_contradiction() for c in cons):
            return [_FALSE]
        cons = _prune(cons)
    return cons


def _prune(constraints: List[Constraint]) -> List[Constraint]:
    """Drop tautologies and duplicates to limit FME blow-up."""
    return [c for c in dict.fromkeys(constraints) if not c.is_tautology()]


def project_onto(cs: ConvexSet, names: Sequence[str]) -> ConvexSet:
    """Project the set onto the given variables (eliminating all others)."""
    keep = set(names)
    drop = [v for v in cs.variables if v not in keep]
    remaining = tuple(v for v in cs.variables if v in keep)
    cons = eliminate_variables(list(cs.constraints), drop)
    return ConvexSet(remaining, tuple(cons), cs.parameters).simplified()
