"""Affine expressions over named integer variables.

An :class:`AffineExpr` is ``sum_k c_k * v_k + c0`` with exact rational
coefficients.  It is the common currency between the loop-nest IR
(:mod:`repro.ir`) and the dependence analyser: loop bounds and array
subscripts are affine expressions, and each node also keeps them as integer
rows (:func:`repro.ir.nodes.integer_row`) for the analyser's array code.

Variables are plain strings; expressions are immutable and hashable so they
can be used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

__all__ = ["AffineExpr", "var", "const"]

Coeff = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class AffineExpr:
    """An immutable affine expression ``sum(coeffs[v] * v) + constant``."""

    coeffs: Tuple[Tuple[str, Fraction], ...] = ()
    constant: Fraction = Fraction(0)

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(coeffs: Mapping[str, Coeff] | None = None, constant: Coeff = 0) -> "AffineExpr":
        """Build an expression from a coefficient mapping, dropping zeros."""
        items = []
        if coeffs:
            for name, c in coeffs.items():
                f = _frac(c)
                if f != 0:
                    items.append((name, f))
        items.sort(key=lambda kv: kv[0])
        return AffineExpr(tuple(items), _frac(constant))

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        return AffineExpr.build({name: 1})

    @staticmethod
    def constant_expr(value: Coeff) -> "AffineExpr":
        return AffineExpr.build({}, value)

    @staticmethod
    def from_any(value) -> "AffineExpr":
        """Coerce ints, Fractions, strings (variable names) and exprs."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, str):
            return AffineExpr.variable(value)
        if isinstance(value, (int, Fraction)):
            return AffineExpr.constant_expr(value)
        raise TypeError(f"cannot build AffineExpr from {value!r}")

    # -- accessors ----------------------------------------------------------

    @property
    def coeff_map(self) -> Dict[str, Fraction]:
        return dict(self.coeffs)

    def coeff(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 if the variable does not occur)."""
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        """True when every coefficient and the constant are integers."""
        return self.constant.denominator == 1 and all(
            c.denominator == 1 for _, c in self.coeffs
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "AffineExpr":
        other = AffineExpr.from_any(other)
        coeffs = self.coeff_map
        for n, c in other.coeffs:
            coeffs[n] = coeffs.get(n, Fraction(0)) + c
        return AffineExpr.build(coeffs, self.constant + other.constant)

    def __radd__(self, other) -> "AffineExpr":
        return self.__add__(other)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr.build({n: -c for n, c in self.coeffs}, -self.constant)

    def __sub__(self, other) -> "AffineExpr":
        return self + (-AffineExpr.from_any(other))

    def __rsub__(self, other) -> "AffineExpr":
        return AffineExpr.from_any(other) + (-self)

    def __mul__(self, scalar: Coeff) -> "AffineExpr":
        f = _frac(scalar)
        return AffineExpr.build({n: c * f for n, c in self.coeffs}, self.constant * f)

    def __rmul__(self, scalar: Coeff) -> "AffineExpr":
        return self.__mul__(scalar)

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, assignment: Mapping[str, Coeff]) -> Fraction:
        """Evaluate under a complete assignment of the occurring variables."""
        total = self.constant
        for n, c in self.coeffs:
            if n not in assignment:
                raise KeyError(f"no value for variable {n!r}")
            total += c * _frac(assignment[n])
        return total

    def substitute(self, mapping: Mapping[str, Union["AffineExpr", Coeff, str]]) -> "AffineExpr":
        """Substitute variables by expressions (or constants/variable names)."""
        result = AffineExpr.constant_expr(self.constant)
        for n, c in self.coeffs:
            if n in mapping:
                result = result + AffineExpr.from_any(mapping[n]) * c
            else:
                result = result + AffineExpr.build({n: c})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables."""
        return AffineExpr.build(
            {mapping.get(n, n): c for n, c in self.coeffs}, self.constant
        )

    def drop(self, names: Iterable[str]) -> "AffineExpr":
        """Remove the given variables (as if their coefficient were zero)."""
        names = set(names)
        return AffineExpr.build(
            {n: c for n, c in self.coeffs if n not in names}, self.constant
        )

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for n, c in self.coeffs:
            if c == 1:
                parts.append(f"+{n}")
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{n}")
        if self.constant != 0 or not parts:
            parts.append(f"{'+' if self.constant >= 0 else '-'}{abs(self.constant)}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineExpr({self})"


def var(name: str) -> AffineExpr:
    """Shortcut: the affine expression consisting of a single variable."""
    return AffineExpr.variable(name)


def const(value: Coeff) -> AffineExpr:
    """Shortcut: a constant affine expression."""
    return AffineExpr.constant_expr(value)
