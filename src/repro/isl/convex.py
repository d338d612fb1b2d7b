"""Convex integer sets described by affine constraints.

A :class:`ConvexSet` is a conjunction of affine constraints (equalities and
``>= 0`` inequalities) over a fixed, ordered tuple of integer variables, plus
an optional tuple of symbolic parameters (loop bounds such as ``N1`` that are
unknown at compile time).  It is the Python analogue of a single conjunct in
the Omega library's Presburger formulas — sufficient for what the exact
dependence analyser needs: parameter binding, point membership and
per-variable bounds by projection (Fourier–Motzkin, see
:mod:`repro.isl.fourier_motzkin`), between which it enumerates a statement's
domain.

Each :class:`Constraint` is a canonical integer row: its kind, a sorted
tuple of ``(name, int)`` coefficients and an ``int`` constant, with the
coefficients divided by their gcd and ``>=`` constants floor-tightened.  The
rational :class:`~repro.isl.affine.AffineExpr` of the IR is converted once,
in the constructors; simplification, elimination, membership and bounds then
run on Python ints, and :attr:`Constraint.expr` derives the rational form
back for display.

Finite relations live in :mod:`repro.isl.relations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .affine import AffineExpr

__all__ = ["Constraint", "ConvexSet", "EQ", "GE"]

EQ = "=="
GE = ">="


def _canonical(kind: str, coeffs: Mapping[str, int], constant: int) -> "Constraint":
    """The canonical row of ``sum(coeffs[v] * v) + constant`` (``kind``) 0.

    Zero coefficients are dropped and the rest sorted by name.  The
    coefficients are divided by their gcd ``g``: a ``>=`` constant becomes
    ``floor(constant / g)``, which is exact over the integers; an equality
    constant is divided when ``g`` divides it, and otherwise the row is kept
    as it is (it has no integer solution, see :meth:`Constraint.is_contradiction`).
    """
    items = sorted([(n, c) for n, c in coeffs.items() if c])
    g = gcd(*[c for _, c in items])
    if g > 1 and (kind == GE or constant % g == 0):
        items = [(n, c // g) for n, c in items]
        constant //= g
    return tuple.__new__(Constraint, (kind, tuple(items), constant))


class _Row(NamedTuple):
    kind: str  # EQ or GE
    coeffs: Tuple[Tuple[str, int], ...]  # sorted by name, no zeros
    constant: int


class Constraint(_Row):
    """A single affine constraint ``expr == 0`` or ``expr >= 0``, held as a
    canonical integer row: ``(kind, coeffs, constant)``.

    Every constructor returns the canonical form (see :func:`_canonical`), so
    two rows that are positive multiples of each other are equal and hash
    alike.  Rational :class:`AffineExpr` operands are converted once, here;
    everything below works on Python ints.  :attr:`expr` derives the
    rational expression back for readers outside the constraint core.
    """

    __slots__ = ()

    def __new__(cls, kind: str, coeffs: Iterable[Tuple[str, int]] | Mapping[str, int] = (),
                constant: int = 0) -> "Constraint":
        """The canonical row from integer coefficients (pairs or a mapping)."""
        if kind not in (EQ, GE):
            raise ValueError(f"unknown constraint kind {kind!r}")
        return _canonical(kind, dict(coeffs), int(constant))

    def __getnewargs__(self):
        # pickle and copy rebuild the row through __new__ from its fields.
        return tuple(self)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_expr(expr: AffineExpr, kind: str) -> "Constraint":
        """``expr == 0`` or ``expr >= 0``: scaled by the lcm of its
        denominators, then made canonical."""
        lcm = expr.constant.denominator
        for _, c in expr.coeffs:
            d = c.denominator
            lcm = lcm // gcd(lcm, d) * d
        return Constraint(
            kind,
            {n: c.numerator * (lcm // c.denominator) for n, c in expr.coeffs},
            expr.constant.numerator * (lcm // expr.constant.denominator),
        )

    @staticmethod
    def eq(lhs, rhs=0) -> "Constraint":
        """``lhs == rhs``"""
        return Constraint.from_expr(AffineExpr.from_any(lhs) - AffineExpr.from_any(rhs), EQ)

    @staticmethod
    def ge(lhs, rhs=0) -> "Constraint":
        """``lhs >= rhs``"""
        return Constraint.from_expr(AffineExpr.from_any(lhs) - AffineExpr.from_any(rhs), GE)

    @staticmethod
    def le(lhs, rhs=0) -> "Constraint":
        """``lhs <= rhs``"""
        return Constraint.from_expr(AffineExpr.from_any(rhs) - AffineExpr.from_any(lhs), GE)

    # -- accessors ------------------------------------------------------------

    @property
    def expr(self) -> AffineExpr:
        """The row as a rational :class:`AffineExpr` (for display)."""
        return AffineExpr.build(dict(self.coeffs), self.constant)

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 if the variable does not occur)."""
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    # -- operations -----------------------------------------------------------

    def substitute(self, values: Mapping[str, int]) -> "Constraint":
        """Bind variables to integer values."""
        constant = self.constant
        coeffs: Dict[str, int] = {}
        for n, c in self.coeffs:
            if n in values:
                constant += c * int(values[n])
            else:
                coeffs[n] = c
        return _canonical(self.kind, coeffs, constant)

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        value = self.constant
        for n, c in self.coeffs:
            if n not in assignment:
                raise KeyError(f"no value for variable {n!r}")
            value += c * assignment[n]
        return value == 0 if self.kind == EQ else value >= 0

    def is_tautology(self) -> bool:
        if self.coeffs:
            return False
        return self.constant == 0 if self.kind == EQ else self.constant >= 0

    def is_contradiction(self) -> bool:
        if not self.coeffs:
            return self.constant != 0 if self.kind == EQ else self.constant < 0
        # A canonical equality keeps its coefficients' gcd only when that gcd
        # does not divide the constant: then it can never hold.
        if self.kind == EQ:
            g = gcd(*[c for _, c in self.coeffs])
            return g > 1 and self.constant % g != 0
        return False

    def __str__(self) -> str:
        return f"{self.expr} {'=' if self.kind == EQ else '>='} 0"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constraint({self})"


#: The canonical unsatisfiable row: an empty set holds this and nothing else.
_FALSE = Constraint(GE, (), -1)


@dataclass(frozen=True)
class ConvexSet:
    """A conjunction of affine constraints over ordered integer variables."""

    variables: Tuple[str, ...]
    constraints: Tuple[Constraint, ...] = ()
    parameters: Tuple[str, ...] = ()

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_constraints(
        variables: Sequence[str],
        constraints: Iterable[Constraint],
        parameters: Sequence[str] = (),
    ) -> "ConvexSet":
        return ConvexSet(tuple(variables), tuple(constraints), tuple(parameters)).simplified()

    @staticmethod
    def from_box(
        variables: Sequence[str], bounds: Sequence[Tuple[int, int]]
    ) -> "ConvexSet":
        """Rectangular set ``lo_k <= v_k <= hi_k``."""
        if len(variables) != len(bounds):
            raise ValueError("one (lo, hi) pair per variable required")
        cons = []
        for v, (lo, hi) in zip(variables, bounds):
            cons.append(Constraint.ge(AffineExpr.variable(v), lo))
            cons.append(Constraint.le(AffineExpr.variable(v), hi))
        return ConvexSet.from_constraints(variables, cons)

    # -- basic structure ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.variables)

    def bind_parameters(self, values: Mapping[str, int]) -> "ConvexSet":
        """Substitute concrete values for (a subset of) the parameters."""
        remaining = tuple(p for p in self.parameters if p not in values)
        return ConvexSet(
            self.variables,
            tuple(c.substitute(values) for c in self.constraints),
            remaining,
        ).simplified()

    # -- simplification -------------------------------------------------------

    def simplified(self) -> "ConvexSet":
        """Drop tautologies and duplicate rows; collapse a contradiction."""
        seen = set()
        out: List[Constraint] = []
        for c in self.constraints:
            if c.is_tautology() or c in seen:
                continue
            if c.is_contradiction():
                return ConvexSet(self.variables, (_FALSE,), self.parameters)
            seen.add(c)
            out.append(c)
        return ConvexSet(self.variables, tuple(out), self.parameters)

    # -- membership & evaluation ---------------------------------------------

    def contains(self, point: Sequence[int], params: Mapping[str, int] | None = None) -> bool:
        """Exact membership test for a concrete integer point."""
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, set has {len(self.variables)} variables"
            )
        assignment: Dict[str, int] = {v: int(x) for v, x in zip(self.variables, point)}
        if params:
            assignment.update({k: int(v) for k, v in params.items()})
        for p in self.parameters:
            if p not in assignment:
                raise ValueError(f"parameter {p!r} is unbound; pass params=...")
        return all(c.satisfied_by(assignment) for c in self.constraints)

    # -- bounds ---------------------------------------------------------------

    def variable_bounds(
        self, name: str, params: Mapping[str, int] | None = None
    ) -> Tuple[Optional[int], Optional[int]]:
        """Conservative integer bounds for one variable.

        Uses Fourier–Motzkin elimination of every *other* variable and returns
        the tightest constant lower/upper bounds found (``None`` if unbounded
        in that direction, ``lo > hi`` if the rational relaxation is empty).
        Exact for the rational relaxation; conservative (never too tight) for
        the integer set.
        """
        from .fourier_motzkin import project_onto

        cs = self if params is None else self.bind_parameters(params)
        projected = project_onto(cs, [name])
        if _FALSE in projected.constraints:
            # Elimination met a constant contradiction: no row is left to
            # bound ``name``, yet the set is empty, not unbounded.
            return 1, 0
        lo: Optional[int] = None
        hi: Optional[int] = None
        for c in projected.constraints:
            # A row over ``name`` alone: a*name + constant (== | >=) 0.
            if len(c.coeffs) != 1 or c.coeffs[0][0] != name:
                continue
            a = c.coeffs[0][1]
            if c.kind == EQ or a > 0:
                bound = -(c.constant // a)  # ceil(-constant / a)
                lo = bound if lo is None else max(lo, bound)
            if c.kind == EQ or a < 0:
                bound = (-c.constant) // a  # floor(-constant / a)
                hi = bound if hi is None else min(hi, bound)
        return lo, hi

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        vars_s = ", ".join(self.variables)
        cons_s = " and ".join(str(c) for c in self.constraints) or "true"
        if self.parameters:
            return f"[{', '.join(self.parameters)}] -> {{ [{vars_s}] : {cons_s} }}"
        return f"{{ [{vars_s}] : {cons_s} }}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConvexSet({self})"
