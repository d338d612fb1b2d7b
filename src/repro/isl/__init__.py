"""repro.isl — a small exact integer-set library.

This package stands in for the Omega library that the paper uses to solve and
manipulate exact dependence relations.  It provides:

* exact integer/rational linear algebra (:mod:`repro.isl.linalg`):
  Hermite/Smith normal forms, diophantine system solving, rational inverses;
* affine expressions over named variables (:mod:`repro.isl.affine`);
* finite relations as int64 row arrays, and the lexicographic point codec
  (:mod:`repro.isl.relations`);
* lexicographic-order utilities (:mod:`repro.isl.lexorder`);
* the dense integer grid of a box (:mod:`repro.isl.enumerate_points`).
"""

from .affine import AffineExpr, const, var
from .enumerate_points import iteration_points
from .lexorder import is_lex_positive, lex_compare, lex_le, lex_lt
from .linalg import (
    DiophantineSolution,
    RationalMatrix,
    extended_gcd,
    gcd_list,
    hermite_normal_form,
    integer_nullspace,
    lcm_list,
    smith_normal_form,
    solve_diophantine,
)
from .relations import FiniteRelation, PointCodec, in_sorted

__all__ = [
    "AffineExpr",
    "const",
    "var",
    "FiniteRelation",
    "PointCodec",
    "in_sorted",
    "RationalMatrix",
    "DiophantineSolution",
    "extended_gcd",
    "gcd_list",
    "lcm_list",
    "hermite_normal_form",
    "smith_normal_form",
    "solve_diophantine",
    "integer_nullspace",
    "iteration_points",
    "lex_lt",
    "lex_le",
    "lex_compare",
    "is_lex_positive",
]
