"""repro.isl — a small exact integer-set library.

This package stands in for the Omega library that the paper uses to solve and
manipulate exact dependence relations.  It provides:

* exact integer/rational linear algebra (:mod:`repro.isl.linalg`):
  Hermite/Smith normal forms, diophantine system solving, rational inverses;
* affine expressions over named variables (:mod:`repro.isl.affine`);
* convex integer sets over canonical integer constraint rows
  (:mod:`repro.isl.convex`);
* Fourier–Motzkin projection (:mod:`repro.isl.fourier_motzkin`);
* finite relations as int64 row arrays, and the lexicographic point codec
  (:mod:`repro.isl.relations`);
* lexicographic-order utilities (:mod:`repro.isl.lexorder`);
* numpy-vectorised integer point enumeration
  (:mod:`repro.isl.enumerate_points`).
"""

from .affine import AffineExpr, const, var
from .convex import EQ, GE, Constraint, ConvexSet
from .enumerate_points import filter_box_numpy, iteration_points
from .fourier_motzkin import eliminate_variable, eliminate_variables, project_onto
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
    "Constraint",
    "ConvexSet",
    "EQ",
    "GE",
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
    "eliminate_variable",
    "eliminate_variables",
    "project_onto",
    "filter_box_numpy",
    "iteration_points",
    "lex_lt",
    "lex_le",
    "lex_compare",
    "is_lex_positive",
]
