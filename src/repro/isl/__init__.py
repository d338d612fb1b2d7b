"""repro.isl — a small exact integer-set library.

This package stands in for the Omega library that the paper uses to solve and
manipulate exact dependence relations.  It provides:

* exact integer/rational linear algebra (:mod:`repro.isl.linalg`):
  Hermite/Smith normal forms, diophantine system solving, rational inverses;
* affine expressions over named variables (:mod:`repro.isl.affine`);
* convex integer sets over canonical integer constraint rows
  (:mod:`repro.isl.convex`);
* Fourier–Motzkin projection (:mod:`repro.isl.fourier_motzkin`);
* unions of convex sets with ∩/∪/\\ (:mod:`repro.isl.sets`);
* symbolic and finite relations with dom/ran/inverse/compose
  (:mod:`repro.isl.relations`);
* lexicographic-order utilities (:mod:`repro.isl.lexorder`);
* integer point enumeration, scalar and numpy-vectorised
  (:mod:`repro.isl.enumerate_points`).
"""

from .affine import AffineExpr, const, var
from .convex import EQ, GE, Constraint, ConvexSet
from .enumerate_points import (
    EnumerationTruncated,
    enumerate_convex,
    filter_box_numpy,
    iteration_points,
)
from .fourier_motzkin import (
    eliminate_variable,
    eliminate_variables,
    project_onto,
    project_out,
)
from .lexorder import (
    is_lex_positive,
    lex_compare,
    lex_le,
    lex_le_constraints,
    lex_lt,
    lex_lt_constraints,
    lex_positive_constraints,
)
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
from .relations import (
    ConvexRelation,
    FiniteRelation,
    PointCodec,
    UnionRelation,
    in_sorted,
)
from .sets import UnionSet

__all__ = [
    "AffineExpr",
    "const",
    "var",
    "Constraint",
    "ConvexSet",
    "EQ",
    "GE",
    "UnionSet",
    "ConvexRelation",
    "UnionRelation",
    "FiniteRelation",
    "PointCodec",
    "in_sorted",
    "EnumerationTruncated",
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
    "project_out",
    "enumerate_convex",
    "filter_box_numpy",
    "iteration_points",
    "lex_lt",
    "lex_le",
    "lex_compare",
    "is_lex_positive",
    "lex_lt_constraints",
    "lex_le_constraints",
    "lex_positive_constraints",
]
