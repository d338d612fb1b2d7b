"""Symbolic dependence relations (the Omega-style representation).

For perfect loop nests this module builds the dependence relation of eq. 4 as
a :class:`~repro.isl.relations.UnionRelation` whose pieces are convex sets over
``(i, j)`` variables:

    Rd = ⋃ { i -> j :  (i·A + a = j·B + b  ∨  i·B + b = j·A + a)
                        ∧ i ∈ Φ ∧ j ∈ Φ ∧ i ≺ j }

i.e. the union over both orientations of the dependence equation and over the
disjuncts of the (non-convex) lexicographic order, always mapping the
lexicographically earlier iteration to the later one — exactly the relation
Algorithm 1 starts from.  The symbolic relation drives the set-algebraic
derivation of the partition (and carries symbolic parameters); the exact
enumeration in :mod:`repro.dependence.exact` provides the concrete pairs used
for execution and validation, and the two are cross-checked in the tests.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ir.program import LoopProgram
from ..isl.convex import Constraint
from ..isl.lexorder import lex_lt_constraints
from ..isl.relations import ConvexRelation, UnionRelation
from .pair import ReferencePair

__all__ = [
    "source_target_names",
    "symbolic_pair_relation",
    "symbolic_dependence_relation",
]


def source_target_names(index_names: Sequence[str]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Fresh variable names for the source (unprimed) and target (primed) sides."""
    src = tuple(index_names)
    dst = tuple(name + "'" for name in index_names)
    return src, dst


def _equation_constraints(
    pair: ReferencePair,
    src_names: Sequence[str],
    dst_names: Sequence[str],
    swap: bool,
) -> List[Constraint]:
    """Subscript equalities with the source bound to A (swap=False) or B (swap=True)."""
    src_rename = dict(zip(pair.source_indices, src_names))
    dst_rename = dict(zip(pair.target_indices, dst_names))
    constraints = []
    for s_sub, t_sub in zip(pair.source_ref.subscripts, pair.target_ref.subscripts):
        if not swap:
            lhs = s_sub.rename(src_rename)
            rhs = t_sub.rename(dst_rename)
        else:
            lhs = t_sub.rename(src_rename)
            rhs = s_sub.rename(dst_rename)
        constraints.append(Constraint.eq(lhs, rhs))
    return constraints


def symbolic_pair_relation(
    pair: ReferencePair,
    parameters: Sequence[str] = (),
    orient: bool = True,
) -> UnionRelation:
    """The dependence relation of one reference pair over a perfect nest.

    Requires the two statements to sit under the same loops (true for every
    pair of a perfect nest, the setting of the paper's §3.1–3.2 scheme).
    With ``orient=True`` (the default) the relation maps the
    lexicographically earlier iteration to the later one.
    """
    if pair.source_ctx.loops != pair.target_ctx.loops:
        raise ValueError(
            "symbolic_pair_relation requires both references under the same loop nest; "
            "use the statement-level extension for imperfect nests"
        )
    src_names, dst_names = source_target_names(pair.source_indices)
    src_domain = pair.source_ctx.domain(parameters)
    dst_domain = pair.target_ctx.domain(parameters).rename_variables(
        dict(zip(pair.target_indices, dst_names))
    )

    pieces: List[ConvexRelation] = []
    orientations = (False, True)
    lex_disjuncts = (
        lex_lt_constraints(src_names, dst_names) if orient else [[]]
    )
    for swap in orientations:
        equation = _equation_constraints(pair, src_names, dst_names, swap)
        for disjunct in lex_disjuncts:
            constraints = (
                list(equation)
                + list(src_domain.constraints)
                + list(dst_domain.constraints)
                + list(disjunct)
            )
            pieces.append(
                ConvexRelation.from_constraints(src_names, dst_names, constraints, parameters)
            )
    return UnionRelation.from_pieces(pieces)


def symbolic_dependence_relation(
    prog: LoopProgram,
    parameters: Sequence[str] | None = None,
) -> UnionRelation:
    """The combined symbolic relation Rd of a perfect nest.

    Unions the relations of every coupled reference pair of the program, on
    iteration vectors; a program that is not one perfect nest
    (:meth:`~repro.ir.program.LoopProgram.is_perfect_nest`) is refused.
    """
    params = tuple(parameters if parameters is not None else prog.parameters)
    if not prog.is_perfect_nest():
        raise ValueError(
            f"symbolic_dependence_relation handles perfect nests only, and "
            f"{prog.name!r} is not one"
        )
    src_names, dst_names = source_target_names(prog.index_names())
    relation = UnionRelation.empty(src_names, dst_names)
    seen = set()
    for ctx1, r1, ctx2, r2 in prog.reference_pairs():
        pair = ReferencePair(ctx1, r1, ctx2, r2)
        # The symmetric orientation is built into symbolic_pair_relation, so
        # analysing both (r1, r2) and (r2, r1) would duplicate every piece.
        key = frozenset([(ctx1.statement.label, str(r1)), (ctx2.statement.label, str(r2))])
        if key in seen:
            continue
        seen.add(key)
        if not pair.is_coupled():
            continue
        relation = relation.union(symbolic_pair_relation(pair, params))
    return relation
