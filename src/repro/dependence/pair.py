"""Reference pairs and their dependence equations.

A *reference pair* is two affine references to the same array, at least one of
which is a write.  Each pair induces the dependence equation (eq. 2)

    i · A + a  =  j · B + b

between the iteration vector ``i`` of the statement containing the first
reference and ``j`` of the statement containing the second.  This module
packages the pair together with the coefficient matrices/offsets and the
classification the partitioning algorithm needs:

* *coupled* — loop indices occur in the subscripts of both references,
* *square & full rank* — A and B are square (loop depth == array rank) and
  invertible, which is the precondition of Lemma 1 (recurrence form, disjoint
  monotonic chains),
* *uniform* — A == B, in which case the dependence distance is the constant
  ``(a − b)·B⁻¹`` and the loop falls into classic uniform-dependence territory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.nodes import ArrayRef
from ..ir.program import StatementContext
from ..isl.linalg import RationalMatrix, mat_det, mat_rank, mat_shape, mat_sub

__all__ = ["ReferencePair"]


@dataclass(frozen=True)
class ReferencePair:
    """One candidate dependence equation between two references."""

    source_ctx: StatementContext
    source_ref: ArrayRef
    target_ctx: StatementContext
    target_ref: ArrayRef

    # -- basic facts --------------------------------------------------------

    @property
    def array(self) -> str:
        return self.source_ref.array

    @property
    def source_indices(self) -> Tuple[str, ...]:
        return self.source_ctx.index_names

    @property
    def target_indices(self) -> Tuple[str, ...]:
        return self.target_ctx.index_names

    # -- matrix form ----------------------------------------------------------

    def matrices(self) -> Tuple[List[List[Fraction]], List[Fraction], List[List[Fraction]], List[Fraction]]:
        """Return ``(A, a, B, b)`` of the dependence equation ``i·A + a = j·B + b``."""
        A, a = self.source_ref.coefficient_matrix(self.source_indices)
        B, b = self.target_ref.coefficient_matrix(self.target_indices)
        return A, a, B, b

    def is_coupled(self) -> bool:
        """Loop indices occur in both references' subscripts.

        This is the precondition for the dependence equation to relate the two
        iteration vectors at all; the stricter terminology of the paper's
        statistics ("coupled subscripts") is provided by
        :meth:`has_coupled_subscript_dimensions`.  Read off the references'
        integer subscript rows.
        """
        return _has_terms(self.source_ref) and _has_terms(self.target_ref)

    def has_coupled_subscript_dimensions(self) -> bool:
        """True when subscripts are *coupled* in the paper's §1 sense.

        Either some loop index appears in more than one subscript dimension of
        a reference, or some dimension's subscript mixes several loop indices —
        i.e. at least one of the coefficient matrices is not a (generalized)
        one-index-per-dimension matrix.  Separable references such as
        ``a(I+1, J)`` / ``a(I, J-2)`` are not coupled and can only produce
        uniform distances.  Read off the references' integer subscript rows
        (whose terms are the nonzero coefficients); a subscript symbol
        outside the statement's loop indices raises :class:`ValueError`, as
        :meth:`~repro.ir.nodes.ArrayRef.coefficient_matrix` does.
        """
        return _coupled(self.source_ref, self.source_indices) or _coupled(
            self.target_ref, self.target_indices
        )

    def is_square_full_rank(self) -> bool:
        """A and B are square and invertible (precondition of Lemma 1)."""
        A, _a, B, _b = self.matrices()
        ra, ca = mat_shape(A)
        rb, cb = mat_shape(B)
        if ra != ca or rb != cb or ra != rb or ra == 0:
            return False
        return mat_det(A) != 0 and mat_det(B) != 0

    def is_uniform(self) -> bool:
        """True when the pair can only generate a constant distance (A == B).

        This is the matrix-level sufficient condition; the exhaustive
        definition-level check lives in :mod:`repro.dependence.distance`.
        """
        A, _a, B, _b = self.matrices()
        if mat_shape(A) != mat_shape(B):
            return False
        diff = mat_sub(A, B)
        return all(all(x == 0 for x in row) for row in diff)

    def ranks(self) -> Tuple[int, int]:
        A, _a, B, _b = self.matrices()
        return mat_rank(A), mat_rank(B)

    # -- recurrence form (Lemma 1 / §3.2) ---------------------------------------

    def recurrence(self) -> Optional[Tuple[RationalMatrix, Tuple[Fraction, ...]]]:
        """Return ``(T, u)`` with ``j = i·T + u``, or ``None`` if B is not invertible.

        The dependence equation is ``i·A + a = j·B + b`` (eq. 2), so solving for
        the second index vector gives ``j = i·(A·B⁻¹) + (a−b)·B⁻¹``.  We return
        ``T = A·B⁻¹`` and ``u = (a−b)·B⁻¹``; the map for the other direction is
        the inverse affine map ``i = (j − u)·T⁻¹`` (the paper's Lemma 1 writes
        the same maps with the roles of A and B swapped).  ``None`` is returned
        when B is singular or the matrices are not square.
        """
        A, a, B, b = self.matrices()
        rb, cb = mat_shape(B)
        ra, ca = mat_shape(A)
        if rb != cb or ra != ca or ra != rb or rb == 0:
            return None
        if mat_det(B) == 0:
            return None
        B_inv = RationalMatrix.from_rows(B).inverse()
        T = RationalMatrix.from_rows(A) @ B_inv
        diff = [x - y for x, y in zip(a, b)]
        u = tuple(B_inv.row_apply(diff))
        return T, u

    def __str__(self) -> str:
        return (
            f"{self.source_ctx.statement.label}:{self.source_ref} <-> "
            f"{self.target_ctx.statement.label}:{self.target_ref}"
        )


def _has_terms(ref: ArrayRef) -> bool:
    """Some subscript of ``ref`` has a nonzero coefficient."""
    return any(terms for terms, _, _ in ref.subscript_rows)


def _coupled(ref: ArrayRef, indices: Tuple[str, ...]) -> bool:
    """A subscript of ``ref`` mixes several indices, or an index occurs in
    several subscripts."""
    mixed = False
    dims_per_index: Dict[str, int] = {}
    for sub, (terms, _, _) in zip(ref.subscripts, ref.subscript_rows):
        for name, _c in terms:
            if name not in indices:
                raise ValueError(
                    f"subscript {sub} of {ref.array} uses symbol {name!r} "
                    f"outside the loop index order {tuple(indices)}"
                )
            dims_per_index[name] = dims_per_index.get(name, 0) + 1
        mixed = mixed or len(terms) >= 2
    return mixed or any(count >= 2 for count in dims_per_index.values())
