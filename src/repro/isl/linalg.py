"""Exact integer and rational linear algebra.

This module is the numeric bedrock of the integer-set layer (:mod:`repro.isl`).
Everything here uses *exact* arithmetic — Python integers and
:class:`fractions.Fraction` — because dependence analysis is an exact
integer-programming problem: a rounding error of 1e-9 in a subscript matrix
turns a dependent iteration pair into an "independent" one and silently breaks
the generated parallel schedule.

Provided primitives:

* rational matrix algebra (:class:`RationalMatrix`): multiply, invert,
  determinant, solve,
* extended gcd and gcd of vectors,
* Hermite normal form (row-style, used to solve linear diophantine systems),
* Smith normal form (used for the general solution structure of
  ``x A = b`` over the integers),
* :func:`solve_diophantine` — particular + homogeneous solutions of an integer
  linear system, the engine behind the exact dependence test.

The matrices are small (loop nests have 1–4 dimensions), so clarity and
exactness are preferred over asymptotic cleverness; numpy is intentionally not
used here (see the enumeration backend for the vectorised fast paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RationalMatrix",
    "extended_gcd",
    "gcd_list",
    "lcm_list",
    "identity_matrix",
    "zero_matrix",
    "mat_mul",
    "vec_mat",
    "mat_add",
    "mat_sub",
    "mat_det",
    "mat_inverse",
    "int_adjugate",
    "hermite_normal_form",
    "smith_normal_form",
    "DiophantineSolution",
    "solve_diophantine",
    "integer_nullspace",
]

Number = Fraction
Matrix = List[List[Fraction]]
Vector = List[Fraction]


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y = g``.

    ``g`` is always non-negative; ``gcd(0, 0) == 0``.
    """
    old_r, r = int(a), int(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gcd_list(values: Iterable[int]) -> int:
    """Greatest common divisor of an iterable of integers (0 for empty)."""
    g = 0
    for v in values:
        g, _, _ = extended_gcd(g, int(v))
        if g == 1:
            return 1
    return g


def lcm_list(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of integers (1 for empty)."""
    result = 1
    for v in values:
        v = abs(int(v))
        if v == 0:
            continue
        g = gcd_list([result, v])
        result = result // g * v
    return result


# ---------------------------------------------------------------------------
# plain list-of-list matrix helpers (Fractions)
# ---------------------------------------------------------------------------

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def to_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Copy ``rows`` into a list-of-lists of :class:`Fraction`."""
    return [[_frac(x) for x in row] for row in rows]


def identity_matrix(n: int) -> Matrix:
    """The ``n``-by-``n`` identity matrix."""
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    """A ``rows``-by-``cols`` matrix of zeros."""
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_shape(m: Sequence[Sequence]) -> Tuple[int, int]:
    if not m:
        return (0, 0)
    return (len(m), len(m[0]))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    """Matrix product ``a @ b`` with exact arithmetic."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch for matrix product: {ra}x{ca} @ {rb}x{cb}")
    out = zero_matrix(ra, cb)
    for i in range(ra):
        for k in range(ca):
            aik = _frac(a[i][k])
            if aik == 0:
                continue
            for j in range(cb):
                out[i][j] += aik * _frac(b[k][j])
    return out


def vec_mat(v: Sequence, a: Sequence[Sequence]) -> Vector:
    """Row-vector times matrix, ``v @ a`` (the paper writes iterations as rows)."""
    ra, ca = mat_shape(a)
    if len(v) != ra:
        raise ValueError("shape mismatch for vec_mat")
    return [sum((_frac(v[i]) * _frac(a[i][j]) for i in range(ra)), Fraction(0)) for j in range(ca)]


def mat_add(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if (ra, ca) != (rb, cb):
        raise ValueError("shape mismatch for mat_add")
    return [[_frac(a[i][j]) + _frac(b[i][j]) for j in range(ca)] for i in range(ra)]


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if (ra, ca) != (rb, cb):
        raise ValueError("shape mismatch for mat_sub")
    return [[_frac(a[i][j]) - _frac(b[i][j]) for j in range(ca)] for i in range(ra)]


def mat_det(a: Sequence[Sequence]) -> Fraction:
    """Determinant via fraction-free-ish Gaussian elimination (exact)."""
    ra, ca = mat_shape(a)
    if ra != ca:
        raise ValueError("determinant requires a square matrix")
    m = to_fraction_matrix(a)
    det = Fraction(1)
    for col in range(ra):
        pivot_row = None
        for r in range(col, ra):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, ra):
            factor = m[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, ra):
                m[r][c] -= factor * m[col][c]
    return det


def mat_inverse(a: Sequence[Sequence]) -> Matrix:
    """Exact inverse of a square rational matrix (raises if singular)."""
    ra, ca = mat_shape(a)
    if ra != ca:
        raise ValueError("inverse requires a square matrix")
    m = to_fraction_matrix(a)
    inv = identity_matrix(ra)
    for col in range(ra):
        pivot_row = None
        for r in range(col, ra):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("matrix is singular")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(ra):
            if r == col:
                continue
            factor = m[r][col]
            if factor == 0:
                continue
            m[r] = [m[r][c] - factor * m[col][c] for c in range(ra)]
            inv[r] = [inv[r][c] - factor * inv[col][c] for c in range(ra)]
    return inv


def _int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    m = [list(row) for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact: Sylvester's identity makes every entry a minor.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def int_adjugate(a: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """``(adj, det)`` of a square integer matrix: ``a · adj == det · I``.

    ``a⁻¹ = adj / det`` in integers only — each cofactor is one
    :func:`_int_det` of a minor, cheap for loop-nest-sized matrices.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate requires a square matrix")

    def minor(r: int, c: int) -> List[List[int]]:
        return [row[:c] + row[c + 1 :] for k, row in enumerate(map(list, a)) if k != r]

    adj = [[(-1) ** (r + c) * _int_det(minor(r, c)) for r in range(n)] for c in range(n)]
    det = sum(a[0][c] * adj[c][0] for c in range(n)) if n else 1
    return adj, det


def mat_rank(a: Sequence[Sequence]) -> int:
    """Rank over the rationals."""
    ra, ca = mat_shape(a)
    m = to_fraction_matrix(a)
    rank = 0
    row = 0
    for col in range(ca):
        pivot_row = None
        for r in range(row, ra):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(ra):
            if r == row or m[r][col] == 0:
                continue
            factor = m[r][col] / pivot
            m[r] = [m[r][c] - factor * m[row][c] for c in range(ca)]
        rank += 1
        row += 1
        if row == ra:
            break
    return rank


# ---------------------------------------------------------------------------
# RationalMatrix: a light object wrapper used by the recurrence machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """An immutable exact rational matrix.

    Thin convenience wrapper over the list-of-``Fraction`` helpers; iteration
    vectors are treated as *row* vectors (``i @ T``), matching the paper's
    notation ``i_{k+1} = i_k T + u``.
    """

    rows: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(_frac(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_rows(identity_matrix(n))

    @property
    def shape(self) -> Tuple[int, int]:
        return mat_shape(self.rows)

    def tolist(self) -> Matrix:
        return [list(row) for row in self.rows]

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.from_rows(mat_mul(self.rows, other.rows))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.from_rows(mat_add(self.rows, other.rows))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix.from_rows(mat_sub(self.rows, other.rows))

    def inverse(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(mat_inverse(self.rows))

    def det(self) -> Fraction:
        return mat_det(self.rows)

    def rank(self) -> int:
        return mat_rank(self.rows)

    def row_apply(self, v: Sequence) -> Vector:
        """Return ``v @ self`` for a row vector ``v``."""
        return vec_mat(v, self.rows)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.rows) + "]"


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms (integer matrices)
# ---------------------------------------------------------------------------

def _as_int_matrix(a: Sequence[Sequence]) -> List[List[int]]:
    out: List[List[int]] = []
    for row in a:
        int_row: List[int] = []
        for x in row:
            f = _frac(x)
            if f.denominator != 1:
                raise ValueError("integer matrix expected")
            int_row.append(f.numerator)
        out.append(int_row)
    return out


def hermite_normal_form(a: Sequence[Sequence]) -> Tuple[List[List[int]], List[List[int]]]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular and ``H = U @ A``, ``H`` in (lower
    echelon) Hermite form: pivot entries positive, entries below a pivot zero,
    entries above a pivot reduced modulo the pivot and non-negative.
    """
    A = _as_int_matrix(a)
    n_rows = len(A)
    n_cols = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]

    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        # Find a row at/below pivot_row with non-zero entry in this column,
        # and use extended-gcd row combinations to clear the column below.
        nonzero = [r for r in range(pivot_row, n_rows) if A[r][col] != 0]
        if not nonzero:
            continue
        # Reduce all rows below pivot to zero in this column via gcd steps.
        r0 = nonzero[0]
        if r0 != pivot_row:
            A[pivot_row], A[r0] = A[r0], A[pivot_row]
            U[pivot_row], U[r0] = U[r0], U[pivot_row]
        for r in range(pivot_row + 1, n_rows):
            while A[r][col] != 0:
                if abs(A[pivot_row][col]) > abs(A[r][col]):
                    A[pivot_row], A[r] = A[r], A[pivot_row]
                    U[pivot_row], U[r] = U[r], U[pivot_row]
                q = A[r][col] // A[pivot_row][col]
                A[r] = [A[r][c] - q * A[pivot_row][c] for c in range(n_cols)]
                U[r] = [U[r][c] - q * U[pivot_row][c] for c in range(n_rows)]
        if A[pivot_row][col] < 0:
            A[pivot_row] = [-x for x in A[pivot_row]]
            U[pivot_row] = [-x for x in U[pivot_row]]
        # Reduce the entries above the pivot so 0 <= entry < pivot.
        p = A[pivot_row][col]
        if p != 0:
            for r in range(pivot_row):
                q = A[r][col] // p
                if q != 0:
                    A[r] = [A[r][c] - q * A[pivot_row][c] for c in range(n_cols)]
                    U[r] = [U[r][c] - q * U[pivot_row][c] for c in range(n_rows)]
            pivot_row += 1
    return A, U


def smith_normal_form(
    a: Sequence[Sequence],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Smith normal form: returns ``(S, U, V)`` with ``S = U @ A @ V``.

    ``U`` and ``V`` are unimodular and ``S`` is diagonal with each diagonal
    entry dividing the next.  Used to characterise the full integer solution
    set of a linear diophantine system.
    """
    A = _as_int_matrix(a)
    n_rows = len(A)
    n_cols = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    V = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        A[dst] = [A[dst][c] + factor * A[src][c] for c in range(n_cols)]
        U[dst] = [U[dst][c] + factor * U[src][c] for c in range(n_rows)]

    def add_col(src, dst, factor):
        for row in A:
            row[dst] += factor * row[src]
        for row in V:
            row[dst] += factor * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(n_rows, n_cols):
        # Find a non-zero pivot in the remaining submatrix.
        pivot = None
        for r in range(t, n_rows):
            for c in range(t, n_cols):
                if A[r][c] != 0:
                    pivot = (r, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r, c = pivot
        swap_rows(t, r)
        swap_cols(t, c)

        # Eliminate until the pivot divides everything in its row and column.
        while True:
            changed = False
            for r in range(t + 1, n_rows):
                while A[r][t] != 0:
                    # The divisibility-repair step can cancel the pivot to 0;
                    # swapping the non-zero entry up restores a valid pivot.
                    if A[t][t] == 0 or abs(A[t][t]) > abs(A[r][t]):
                        swap_rows(t, r)
                    q = A[r][t] // A[t][t]
                    add_row(t, r, -q)
                    changed = True
            for c in range(t + 1, n_cols):
                while A[t][c] != 0:
                    if A[t][t] == 0 or abs(A[t][t]) > abs(A[t][c]):
                        swap_cols(t, c)
                    q = A[t][c] // A[t][t]
                    add_col(t, c, -q)
                    changed = True
            # Check whether the pivot divides every entry of the submatrix.
            divides_all = True
            for r in range(t + 1, n_rows):
                for c in range(t + 1, n_cols):
                    if A[r][c] % A[t][t] != 0:
                        # Add the offending row to row t to fix divisibility.
                        add_row(r, t, 1)
                        divides_all = False
                        changed = True
                        break
                if not divides_all:
                    break
            if not changed and divides_all:
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    return A, U, V


def integer_nullspace(a: Sequence[Sequence]) -> List[List[int]]:
    """Integer basis of the (right) nullspace ``{x | A @ x = 0}``.

    Uses the Smith normal form; the returned vectors generate every integer
    solution of the homogeneous system by integer linear combination.
    """
    A = _as_int_matrix(a)
    n_rows = len(A)
    n_cols = len(A[0]) if A else 0
    if n_cols == 0:
        return []
    if n_rows == 0:
        return [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]
    S, _U, V = smith_normal_form(A)
    rank = 0
    for k in range(min(n_rows, n_cols)):
        if S[k][k] != 0:
            rank += 1
    basis = []
    for j in range(rank, n_cols):
        basis.append([V[i][j] for i in range(n_cols)])
    return basis


@dataclass(frozen=True)
class DiophantineSolution:
    """General solution of ``A @ x = b`` over the integers.

    ``x = particular + sum_k t_k * basis[k]`` for arbitrary integers ``t_k``.
    ``particular`` is one integer solution and ``basis`` is an integer basis of
    the homogeneous solutions.
    """

    particular: Tuple[int, ...]
    basis: Tuple[Tuple[int, ...], ...]

    def point(self, params: Sequence[int]) -> Tuple[int, ...]:
        """Instantiate the free parameters to produce a concrete solution."""
        if len(params) != len(self.basis):
            raise ValueError("wrong number of parameters")
        x = list(self.particular)
        for t, vec in zip(params, self.basis):
            for k in range(len(x)):
                x[k] += t * vec[k]
        return tuple(x)


def solve_diophantine(a: Sequence[Sequence], b: Sequence[int]) -> Optional[DiophantineSolution]:
    """Solve the linear diophantine system ``A @ x = b`` over the integers.

    Returns ``None`` when no integer solution exists, otherwise a
    :class:`DiophantineSolution` with a particular solution and a basis of the
    integer nullspace of ``A`` (columns are unknowns, rows are equations).
    """
    A = _as_int_matrix(a)
    n_rows = len(A)
    n_cols = len(A[0]) if A else 0
    b_int = [int(x) for x in b]
    if len(b_int) != n_rows:
        raise ValueError("right-hand side length mismatch")
    if n_cols == 0:
        if any(x != 0 for x in b_int):
            return None
        return DiophantineSolution(particular=(), basis=())

    S, U, V = smith_normal_form(A)
    # Solve S @ y = U @ b, then x = V @ y.
    c = [sum(U[i][j] * b_int[j] for j in range(n_rows)) for i in range(n_rows)]
    y = [0] * n_cols
    for i in range(n_rows):
        d = S[i][i] if i < min(n_rows, n_cols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    particular = tuple(
        sum(V[i][j] * y[j] for j in range(n_cols)) for i in range(n_cols)
    )
    rank = sum(1 for k in range(min(n_rows, n_cols)) if S[k][k] != 0)
    basis = tuple(
        tuple(V[i][j] for i in range(n_cols)) for j in range(rank, n_cols)
    )
    return DiophantineSolution(particular=particular, basis=basis)
