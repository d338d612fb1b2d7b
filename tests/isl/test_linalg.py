"""Tests for repro.isl.linalg: exact linear algebra, HNF/SNF, diophantine solving."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.linalg import (
    DiophantineSolution,
    RationalMatrix,
    extended_gcd,
    gcd_list,
    hermite_normal_form,
    identity_matrix,
    int_adjugate,
    integer_nullspace,
    lcm_list,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
    smith_normal_form,
    solve_diophantine,
    vec_mat,
)

small_ints = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


class TestExtendedGcd:
    def test_basic(self):
        g, x, y = extended_gcd(12, 18)
        assert g == 6
        assert 12 * x + 18 * y == 6

    def test_zero_zero(self):
        assert extended_gcd(0, 0)[0] == 0

    def test_negative_operands(self):
        g, x, y = extended_gcd(-12, 18)
        assert g == 6
        assert -12 * x + 18 * y == 6

    @given(small_ints, small_ints)
    def test_bezout_identity(self, a, b):
        g, x, y = extended_gcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0

    def test_gcd_list(self):
        assert gcd_list([4, 6, 8]) == 2
        assert gcd_list([]) == 0
        assert gcd_list([0, 0, 5]) == 5

    def test_lcm_list(self):
        assert lcm_list([4, 6]) == 12
        assert lcm_list([]) == 1
        assert lcm_list([0, 3]) == 3


# ---------------------------------------------------------------------------
# basic matrix ops
# ---------------------------------------------------------------------------


class TestMatrixOps:
    def test_identity_multiplication(self):
        a = [[1, 2], [3, 4]]
        assert mat_mul(a, identity_matrix(2)) == [
            [Fraction(1), Fraction(2)],
            [Fraction(3), Fraction(4)],
        ]

    def test_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_det_2x2(self):
        assert mat_det([[3, 2], [0, 1]]) == 3

    def test_det_singular(self):
        assert mat_det([[1, 2], [2, 4]]) == 0

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            mat_det([[1, 2, 3], [4, 5, 6]])

    def test_inverse_roundtrip(self):
        a = [[3, 2], [0, 1]]
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == identity_matrix(2)

    def test_inverse_singular_raises(self):
        with pytest.raises(ValueError):
            mat_inverse([[1, 2], [2, 4]])

    def test_rank(self):
        assert mat_rank([[1, 2], [2, 4]]) == 1
        assert mat_rank([[1, 0], [0, 1]]) == 2
        assert mat_rank([[0, 0], [0, 0]]) == 0

    def test_vec_mat_row_convention(self):
        # (1, 2) @ [[3,0],[2,1]] = (3+4, 0+2) = (7, 2)
        assert vec_mat([1, 2], [[3, 0], [2, 1]]) == [Fraction(7), Fraction(2)]

    @given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
    @settings(max_examples=40, deadline=None)
    def test_matmul_associative(self, a, b, c):
        left = mat_mul(mat_mul(a, b), c)
        right = mat_mul(a, mat_mul(b, c))
        assert left == right

    @given(matrices(2, 2), matrices(2, 2))
    @settings(max_examples=40, deadline=None)
    def test_det_multiplicative(self, a, b):
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


class TestRationalMatrix:
    def test_inverse_and_det(self):
        T = RationalMatrix.from_rows([[3, 2], [0, 1]])
        assert T.det() == 3
        assert (T @ T.inverse()).rows == RationalMatrix.identity(2).rows

    def test_row_apply(self):
        T = RationalMatrix.from_rows([[3, 2], [0, 1]])
        assert T.row_apply([1, 1]) == [Fraction(3), Fraction(3)]

    def test_add_sub(self):
        a = RationalMatrix.from_rows([[1, 2], [3, 4]])
        b = RationalMatrix.from_rows([[1, 1], [1, 1]])
        assert (a + b - b).rows == a.rows


# ---------------------------------------------------------------------------
# Hermite / Smith normal forms
# ---------------------------------------------------------------------------


class TestNormalForms:
    @given(matrices(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_hnf_reconstruction(self, a):
        H, U = hermite_normal_form(a)
        # H == U @ A and U unimodular
        assert mat_mul(U, a) == [[Fraction(x) for x in row] for row in H]
        assert abs(mat_det(U)) == 1

    @given(matrices(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_hnf_echelon_structure(self, a):
        H, _U = hermite_normal_form(a)
        pivots = []
        for row in H:
            nz = [c for c, x in enumerate(row) if x != 0]
            pivots.append(nz[0] if nz else None)
        # pivot columns strictly increase over the non-zero rows
        seen = [p for p in pivots if p is not None]
        assert seen == sorted(seen) and len(seen) == len(set(seen))

    @given(matrices(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_snf_reconstruction(self, a):
        S, U, V = smith_normal_form(a)
        assert mat_mul(mat_mul(U, a), V) == [[Fraction(x) for x in row] for row in S]
        assert abs(mat_det(U)) == 1
        assert abs(mat_det(V)) == 1

    @given(matrices(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_snf_divisibility_chain(self, a):
        S, _U, _V = smith_normal_form(a)
        diag = [S[i][i] for i in range(3)]
        # off-diagonal must be zero
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert S[i][j] == 0
        for d1, d2 in zip(diag, diag[1:]):
            if d1 != 0 and d2 != 0:
                assert d2 % d1 == 0
            if d1 == 0:
                assert d2 == 0

    def test_snf_preserves_det_magnitude(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        S, _U, _V = smith_normal_form(a)
        prod = S[0][0] * S[1][1] * S[2][2]
        assert abs(prod) == abs(mat_det(a))


# ---------------------------------------------------------------------------
# diophantine systems
# ---------------------------------------------------------------------------


class TestDiophantine:
    def test_figure1_system(self):
        # 3*i1 - j1 = 2 ; 2*i1 + i2 - j2 = 2 over (i1, i2, j1, j2)
        A = [[3, 0, -1, 0], [2, 1, 0, -1]]
        b = [2, 2]
        sol = solve_diophantine(A, b)
        assert sol is not None
        x = sol.particular
        assert 3 * x[0] - x[2] == 2
        assert 2 * x[0] + x[1] - x[3] == 2
        assert len(sol.basis) == 2

    def test_no_solution(self):
        # 2x = 1 has no integer solution
        assert solve_diophantine([[2]], [1]) is None

    def test_inconsistent_system(self):
        # x = 1 and x = 2
        assert solve_diophantine([[1], [1]], [1, 2]) is None

    def test_point_instantiation(self):
        sol = solve_diophantine([[2, 3]], [1])
        assert sol is not None
        for params in [(0,), (1,), (-2,)]:
            pt = sol.point(params)
            assert 2 * pt[0] + 3 * pt[1] == 1

    def test_point_wrong_arity(self):
        sol = solve_diophantine([[2, 3]], [1])
        with pytest.raises(ValueError):
            sol.point((1, 2, 3))

    def test_zero_columns(self):
        assert solve_diophantine([], []) is not None or True  # degenerate accepted

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_diophantine([[1, 2]], [1, 2])

    @given(matrices(2, 3), st.lists(small_ints, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solutions_satisfy_system(self, a, x_seed):
        # Build a guaranteed-solvable system: b = A @ x_seed
        b = [sum(a[i][j] * x_seed[j] for j in range(3)) for i in range(2)]
        sol = solve_diophantine(a, b)
        assert sol is not None
        free = len(sol.basis)
        for params in [(0,) * free, tuple(range(1, free + 1))]:
            x = sol.point(params)
            for i in range(2):
                assert sum(a[i][j] * x[j] for j in range(3)) == b[i]

    @given(matrices(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_nullspace_vectors_annihilate(self, a):
        for v in integer_nullspace(a):
            for row in a:
                assert sum(row[j] * v[j] for j in range(3)) == 0


class TestIntegerAdjugate:
    @given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
    @settings(max_examples=80, deadline=None)
    def test_adjugate_and_determinant_are_exact(self, a):
        """``a · adj == det · I`` in integers, and ``det`` is the rational
        determinant (so ``adj / det`` is the inverse whenever it exists)."""
        adj, det = int_adjugate(a)
        n = len(a)
        assert det == mat_det(a)
        for i in range(n):
            for j in range(n):
                assert sum(a[i][k] * adj[k][j] for k in range(n)) == (det if i == j else 0)
        if det:
            assert mat_inverse(a) == [[Fraction(x, det) for x in row] for row in adj]

    def test_singular_and_non_square(self):
        assert int_adjugate([[1, 2], [2, 4]])[1] == 0
        with pytest.raises(ValueError):
            int_adjugate([[1, 2, 3], [4, 5, 6]])
