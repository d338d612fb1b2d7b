"""Tests for repro.isl.convex: constraints, convex sets, bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.affine import AffineExpr, var
from repro.isl.convex import Constraint, ConvexSet, EQ, GE


class TestConstraint:
    def test_ge_le_eq(self):
        i = var("i")
        assert Constraint.ge(i, 3).satisfied_by({"i": 3})
        assert not Constraint.ge(i, 3).satisfied_by({"i": 2})
        assert Constraint.le(i, 3).satisfied_by({"i": 3})
        assert not Constraint.le(i, 3).satisfied_by({"i": 4})
        assert Constraint.eq(i, 3).satisfied_by({"i": 3})

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Constraint("<=", {"i": 1}, 0)
        with pytest.raises(ValueError):
            Constraint.from_expr(var("i"), "<=")

    def test_constructed_rows_are_canonical(self):
        c = Constraint.ge(var("i") * 4, 6)  # 4i - 6 >= 0 -> 2i - 3 >= 0 -> i >= 2 (tighten)
        assert (c.kind, c.coeffs, c.constant) == (GE, (("i", 1),), -2)
        assert c.satisfied_by({"i": 2})
        assert not c.satisfied_by({"i": 1})
        # 6i + 4j == 2 divides through; 2i == 3 has no integer solution and
        # keeps its coefficients so the gcd test can see it.
        assert Constraint.eq(var("i") * 6 + var("j") * 4, 2) == Constraint(EQ, {"i": 3, "j": 2}, -1)
        assert Constraint.eq(var("i") * 2, 3) == Constraint(EQ, {"i": 2}, -3)
        # Rational operands are scaled once: i/2 - j/3 >= 1/6 is 3i - 2j - 1 >= 0.
        half = var("i") * Fraction(1, 2) - var("j") * Fraction(1, 3)
        assert Constraint.ge(half, Fraction(1, 6)) == Constraint(GE, {"j": -2, "i": 3}, -1)

    @given(
        st.dictionaries(
            st.sampled_from(["i", "j", "N"]),
            st.fractions(min_value=-6, max_value=6, max_denominator=3),
            max_size=3,
        ),
        st.fractions(min_value=-9, max_value=9, max_denominator=3),
        st.sampled_from(["eq", "ge", "le"]),
        st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_operation_returns_canonical_rows(self, coeffs, constant, ctor, value):
        from oracle import RationalRow, normalized

        def assert_canonical(c):
            assert all(type(x) is int for _, x in c.coeffs) and type(c.constant) is int
            assert [n for n, _ in c.coeffs] == sorted(n for n, _ in c.coeffs)
            assert all(x != 0 for _, x in c.coeffs)
            assert normalized(RationalRow(c.expr, c.kind)).expr == c.expr

        expr = AffineExpr.build(coeffs, constant)
        for kind in (EQ, GE):
            # The one conversion gives what the rational normalization gave.
            assert Constraint.from_expr(expr, kind).expr == normalized(RationalRow(expr, kind)).expr
        c = getattr(Constraint, ctor)(expr, var("j"))
        assert_canonical(c)
        for derived in (
            c.substitute({"N": value}),
            c.substitute({"i": value, "j": 1}),
            Constraint(c.kind, dict(c.coeffs), c.constant),
        ):
            assert_canonical(derived)
        assert Constraint(c.kind, c.coeffs, c.constant) == c

    def test_core_modules_do_not_import_fractions(self):
        import ast
        import repro.isl.convex
        import repro.isl.fourier_motzkin

        for module in (repro.isl.convex, repro.isl.fourier_motzkin):
            tree = ast.parse(open(module.__file__).read())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module or "")
            assert "fractions" not in imported, module.__name__

    def test_normalized_equality_unsat_detected_at_contradiction(self):
        c = Constraint.eq(var("i") * 2, 3)  # 2i == 3 has no integer solution
        assert c.is_contradiction()

    def test_tautology_and_contradiction(self):
        assert Constraint.ge(AffineExpr.constant_expr(1), 0).is_tautology()
        assert Constraint.ge(AffineExpr.constant_expr(-1), 0).is_contradiction()
        assert Constraint.eq(AffineExpr.constant_expr(0), 0).is_tautology()


class TestConvexSetBasics:
    def test_box_membership(self):
        cs = ConvexSet.from_box(["i", "j"], [(1, 5), (2, 4)])
        assert cs.contains((1, 2))
        assert cs.contains((5, 4))
        assert not cs.contains((0, 3))
        assert not cs.contains((3, 5))

    def test_contains_wrong_arity(self):
        cs = ConvexSet.from_box(["i"], [(1, 5)])
        with pytest.raises(ValueError):
            cs.contains((1, 2))

    def test_box_requires_matching_bounds(self):
        with pytest.raises(ValueError):
            ConvexSet.from_box(["i", "j"], [(1, 5)])

    def test_parameter_binding(self):
        cs = ConvexSet.from_constraints(
            ["i"], [Constraint.ge("i", 1), Constraint.le("i", "N")], parameters=["N"]
        )
        bound = cs.bind_parameters({"N": 3})
        assert bound.parameters == ()
        assert bound.contains((3,))
        assert not bound.contains((4,))

    def test_unbound_parameter_membership_raises(self):
        cs = ConvexSet.from_constraints(
            ["i"], [Constraint.le("i", "N")], parameters=["N"]
        )
        with pytest.raises(ValueError):
            cs.contains((1,))
        assert cs.contains((1,), params={"N": 5})

    def test_simplified_deduplicates(self):
        c = Constraint.ge("i", 1)
        cs = ConvexSet(("i",), (c, c, Constraint.ge(AffineExpr.constant_expr(3), 0)))
        assert len(cs.simplified().constraints) == 1


class TestVariableBounds:
    def test_variable_bounds_box(self):
        cs = ConvexSet.from_box(["i", "j"], [(1, 10), (2, 7)])
        assert cs.variable_bounds("i") == (1, 10)
        assert cs.variable_bounds("j") == (2, 7)

    def test_variable_bounds_triangular(self):
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.ge("i", 1),
                Constraint.le("i", 6),
                Constraint.ge("j", "i"),
                Constraint.le("j", 6),
            ],
        )
        assert cs.variable_bounds("j") == (1, 6)
        assert cs.variable_bounds("i") == (1, 6)

    def test_variable_bounds_of_an_empty_set_are_an_empty_range(self):
        # i in [0, 0], j >= 1 and j <= 0: eliminating j leaves 1 <= 0, no row
        # over i, and the bound of i must say empty, not unbounded.
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.ge("i", 0),
                Constraint.le("i", 0),
                Constraint.ge("j", 1),
                Constraint.le("j", 0),
            ],
        )
        lo, hi = cs.variable_bounds("i")
        assert lo is not None and hi is not None and lo > hi


class TestConvexSetProperty:
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=2
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_membership_matches_box_definition(self, ranges):
        bounds = [(min(a, b), max(a, b)) for a, b in ranges]
        cs = ConvexSet.from_box(["i", "j"], bounds)
        for i in range(-1, 8):
            for j in range(-1, 8):
                expected = bounds[0][0] <= i <= bounds[0][1] and bounds[1][0] <= j <= bounds[1][1]
                assert cs.contains((i, j)) == expected
