"""Tests for repro.isl.affine: affine expression arithmetic and substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.affine import AffineExpr, const, var

names = st.sampled_from(["i", "j", "k", "N"])
small_ints = st.integers(min_value=-8, max_value=8)


def exprs():
    return st.builds(
        lambda coeffs, c: AffineExpr.build(dict(coeffs), c),
        st.dictionaries(names, small_ints, max_size=3).map(lambda d: tuple(d.items())),
        small_ints,
    )


class TestConstruction:
    def test_variable(self):
        e = var("i")
        assert e.coeff("i") == 1
        assert e.constant == 0

    def test_constant(self):
        assert const(5).constant == 5
        assert const(5).is_constant()

    def test_build_drops_zero_coefficients(self):
        e = AffineExpr.build({"i": 0, "j": 2})
        assert e.variables == ("j",)

    def test_from_any(self):
        assert AffineExpr.from_any("i") == var("i")
        assert AffineExpr.from_any(3) == const(3)
        assert AffineExpr.from_any(var("i")) == var("i")
        with pytest.raises(TypeError):
            AffineExpr.from_any(object())

    def test_hashable_and_equal(self):
        assert var("i") + 1 == AffineExpr.build({"i": 1}, 1)
        assert hash(var("i") + 1) == hash(AffineExpr.build({"i": 1}, 1))


class TestArithmetic:
    def test_add_sub(self):
        e = var("i") * 3 + var("j") - 2
        assert e.coeff("i") == 3
        assert e.coeff("j") == 1
        assert e.constant == -2

    def test_cancellation(self):
        e = var("i") - var("i")
        assert e.is_constant() and e.constant == 0

    def test_scalar_multiplication(self):
        e = (var("i") + 2) * Fraction(1, 2)
        assert e.coeff("i") == Fraction(1, 2)
        assert e.constant == 1

    def test_rsub_radd(self):
        e = 5 - var("i")
        assert e.coeff("i") == -1 and e.constant == 5
        e2 = 5 + var("i")
        assert e2.coeff("i") == 1 and e2.constant == 5

    def test_negation(self):
        e = -(var("i") - 3)
        assert e.coeff("i") == -1 and e.constant == 3

    @given(exprs(), exprs())
    @settings(max_examples=50)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(exprs(), exprs(), exprs())
    @settings(max_examples=50)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(exprs(), small_ints)
    @settings(max_examples=50)
    def test_scalar_distributes(self, a, k):
        assert (a + a) * k == a * k + a * k


class TestEvaluation:
    def test_evaluate(self):
        e = var("i") * 3 + var("j") - 2
        assert e.evaluate({"i": 2, "j": 5}) == 9

    def test_evaluate_missing_variable(self):
        with pytest.raises(KeyError):
            (var("i") + 1).evaluate({})

    def test_substitute_expression(self):
        e = var("i") * 2 + 1
        out = e.substitute({"i": var("j") + 3})
        assert out == var("j") * 2 + 7

    def test_substitute_constant(self):
        assert (var("i") + var("j")).substitute({"i": 4}) == var("j") + 4

    def test_rename(self):
        assert (var("i") + var("j")).rename({"i": "x"}) == var("x") + var("j")

    def test_drop(self):
        assert (var("i") + var("j") + 1).drop(["j"]) == var("i") + 1

    @given(exprs(), st.dictionaries(names, small_ints, min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_substitution_consistent_with_evaluation(self, e, env):
        # substituting constants then reading the constant == evaluating
        substituted = e.substitute(env)
        assert substituted.is_constant()
        assert substituted.constant == e.evaluate(env)


class TestUtilities:
    def test_is_integral(self):
        assert (var("i") * 2 + 1).is_integral()
        assert not (var("i") * Fraction(1, 2)).is_integral()

    def test_str_rendering(self):
        assert str(var("i") - 1) in ("i-1", "i -1")
        assert str(const(0)) == "0"
