"""The IR's integer rows: subscripts and loop bounds evaluated on Python ints.

``ArrayRef`` and ``Loop`` build one integer row per subscript or bound when
they are constructed.  The differential at the bottom checks them against
the ``Fraction`` evaluator they replaced (``tests/oracle.py``).
"""

import dataclasses
import pickle
from fractions import Fraction

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.builder import aref, loop
from repro.ir.nodes import ArrayRef, Loop, integer_row
from repro.isl.affine import AffineExpr, var


class TestIntegerRow:
    def test_integral_expression_keeps_denominator_one(self):
        assert integer_row(var("I") * 3 - var("J") + 2) == ((("I", 3), ("J", -1)), 2, 1)

    def test_rational_expression_scales_by_lcm(self):
        expr = var("I") * Fraction(1, 2) + var("J") * Fraction(2, 3) + Fraction(1, 6)
        assert integer_row(expr) == ((("I", 3), ("J", 4)), 1, 6)

    def test_constant_expression(self):
        assert integer_row(AffineExpr.constant_expr(-4)) == ((), -4, 1)


class TestDerivedRows:
    def test_rows_do_not_change_equality_hash_or_text(self):
        a = aref("a", "2*I+1", "J")
        b = ArrayRef("a", tuple(a.subscripts))
        assert a == b and hash(a) == hash(b)
        assert str(a) == "a(2*I+1, J)"
        assert "rows" not in repr(a)
        l1, l2 = loop("I", [1, "J"], "N"), loop("I", [1, "J"], "N")
        assert l1 == l2 and hash(l1) == hash(l2)
        assert "rows" not in repr(l1)

    def test_replace_and_pickle_carry_rows(self):
        ref = aref("a", "I+1")
        moved = dataclasses.replace(ref, subscripts=(var("I") + 5,))
        assert moved.evaluate({"I": 1}) == (6,)
        assert pickle.loads(pickle.dumps(ref)).evaluate({"I": 1}) == (2,)
        l = pickle.loads(pickle.dumps(loop("I", 1, "N")))
        assert l.evaluate_bounds({"N": 4}) == (1, 4)

    def test_rational_subscript_on_an_integer(self):
        ref = ArrayRef.make("a", [var("I") * Fraction(1, 2) + Fraction(1, 2)])
        assert ref.evaluate({"I": 3}) == (2,)
        with pytest.raises(ValueError, match=r"non-integer subscript value 3/2"):
            ref.evaluate({"I": 2})

    def test_negative_value_between_integers(self):
        ref = ArrayRef.make("a", [var("I") * Fraction(1, 3)])
        with pytest.raises(ValueError, match=r"non-integer subscript value -1/3"):
            ref.evaluate({"I": -1})

    def test_non_integer_bound(self):
        l = Loop.make("I", var("N") * Fraction(1, 2), 10)
        assert l.evaluate_bounds({"N": 4}) == (2, 10)
        with pytest.raises(ValueError, match="non-integer bound value for loop I"):
            l.evaluate_bounds({"N": 3})

    def test_missing_variable(self):
        with pytest.raises(KeyError, match="no value for variable 'J'"):
            aref("a", "I+J").evaluate({"I": 1})
        with pytest.raises(KeyError, match="no value for variable 'N'"):
            loop("I", 1, "N").evaluate_bounds({})


# ---------------------------------------------------------------------------
# differential: integer rows vs the rational reference
# ---------------------------------------------------------------------------

VARIABLES = ("I", "J", "K")

_coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])),
)


@st.composite
def affine_exprs(draw):
    coeffs = {v: draw(_coefficients) for v in VARIABLES}
    return AffineExpr.build(coeffs, draw(_coefficients))


environments = st.fixed_dictionaries({v: st.integers(-10, 10) for v in VARIABLES})


def _outcome(fn, *args):
    """``fn(*args)``, or the ``ValueError`` message it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestRationalReferenceDifferential:
    @given(st.lists(affine_exprs(), min_size=1, max_size=3), environments)
    def test_subscripts_match_rational_reference(self, subscripts, env):
        ref = ArrayRef("a", tuple(subscripts))
        assert _outcome(ref.evaluate, env) == _outcome(oracle.rational_subscripts, ref, env)

    @given(
        st.lists(affine_exprs(), min_size=1, max_size=3),
        st.lists(affine_exprs(), min_size=1, max_size=3),
        environments,
    )
    def test_loop_bounds_match_rational_reference(self, lower, upper, env):
        l = Loop("L", tuple(lower), tuple(upper))
        assert _outcome(l.evaluate_bounds, env) == _outcome(oracle.rational_bounds, l, env)


@pytest.mark.parametrize(
    "module",
    [
        "repro.baselines.doacross",
        "repro.core.dataflow",
        "repro.core.statement",
        "repro.dependence.analysis",
        "repro.dependence.distance",
        "repro.dependence.exact",
        "repro.isl.enumerate_points",
        "repro.isl.relations",
    ],
)
def test_cold_plan_front_end_does_not_import_fractions(module):
    """The domain scan, the reference-pair dedup, the Kahn peel and the
    builders that read its order run on integer rows and indices; none of
    their modules may fall back on ``Fraction`` arithmetic."""
    import ast
    import importlib

    tree = ast.parse(open(importlib.import_module(module).__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "fractions" not in imported
