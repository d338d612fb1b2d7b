"""Tests for repro.isl.fourier_motzkin: projection vs brute-force enumeration,
and the integer rows vs the rational reference in ``tests/oracle.py``."""

from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import RationalRow
from repro.isl.affine import AffineExpr, var
from repro.isl.convex import EQ, GE, Constraint, ConvexSet
from repro.isl.fourier_motzkin import eliminate_variable, eliminate_variables, project_onto


def box_points(cs, bounds):
    """The integer points of ``cs`` inside the box ``bounds``, by brute force."""
    return [p for p in product(*(range(lo, hi + 1) for lo, hi in bounds)) if cs.contains(p)]


def brute_projection(points, keep_indices):
    return sorted({tuple(p[k] for k in keep_indices) for p in points})


class TestElimination:
    def test_substitution_through_equality(self):
        cons = [
            Constraint.eq(var("j"), var("i") + 2),
            Constraint.ge(var("j"), 5),
        ]
        out = eliminate_variable(cons, "j")
        # j = i + 2 and j >= 5  =>  i >= 3
        cs = ConvexSet(("i",), tuple(out))
        assert cs.contains((3,))
        assert not cs.contains((2,))

    def test_lower_upper_combination(self):
        cons = [
            Constraint.ge(var("x"), var("a")),       # x >= a
            Constraint.le(var("x"), var("b")),       # x <= b
        ]
        out = eliminate_variable(cons, "x")
        cs = ConvexSet(("a", "b"), tuple(out))
        assert cs.contains((2, 5))
        assert not cs.contains((5, 2))

    def test_contradiction_detected(self):
        cons = [Constraint.ge(var("x"), 5), Constraint.le(var("x"), 3)]
        out = eliminate_variable(cons, "x")
        assert any(c.is_contradiction() for c in out)


class TestProjection:
    def test_project_onto_keeps_requested(self):
        cs = ConvexSet.from_box(["i", "j", "k"], [(1, 2), (3, 4), (5, 6)])
        projected = project_onto(cs, ["j"])
        assert projected.variables == ("j",)
        assert projected.variable_bounds("j") == (3, 4)

    def test_triangular_projection(self):
        # 1 <= i <= 5, i <= j <= 5 : projection onto j is [1, 5]
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.ge("i", 1),
                Constraint.le("i", 5),
                Constraint.ge("j", "i"),
                Constraint.le("j", 5),
            ],
        )
        projected = project_onto(cs, ["j"])
        assert projected.variable_bounds("j") == (1, 5)

    def test_projection_is_superset_of_true_shadow(self):
        # 2i = j with 1 <= j <= 6: true shadow of j is even values, the
        # rational projection is the full interval — conservative, never smaller.
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.eq(var("j"), var("i") * 2),
                Constraint.ge("j", 1),
                Constraint.le("j", 6),
            ],
        )
        projected = project_onto(cs, ["j"])
        true_shadow = brute_projection(box_points(cs, [(0, 3), (1, 6)]), [1])
        for (j,) in true_shadow:
            assert projected.contains((j,))

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_projection_covers_brute_force(self, box, extra):
        lo1, hi1, lo2, hi2 = box
        a, b, c = extra
        cons = [
            Constraint.ge("i", min(lo1, hi1)),
            Constraint.le("i", max(lo1, hi1)),
            Constraint.ge("j", min(lo2, hi2)),
            Constraint.le("j", max(lo2, hi2)),
            Constraint.ge(var("i") * a + var("j") * b + c, 0),
        ]
        cs = ConvexSet.from_constraints(["i", "j"], cons)
        points = box_points(cs, [(0, 4), (0, 4)])
        projected = project_onto(cs, ["i"])
        # every actual i value must be in the projection (soundness); the
        # projection may be larger (rational relaxation) but never smaller.
        for (i_val,) in brute_projection(points, [0]):
            assert projected.contains((i_val,))


# ---------------------------------------------------------------------------
# differential: integer rows vs the rational reference
# ---------------------------------------------------------------------------

#: Every drawn variable is boxed to [-BOX, BOX], so each system is bounded.
BOX = 3
VARIABLES = ("w", "x", "y", "z")

_coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])),
)


@st.composite
def rational_systems(draw):
    """2–4 boxed variables, an optional parameter ``N`` with a drawn value,
    and 1–4 random ``==``/``>=`` rows, some with rational coefficients; plus
    an elimination order over the variables."""
    variables = VARIABLES[: draw(st.integers(2, 4))]
    parameters = ("N",) if draw(st.booleans()) else ()
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {v: draw(_coefficients) for v in variables + parameters}
        expr = AffineExpr.build(coeffs, draw(_coefficients))
        rows.append(RationalRow(expr, draw(st.sampled_from([EQ, GE, GE]))))
    for v in variables:
        rows.append(RationalRow(var(v) + BOX, GE))
        rows.append(RationalRow(BOX - var(v), GE))
    order = draw(st.permutations(variables))
    n_value = draw(st.integers(-BOX, BOX))
    return variables, parameters, rows, list(order), n_value


def _integer_points(rows, names, lo, hi, bound):
    """The points of ``[lo, hi]^len(names)`` satisfying every rational row,
    with the symbols in ``bound`` fixed to their values."""
    points = np.array(list(product(range(lo, hi + 1), repeat=len(names))), dtype=np.int64)
    mask = np.ones(len(points), dtype=bool)
    for row in rows:
        expr = oracle.scaled_to_integer(row.expr.substitute(bound))
        assert set(expr.variables) <= set(names)
        values = np.full(len(points), int(expr.constant), dtype=np.int64)
        for k, name in enumerate(names):
            values += int(expr.coeff(name)) * points[:, k]
        mask &= (values == 0) if row.kind == EQ else (values >= 0)
    return [tuple(p) for p in points[mask].tolist()]


class TestRationalReferenceDifferential:
    @given(rational_systems())
    def test_integer_core_matches_rational_reference(self, system):
        variables, parameters, rows, order, n_value = system
        params = {"N": n_value} if parameters else {}
        core = [Constraint.from_expr(r.expr, r.kind) for r in rows]
        # The rational code normalized every row before eliminating from it.
        reference = [oracle.normalized(r) for r in rows]
        assert [c.expr for c in core] == [r.expr for r in reference]

        # Elimination, one row for one row, after every prefix of the order.
        for k in range(1, len(order) + 1):
            got = eliminate_variables(core, order[:k])
            want = oracle.eliminate_variables(reference, order[:k])
            assert [c.expr for c in got] == [oracle.normalized(r).expr for r in want]

        # Both projections hold the same integer points of a box around them.
        cs = ConvexSet.from_constraints(variables, core, parameters)
        keep = sorted(order[1:])
        projected = project_onto(cs, keep)
        shadow = oracle.simplified(
            oracle.eliminate_variables(oracle.simplified(rows), order[:1])
        )
        inside = set(_integer_points(shadow, keep, -BOX - 1, BOX + 1, params))
        for point in product(range(-BOX - 1, BOX + 2), repeat=len(keep)):
            assert projected.contains(point, params) == (point in inside)

        # Bounds, with N bound.
        bound = [RationalRow(r.expr.substitute(params), r.kind) for r in rows]
        for v in variables:
            assert cs.variable_bounds(v, params or None) == oracle.rational_variable_bounds(
                bound, variables, v
            )
