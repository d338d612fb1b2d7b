"""Tests for repro.isl.sets: unions of convex sets and their algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.convex import Constraint, ConvexSet
from repro.isl.sets import UnionSet


def box(v, bounds):
    return ConvexSet.from_box(v, bounds)


def points_of(us, params=None):
    return set(us.enumerate(params))


class TestConstruction:
    def test_empty(self):
        assert UnionSet.empty(["i"]).is_empty()
        assert UnionSet.empty(["i"]).count() == 0

    def test_from_convex(self):
        u = UnionSet.from_convex(box(["i"], [(1, 3)]))
        assert u.count() == 3

    def test_from_members_drops_obviously_empty(self):
        u = UnionSet.from_members(
            ("i",), [box(["i"], [(1, 3)]), box(["i"], [(5, 2)]).simplified()]
        )
        # the empty box may or may not be syntactically contradictory; count is 3 anyway
        assert u.count() == 3

    def test_incompatible_spaces_rejected(self):
        a = UnionSet.from_convex(box(["i"], [(1, 2)]))
        b = UnionSet.from_convex(box(["j"], [(1, 2)]))
        try:
            a.union(b)
            assert False, "expected ValueError"
        except ValueError:
            pass


class TestAlgebra:
    def test_union_counts(self):
        a = UnionSet.from_convex(box(["i"], [(1, 3)]))
        b = UnionSet.from_convex(box(["i"], [(3, 5)]))
        assert a.union(b).count() == 5  # overlap at 3 counted once

    def test_intersection(self):
        a = UnionSet.from_convex(box(["i", "j"], [(1, 5), (1, 5)]))
        b = UnionSet.from_convex(box(["i", "j"], [(3, 8), (0, 2)]))
        inter = a.intersect(b)
        assert points_of(inter) == {(i, j) for i in range(3, 6) for j in range(1, 3)}

    def test_subtract_box(self):
        a = UnionSet.from_convex(box(["i", "j"], [(1, 4), (1, 4)]))
        b = UnionSet.from_convex(box(["i", "j"], [(2, 3), (2, 3)]))
        diff = a.subtract(b)
        expected = {
            (i, j)
            for i in range(1, 5)
            for j in range(1, 5)
            if not (2 <= i <= 3 and 2 <= j <= 3)
        }
        assert points_of(diff) == expected

    def test_subtract_produces_disjoint_members(self):
        a = UnionSet.from_convex(box(["i", "j"], [(1, 6), (1, 6)]))
        b = UnionSet.from_convex(box(["i", "j"], [(2, 4), (3, 5)]))
        diff = a.subtract(b)
        seen = {}
        for m in diff.members:
            from repro.isl.enumerate_points import enumerate_convex

            for p in enumerate_convex(m):
                assert p not in seen, f"point {p} appears in two members"
                seen[p] = True

    def test_subtract_everything(self):
        a = UnionSet.from_convex(box(["i"], [(1, 5)]))
        assert a.subtract(a).count() == 0

    def test_subtract_universe_member(self):
        a = UnionSet.from_convex(box(["i"], [(1, 5)]))
        universe = UnionSet.universe(["i"])
        assert a.subtract(universe).count() == 0

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=30, deadline=None)
    def test_set_algebra_matches_python_sets(self, ai, aj, bi, bj):
        abox = [(min(ai), max(ai)), (min(aj), max(aj))]
        bbox = [(min(bi), max(bi)), (min(bj), max(bj))]
        A = UnionSet.from_convex(box(["i", "j"], abox))
        B = UnionSet.from_convex(box(["i", "j"], bbox))
        pa, pb = points_of(A), points_of(B)
        assert points_of(A.union(B)) == pa | pb
        assert points_of(A.intersect(B)) == pa & pb
        assert points_of(A.subtract(B)) == pa - pb


class TestQueries:
    def test_contains(self):
        u = UnionSet.from_convex(box(["i"], [(1, 3)])).union(
            UnionSet.from_convex(box(["i"], [(7, 9)]))
        )
        assert u.contains((2,))
        assert u.contains((8,))
        assert not u.contains((5,))

    def test_sample_point(self):
        u = UnionSet.from_convex(box(["i"], [(5, 3)])).union(
            UnionSet.from_convex(box(["i"], [(4, 4)]))
        )
        assert u.sample_point() == (4,)

    def test_bind_parameters(self):
        cs = ConvexSet.from_constraints(
            ["i"], [Constraint.ge("i", 1), Constraint.le("i", "N")], parameters=["N"]
        )
        u = UnionSet(("i",), (cs,), ("N",))
        assert u.bind_parameters({"N": 4}).count() == 4

    def test_rename_variables(self):
        u = UnionSet.from_convex(box(["i"], [(1, 2)])).rename_variables({"i": "x"})
        assert u.variables == ("x",)
        assert u.count() == 2

    def test_coalesced_removes_integer_empty_members(self):
        from repro.isl.affine import var

        empty_int = ConvexSet.from_constraints(
            ["i"], [Constraint.ge(var("i") * 2, 1), Constraint.le(var("i") * 2, 1)]
        )
        u = UnionSet(("i",), (box(["i"], [(1, 2)]), empty_int))
        assert len(u.coalesced().members) == 1
