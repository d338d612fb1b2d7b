"""Tests for repro.isl.enumerate_points: box grids and numpy filtering."""

import numpy as np
import pytest

from repro.isl.affine import var
from repro.isl.convex import Constraint, ConvexSet
from repro.isl.enumerate_points import filter_box_numpy, iteration_points


class TestNumpyFiltering:
    def test_iteration_points_shape_and_order(self):
        grid = iteration_points([(1, 2), (5, 7)])
        assert grid.shape == (6, 2)
        assert grid[0].tolist() == [1, 5]
        assert grid[-1].tolist() == [2, 7]
        # row-major: lexicographic
        as_tuples = [tuple(r) for r in grid.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_iteration_points_zero_dims(self):
        grid = iteration_points([])
        assert grid.shape == (1, 0)

    def test_filter_matches_membership(self):
        cs = ConvexSet.from_constraints(
            ["i", "j"], [Constraint.ge("j", "i"), Constraint.le("j", 8)]
        )
        grid = iteration_points([(0, 9), (0, 9)])
        mask = filter_box_numpy(cs, grid)
        for row, keep in zip(grid.tolist(), mask.tolist()):
            assert keep == cs.contains(tuple(row))

    def test_filter_with_params(self):
        cs = ConvexSet.from_constraints(
            ["i"], [Constraint.ge("i", 1), Constraint.le("i", "N")], parameters=["N"]
        )
        grid = iteration_points([(0, 10)])
        mask = filter_box_numpy(cs, grid, {"N": 4})
        assert mask.sum() == 4

    def test_filter_dimension_mismatch(self):
        cs = ConvexSet.from_box(["i", "j"], [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            filter_box_numpy(cs, np.zeros((3, 3), dtype=np.int64))

    def test_filter_equality(self):
        cs = ConvexSet.from_constraints(["i", "j"], [Constraint.eq(var("i"), var("j"))])
        grid = iteration_points([(0, 3), (0, 3)])
        mask = filter_box_numpy(cs, grid)
        assert mask.sum() == 4
