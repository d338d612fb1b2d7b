"""Tests for repro.isl.enumerate_points: box grids."""

from repro.isl.enumerate_points import iteration_points


class TestIterationPoints:
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
