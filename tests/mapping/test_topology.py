"""Tests for grid topologies."""

import pytest

from repro.errors import MappingError
from repro.device.topology import GridTopology, LineTopology, grid_for


class TestGridTopology:
    def test_dimensions(self):
        grid = GridTopology(3, 4)
        assert grid.num_qubits == 12

    def test_invalid_dimensions(self):
        with pytest.raises(MappingError):
            GridTopology(0, 3)

    def test_coordinates_round_trip(self):
        grid = GridTopology(3, 4)
        for qubit in grid.all_qubits():
            row, col = grid.coordinates(qubit)
            assert grid.index(row, col) == qubit

    def test_out_of_range(self):
        grid = GridTopology(2, 2)
        with pytest.raises(MappingError):
            grid.coordinates(4)
        with pytest.raises(MappingError):
            grid.index(2, 0)

    def test_corner_neighbors(self):
        grid = GridTopology(3, 3)
        assert sorted(grid.neighbors(0)) == [1, 3]

    def test_center_neighbors(self):
        grid = GridTopology(3, 3)
        assert sorted(grid.neighbors(4)) == [1, 3, 5, 7]

    def test_adjacency(self):
        grid = GridTopology(2, 3)
        assert grid.are_adjacent(0, 1)
        assert grid.are_adjacent(0, 3)
        assert not grid.are_adjacent(0, 4)
        assert not grid.are_adjacent(2, 3)  # row wrap is not adjacency

    def test_distance_is_manhattan(self):
        grid = GridTopology(3, 3)
        assert grid.distance(0, 8) == 4
        assert grid.distance(4, 4) == 0

    def test_shortest_path_endpoints_and_length(self):
        grid = GridTopology(3, 3)
        path = grid.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == grid.distance(0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert grid.are_adjacent(a, b)

    def test_shortest_path_same_node(self):
        assert GridTopology(2, 2).shortest_path(1, 1) == [1]


class TestLineTopology:
    def test_is_single_row(self):
        line = LineTopology(5)
        assert line.rows == 1 and line.cols == 5
        assert sorted(line.neighbors(2)) == [1, 3]

    def test_end_neighbors(self):
        line = LineTopology(4)
        assert line.neighbors(0) == [1]
        assert line.neighbors(3) == [2]


class TestGridFor:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 20, 30, 47, 60])
    def test_capacity_and_compactness(self, n):
        grid = grid_for(n)
        assert grid.num_qubits >= n
        # Near-square: aspect ratio at most ~2 for n > 2.
        if n > 2:
            assert max(grid.rows, grid.cols) <= 2 * min(grid.rows, grid.cols) + 2

    def test_perfect_square(self):
        grid = grid_for(16)
        assert (grid.rows, grid.cols) == (4, 4)

    def test_invalid(self):
        with pytest.raises(MappingError):
            grid_for(0)
