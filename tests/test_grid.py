import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.grid import (
    OUT_OF_RANGE,
    UnevenGridSpec,
    build_grid,
    cell_center,
    depth_bin_centers,
    depth_bin_of,
    depth_bins_of,
    lateral_bin_of,
)


def exact_edge(i: int, n: int, z_min=0, z_max=80) -> Fraction:
    """Independent oracle: the edge formula evaluated in exact arithmetic."""
    return Fraction(z_min) + Fraction(z_max - z_min) * Fraction(i * (i + 1), n * (n + 1))


@pytest.fixture
def reference_grid() -> UnevenGridSpec:
    return build_grid((-30.0, 30.0), (0.0, 80.0), 60, 80)


class TestBuildGrid:
    def test_endpoints_exact(self, reference_grid):
        assert reference_grid.depth_edges[0] == 0.0
        assert reference_grid.depth_edges[80] == 80.0

    def test_first_edge_matches_exact_oracle(self, reference_grid):
        assert reference_grid.depth_edges[1] == pytest.approx(
            float(exact_edge(1, 80)), abs=1e-12)
        assert float(exact_edge(1, 80)) == pytest.approx(2.0 / 81.0)

    def test_bin_widths(self, reference_grid):
        widths = np.diff(reference_grid.depth_edges)
        assert widths[0] == pytest.approx(2.0 / 81.0, abs=1e-12)
        assert widths[-1] == pytest.approx(160.0 / 81.0, abs=1e-12)
        assert widths.sum() == pytest.approx(80.0, abs=1e-9)

    def test_width_growth_is_constant(self, reference_grid):
        # widths grow by exactly 2 * span / (n * (n + 1)) per bin
        widths = np.diff(reference_grid.depth_edges)
        growth = np.diff(widths)
        expected = 2.0 * 80.0 / (80 * 81)
        np.testing.assert_allclose(growth, expected, atol=1e-12)

    def test_width_formula_matches_exact_oracle(self, reference_grid):
        widths = np.diff(reference_grid.depth_edges)
        for i in range(1, 81):
            expected = float(exact_edge(i, 80) - exact_edge(i - 1, 80))
            assert widths[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_uniform_flag(self):
        g = build_grid((-1.0, 1.0), (0.0, 10.0), 4, 5, uneven=False)
        np.testing.assert_allclose(g.depth_edges, [0, 2, 4, 6, 8, 10])

    def test_refinement_approaches_quadratic_profile(self):
        # finer grids track the continuum edge profile z_min + span * f^2
        # ever more closely at any fixed fractional index
        span = 80.0
        errors = []
        for n in (10, 100, 1000):
            g = build_grid((-1, 1), (0.0, span), 1, n)
            f = np.arange(n + 1) / n
            errors.append(np.max(np.abs(g.depth_edges - span * f**2)))
        assert errors[0] > errors[1] > errors[2]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_grid((-1, 1), (0, 80), 0, 80)
        with pytest.raises(ValueError):
            build_grid((-1, 1), (80, 0), 10, 10)
        with pytest.raises(ValueError):
            build_grid((1, -1), (0, 80), 10, 10)


class TestDepthBinOf:
    def test_lower_edge(self, reference_grid):
        assert depth_bin_of(0.0, reference_grid) == 0

    def test_last_bin(self, reference_grid):
        assert depth_bin_of(79.999, reference_grid) == 79
        assert depth_bin_of(80.0, reference_grid) == 79

    def test_interior_value_vs_enumerated_edges(self, reference_grid):
        # oracle: enumerate the exact edges around z = 1.0
        assert float(exact_edge(8, 80)) <= 1.0 < float(exact_edge(9, 80))
        assert depth_bin_of(1.0, reference_grid) == 8

    def test_out_of_range(self, reference_grid):
        assert depth_bin_of(-0.1, reference_grid) == OUT_OF_RANGE
        assert depth_bin_of(80.1, reference_grid) == OUT_OF_RANGE
        assert depth_bin_of(np.nan, reference_grid) == OUT_OF_RANGE

    def test_matches_linear_scan_oracle(self, reference_grid):
        rng = np.random.default_rng(42)
        zs = rng.uniform(-5.0, 85.0, 100_000)
        edges = reference_grid.depth_edges

        def linear_scan(z: float) -> int:
            if z < edges[0] or z > edges[-1]:
                return OUT_OF_RANGE
            if z == edges[-1]:
                return len(edges) - 2
            for i in range(len(edges) - 1):
                if edges[i] <= z < edges[i + 1]:
                    return i
            raise AssertionError("unreachable")

        got = depth_bins_of(zs, reference_grid)
        # spot-check the vectorized path against the scalar one too
        for z in zs[:500]:
            assert depth_bin_of(float(z), reference_grid) == linear_scan(float(z))
        expected = np.array([linear_scan(float(z)) for z in zs])
        np.testing.assert_array_equal(got, expected)

    def test_partition_no_gaps_no_overlap(self, reference_grid):
        # every edge belongs to exactly the bin it opens
        for i in range(reference_grid.n_z):
            assert depth_bin_of(float(reference_grid.depth_edges[i]), reference_grid) == i

    @settings(deadline=None, max_examples=200)
    @given(z=st.floats(0.0, 80.0))
    def test_bin_brackets_value(self, z):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        b = depth_bin_of(z, g)
        assert 0 <= b < g.n_z
        assert g.depth_edges[b] <= z
        assert z <= g.depth_edges[b + 1]


class TestCellCenter:
    def test_uniform_lateral_toy(self):
        g = build_grid((-1.0, 1.0), (0.0, 10.0), 2, 5)
        assert cell_center(0, 0, g)[0] == pytest.approx(-0.5)
        assert cell_center(1, 0, g)[0] == pytest.approx(0.5)

    def test_first_depth_center(self, reference_grid):
        expected = float((exact_edge(0, 80) + exact_edge(1, 80)) / 2)
        assert cell_center(0, 0, reference_grid)[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0 / 81.0)

    def test_last_depth_center(self, reference_grid):
        expected = float((exact_edge(79, 80) + exact_edge(80, 80)) / 2)
        assert cell_center(0, 79, reference_grid)[1] == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_raises(self, reference_grid):
        with pytest.raises(ValueError):
            cell_center(60, 0, reference_grid)
        with pytest.raises(ValueError):
            cell_center(0, 80, reference_grid)


class TestLateralBins:
    def test_boundaries(self):
        g = build_grid((-1.0, 1.0), (0.0, 10.0), 4, 5)
        assert lateral_bin_of(-1.0, g) == 0
        assert lateral_bin_of(1.0, g) == 3
        assert lateral_bin_of(-1.0001, g) == OUT_OF_RANGE
        assert lateral_bin_of(0.49, g) == 2


class TestSerialization:
    def test_json_round_trip(self, reference_grid):
        restored = UnevenGridSpec.from_json(reference_grid.to_json())
        assert restored.x_range == reference_grid.x_range
        assert restored.n_x == reference_grid.n_x
        np.testing.assert_array_equal(restored.depth_edges, reference_grid.depth_edges)

    def test_edges_are_explicit_in_json(self, reference_grid):
        assert '"depth_edges"' in reference_grid.to_json()

    @pytest.mark.parametrize("n_x", [60.5, 60.0, True, None, "60"])
    def test_cell_counts_must_be_integers(self, reference_grid, n_x):
        d = json.loads(reference_grid.to_json())
        d["n_x"] = n_x
        with pytest.raises(ValueError, match="n_x must be an integer"):
            UnevenGridSpec.from_json(json.dumps(d))
        with pytest.raises(ValueError, match="n_x must be an integer"):
            UnevenGridSpec(reference_grid.x_range, reference_grid.z_range, n_x,
                           reference_grid.n_z, reference_grid.depth_edges)

    @pytest.mark.parametrize("key, value", [("x_range", 5), ("z_range", [0, 40, 80]),
                                            ("depth_edges", {"a": 1}), ("x_range", ["a", 1])])
    def test_malformed_json_names_the_key(self, reference_grid, key, value):
        d = json.loads(reference_grid.to_json())
        d[key] = value
        with pytest.raises(ValueError, match=key):
            UnevenGridSpec.from_json(json.dumps(d))


def test_depth_bin_centers_are_interval_midpoints():
    centers = depth_bin_centers(0.0, 80.0, 80, uneven=True)
    g = build_grid((-1, 1), (0.0, 80.0), 1, 80)
    np.testing.assert_allclose(
        centers, 0.5 * (g.depth_edges[:-1] + g.depth_edges[1:]))
    uniform = depth_bin_centers(0.0, 8.0, 4, uneven=False)
    np.testing.assert_allclose(uniform, [1.0, 3.0, 5.0, 7.0])
