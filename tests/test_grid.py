import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.grid import (
    OUT_OF_RANGE,
    UnevenGridSpec,
    build_grid,
    cell_centers,
    cells_of,
    depth_bin_centers,
)


def exact_edge(i: int, n: int, z_min=0, z_max=80) -> Fraction:
    """Independent oracle: the edge formula evaluated in exact arithmetic."""
    return Fraction(z_min) + Fraction(z_max - z_min) * Fraction(i * (i + 1), n * (n + 1))


@pytest.fixture
def reference_grid() -> UnevenGridSpec:
    return build_grid((-30.0, 30.0), (0.0, 80.0), 60, 80)


@pytest.fixture
def reference_column() -> UnevenGridSpec:
    """The reference grid's depth bins in one column."""
    return build_grid((-30.0, 30.0), (0.0, 80.0), 1, 80)


def column_cells(z, g: UnevenGridSpec) -> np.ndarray:
    """Depth bins through ``cells_of``: on a one-column grid the cell of
    (0, z) is z's depth bin.  Keeps the shape of z, scalars included."""
    assert g.n_x == 1 and g.x_range[0] <= 0.0 <= g.x_range[1]
    z = np.asarray(z, dtype=np.float64)
    return cells_of(np.zeros_like(z), z, g)


def row_cells(x, g: UnevenGridSpec) -> np.ndarray:
    """Lateral bins through ``cells_of``: on a one-row grid the cell of
    (x, z_min) is x's lateral bin."""
    assert g.n_z == 1
    x = np.asarray(x, dtype=np.float64)
    return cells_of(x, np.full_like(x, g.z_range[0]), g)


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
    def test_lower_edge(self, reference_column):
        assert column_cells(0.0, reference_column) == 0

    def test_last_bin(self, reference_column):
        np.testing.assert_array_equal(column_cells([79.999, 80.0], reference_column), [79, 79])

    def test_interior_value_vs_enumerated_edges(self, reference_column):
        # oracle: enumerate the exact edges around z = 1.0
        assert float(exact_edge(8, 80)) <= 1.0 < float(exact_edge(9, 80))
        assert column_cells(1.0, reference_column) == 8

    def test_out_of_range(self, reference_column):
        np.testing.assert_array_equal(
            column_cells([-0.1, 80.1, np.nan], reference_column), [OUT_OF_RANGE] * 3)

    def test_matches_linear_scan_oracle(self, reference_column):
        rng = np.random.default_rng(42)
        zs = rng.uniform(-5.0, 85.0, 100_000)
        edges = reference_column.depth_edges

        def linear_scan(z: float) -> int:
            if z < edges[0] or z > edges[-1]:
                return OUT_OF_RANGE
            if z == edges[-1]:
                return len(edges) - 2
            for i in range(len(edges) - 1):
                if edges[i] <= z < edges[i + 1]:
                    return i
            raise AssertionError("unreachable")

        got = column_cells(zs, reference_column)
        # a scalar argument takes the same path as an array of one
        for z in zs[:500]:
            assert column_cells(float(z), reference_column) == linear_scan(float(z))
        expected = np.array([linear_scan(float(z)) for z in zs])
        np.testing.assert_array_equal(got, expected)

    def test_partition_no_gaps_no_overlap(self, reference_column):
        # every edge belongs to exactly the bin it opens
        np.testing.assert_array_equal(
            column_cells(reference_column.depth_edges[:-1], reference_column),
            np.arange(reference_column.n_z))

    @settings(deadline=None, max_examples=200)
    @given(z=st.floats(0.0, 80.0))
    def test_bin_brackets_value(self, z):
        g = build_grid((-30, 30), (0.0, 80.0), 1, 80)
        b = column_cells(z, g)
        assert 0 <= b < g.n_z
        assert g.depth_edges[b] <= z
        assert z <= g.depth_edges[b + 1]


class TestCellCenter:
    def test_uniform_lateral_toy(self):
        g = build_grid((-1.0, 1.0), (0.0, 10.0), 2, 5)
        x, _ = cell_centers([0, 1], g)
        np.testing.assert_allclose(x, [-0.5, 0.5])

    def test_first_depth_center(self, reference_grid):
        expected = float((exact_edge(0, 80) + exact_edge(1, 80)) / 2)
        assert cell_centers(0, reference_grid)[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0 / 81.0)

    def test_last_depth_center(self, reference_grid):
        expected = float((exact_edge(79, 80) + exact_edge(80, 80)) / 2)
        # linear cell of (i_z, i_x) = (79, 0)
        assert cell_centers(79 * 60, reference_grid)[1] == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_raises(self, reference_grid):
        with pytest.raises(ValueError):
            cell_centers([reference_grid.n_cells], reference_grid)
        with pytest.raises(ValueError):
            cell_centers([0, OUT_OF_RANGE], reference_grid)


class TestLateralBins:
    def test_boundaries(self):
        g = build_grid((-1.0, 1.0), (0.0, 10.0), 4, 1)
        np.testing.assert_array_equal(
            row_cells([-1.0, 1.0, -1.0001, 0.49], g), [0, 3, OUT_OF_RANGE, 2])

    def test_value_one_ulp_below_an_edge_stays_below_it(self, reference_grid):
        # -30 + 17 * 1.0 = -13.0 opens column 17; the float64 floor of
        # (x + 30) / 1.0 rounded this x up into it
        x = -13.000000000000002
        assert x == np.nextafter(-13.0, -np.inf)
        assert cells_of(x, 0.0, reference_grid) == 16
        assert cells_of(-13.0, 0.0, reference_grid) == 17

    def test_edges_that_round_together_match_the_oracle(self, cell_oracle):
        # widths below float64 spacing at 1e16: several edges coincide
        g = build_grid((1e16, 1e16 + 8.0), (0.0, 1.0), 11, 1)
        lateral = g.x_range[0] + np.arange(g.n_x + 1) * g.lateral_width
        assert np.any(np.diff(lateral) == 0)
        xs = _near(np.concatenate([lateral, g.x_range]))
        np.testing.assert_array_equal(row_cells(xs, g),
                                      [cell_oracle.lateral_bin(x, g) for x in xs])


def _near(values):
    """Each value, and its float64 neighbours below and above."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def former_cells_of(x, z, g: UnevenGridSpec) -> np.ndarray:
    """The form ``cells_of`` had before its fusion: each axis binned on its
    own copy of its column, with its own in-range mask (an isfinite test
    among them), then the two bins combined by a third select.  x bisects
    the explicit lateral edges x_min + i * width, the last one x_max."""
    def in_range(v, lo, hi):
        return (v >= lo) & (v <= hi) & np.isfinite(v)

    def floor_clipped(t, top):
        return np.fmin(np.fmax(t, 0.0), top).astype(np.int64)

    z = np.asarray(z, dtype=np.float64, order="C")
    table = g._z_slots
    i_z = table.first_bin[floor_clipped((z - table.lo) * table.scale,
                                        table.first_bin.size - 1)]
    for step in table.steps:
        np.add(i_z, step, out=i_z, where=z >= table.upper[step - 1:][i_z])
    i_z = np.where(in_range(z, *g.z_range), i_z, OUT_OF_RANGE)
    x = np.asarray(x, dtype=np.float64, order="C")
    lateral = g.x_range[0] + np.arange(g.n_x + 1) * g.lateral_width
    lateral[-1] = g.x_range[1]
    i_x = np.minimum(np.searchsorted(lateral, x, side="right") - 1, g.n_x - 1)
    i_x = np.where(in_range(x, *g.x_range), i_x, OUT_OF_RANGE)
    return np.where((i_z >= 0) & (i_x >= 0), i_z * g.n_x + i_x, OUT_OF_RANGE)


class TestFormerCellsOf:
    """The fused ``cells_of`` against its former form, byte for byte."""

    @settings(deadline=None, max_examples=150)
    @given(
        x_lo=st.floats(-100.0, 100.0), x_span=st.floats(0.01, 200.0),
        z_lo=st.floats(0.0, 50.0), z_span=st.floats(0.01, 150.0),
        n_x=st.integers(1, 70), n_z=st.integers(1, 90), uneven=st.booleans(),
        extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    )
    def test_matches_the_former_form(self, x_lo, x_span, z_lo, z_span, n_x, n_z, uneven,
                                     extra):
        g = build_grid((x_lo, x_lo + x_span), (z_lo, z_lo + z_span), n_x, n_z, uneven)
        lateral_edges = g.x_range[0] + np.arange(n_x + 1) * g.lateral_width
        specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, *extra]
        xs = np.concatenate([_near(lateral_edges), _near(g.x_range), specials])
        zs = np.concatenate([_near(g.depth_edges), specials])
        x, z = (a.ravel() for a in np.meshgrid(xs, zs))
        with np.errstate(over="ignore"):
            want = former_cells_of(x, z, g)
        assert cells_of(x, z, g).tobytes() == want.tobytes()

    def test_strided_columns_of_a_cloud(self, reference_grid):
        # pillarize passes the x and z columns of an (N, 4) cloud
        rng = np.random.default_rng(8)
        points = rng.uniform(-40.0, 90.0, (20_000, 4))
        x, z = points[:, 0], points[:, 2]
        assert cells_of(x, z, reference_grid).tobytes() == former_cells_of(
            x, z, reference_grid).tobytes()


class TestCellsOf:
    @settings(deadline=None, max_examples=150)
    @given(
        x_lo=st.floats(-100.0, 100.0), x_span=st.floats(0.01, 200.0),
        z_lo=st.floats(0.0, 50.0), z_span=st.floats(0.01, 150.0),
        n_x=st.integers(1, 40), n_z=st.integers(1, 40), uneven=st.booleans(),
        extra=st.lists(st.floats(-1e3, 1e3), max_size=8),
    )
    def test_matches_bisect_oracle_at_every_edge(self, cell_oracle, x_lo, x_span, z_lo,
                                                 z_span, n_x, n_z, uneven, extra):
        g = build_grid((x_lo, x_lo + x_span), (z_lo, z_lo + z_span), n_x, n_z, uneven)
        lateral_edges = g.x_range[0] + np.arange(n_x + 1) * g.lateral_width
        specials = [np.nan, np.inf, -np.inf, *extra]
        xs = np.concatenate([_near(lateral_edges), _near(g.x_range), specials])
        zs = np.concatenate([_near(g.depth_edges), specials])
        # every x against every z, off-grid and non-finite values included
        x, z = (a.ravel() for a in np.meshgrid(xs, zs))
        expected = [cell_oracle.cell(xi, zi, g) for xi, zi in zip(x, z)]
        np.testing.assert_array_equal(cells_of(x, z, g), expected)

    def test_off_grid_is_out_of_range(self, reference_grid):
        np.testing.assert_array_equal(
            cells_of([0.0, 31.0, 0.0, np.nan], [81.0, 1.0, -np.inf, 1.0], reference_grid),
            [OUT_OF_RANGE] * 4)

    @pytest.mark.parametrize("axis", ["x", "z"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_subnormal_span_bins_without_warnings(self, cell_oracle, axis, n):
        # n_slots / 1e-310 overflows: the scale stops at the largest float,
        # so a value at the range's low end is 0 * scale = 0, not 0 * inf
        tiny, unit = (0.0, 1e-310), (0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if axis == "x":
                g = build_grid(tiny, unit, n, 1)
                edges = g.x_range[0] + np.arange(n + 1) * g.lateral_width
            else:
                g = build_grid(unit, tiny, 1, n)
                edges = g.depth_edges
            probes = np.concatenate([_near(edges), [np.nan, np.inf, 0.5, 1.0]])
            others = np.full_like(probes, 0.5 if axis == "x" else 0.0)
            x, z = (probes, others) if axis == "x" else (others, probes)
            cells = cells_of(x, z, g)
        assert getattr(g, f"_{axis}_slots").scale == np.finfo(np.float64).max
        np.testing.assert_array_equal(
            cells, [cell_oracle.cell(xi, zi, g) for xi, zi in zip(x, z)])

    def test_centers_land_in_their_own_cells(self, reference_grid):
        cells = np.arange(reference_grid.n_cells)
        np.testing.assert_array_equal(cells_of(*cell_centers(cells, reference_grid),
                                               reference_grid), cells)


def _spec(z_lo: float, span: float, inner) -> UnevenGridSpec:
    """A one-column grid over [z_lo, z_lo + span] with the given inner
    edges, kept where they fall strictly inside and strictly increase."""
    z_hi = z_lo + span
    inner = np.unique(np.asarray(inner, dtype=np.float64))
    inner = inner[(inner > z_lo) & (inner < z_hi)]
    edges = np.concatenate([[z_lo], inner, [z_hi]])
    return UnevenGridSpec((-1.0, 1.0), (z_lo, z_hi), 1, edges.size - 1, edges)


class TestArbitraryEdges:
    """Depth bins through ``cells_of`` against the bisect oracle on edges
    of any spacing, built directly and read back from JSON."""

    @settings(deadline=None, max_examples=150)
    @given(
        z_lo=st.floats(-50.0, 50.0), span=st.floats(0.01, 200.0),
        fracs=st.lists(st.floats(0.0, 1.0), max_size=30),
        tiny=st.booleans(), crowd=st.integers(0, 3),
        extra=st.lists(st.floats(-1e3, 1e3), max_size=8),
    )
    def test_matches_bisect_oracle(self, cell_oracle, z_lo, span, fracs, tiny, crowd, extra):
        inner = [z_lo + span * f for f in fracs]
        if tiny:   # first bins of 1e-9 x span: the slot cap binds
            inner += [z_lo + span * k * 1e-9 for k in (1, 2, 3)]
        z = z_lo
        for _ in range(crowd):   # bins one float apart
            z = float(np.nextafter(z, np.inf))
            inner.append(z)
        g = _spec(z_lo, span, inner)
        if tiny:   # three inner edges share the first slot: two lifting rounds
            assert len(g._z_slots.steps) > 1
        rng = np.random.default_rng(len(inner))
        zs = np.concatenate([_near(g.depth_edges), [np.nan, np.inf, -np.inf], extra,
                             rng.uniform(z_lo - 1.0, z_lo + span + 1.0, 200)])
        for spec in (g, UnevenGridSpec.from_json(g.to_json())):
            expected = [cell_oracle.depth_bin(z, spec) for z in zs]
            np.testing.assert_array_equal(column_cells(zs, spec), expected)
            np.testing.assert_array_equal(cells_of(np.zeros_like(zs), zs, spec),
                                          [cell_oracle.cell(0.0, z, spec) for z in zs])
            for z, want in list(zip(zs, expected))[::7]:
                for arg in (float(z), np.float64(z), np.array(z)):
                    got = column_cells(arg, spec)
                    assert got.shape == () and got == want

    def test_even_and_uneven_grids_match_searchsorted(self):
        # the rule the slot table replaced, on 200k unsorted z
        zs = np.random.default_rng(11).uniform(-1.0, 81.0, 200_000)
        for uneven in (False, True):
            g = build_grid((-30.0, 30.0), (0.0, 80.0), 1, 80, uneven)
            former = np.searchsorted(g.depth_edges, zs, side="right") - 1
            former = np.where(zs == 80.0, 79, former)
            former = np.where((zs < 0.0) | (zs > 80.0), OUT_OF_RANGE, former)
            np.testing.assert_array_equal(column_cells(zs, g), former)

    def test_single_bin(self, cell_oracle):
        g = _spec(2.0, 3.0, [])
        zs = _near([2.0, 3.5, 5.0])
        np.testing.assert_array_equal(column_cells(zs, g),
                                      [cell_oracle.depth_bin(z, g) for z in zs])


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

    @pytest.mark.parametrize("key, value", [
        ("z_range", [0, float("inf")]), ("x_range", [float("-inf"), 30]),
        ("x_range", [-30, float("nan")]), ("depth_edges", "inner inf"),
    ])
    def test_non_finite_ranges_and_edges_rejected(self, key, value):
        # JSON's Infinity parses to inf: a last cell centred at z = inf
        d = {"x_range": [-30.0, 30.0], "z_range": [0.0, 80.0], "n_x": 4, "n_z": 3,
             "depth_edges": [0.0, 5.0, 20.0, 80.0]}
        if value == "inner inf":
            d["z_range"], d["depth_edges"] = [0.0, float("inf")], [0.0, 5.0, 20.0, float("inf")]
        else:
            d[key] = value
        message = "x_range, z_range and depth_edges must be finite"
        with pytest.raises(ValueError, match=message):
            UnevenGridSpec.from_json(json.dumps(d))
        with pytest.raises(ValueError, match=message):
            UnevenGridSpec(d["x_range"], d["z_range"], d["n_x"], d["n_z"], d["depth_edges"])
        if key != "depth_edges":
            with pytest.raises(ValueError, match=message):
                build_grid(d["x_range"], d["z_range"], d["n_x"], d["n_z"])

    @pytest.mark.parametrize("key, value, edges", [
        ("x_range", [-1e308, 1e308], [0.0, 5.0, 20.0, 80.0]),
        ("x_range", [30.0, -30.0], [0.0, 5.0, 20.0, 80.0]),
        ("z_range", [-1e308, 1e308], [-1e308, 0.0, 1.0, 1e308]),
    ])
    def test_spans_must_be_positive_and_finite(self, key, value, edges):
        d = {"x_range": [-30.0, 30.0], "z_range": [0.0, 80.0], "n_x": 4, "n_z": 3,
             "depth_edges": edges}
        d[key] = value
        message = f"{key} must have lo < hi and a finite span hi - lo"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused before any edge overflows
            with pytest.raises(ValueError, match=message):
                UnevenGridSpec.from_json(json.dumps(d))
            with pytest.raises(ValueError, match=message):
                build_grid(d["x_range"], d["z_range"], d["n_x"], d["n_z"])

    @pytest.mark.parametrize("name", ["n_x", "n_z"])
    def test_cell_counts_must_be_positive(self, reference_grid, name):
        d = json.loads(reference_grid.to_json())
        d[name] = 0
        if name == "n_z":
            d["depth_edges"] = [0.0]
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            UnevenGridSpec.from_json(json.dumps(d))


def test_depth_bin_centers_are_interval_midpoints():
    centers = depth_bin_centers(0.0, 80.0, 80, uneven=True)
    g = build_grid((-1, 1), (0.0, 80.0), 1, 80)
    np.testing.assert_allclose(
        centers, 0.5 * (g.depth_edges[:-1] + g.depth_edges[1:]))
    uniform = depth_bin_centers(0.0, 8.0, 4, uneven=False)
    np.testing.assert_allclose(uniform, [1.0, 3.0, 5.0, 7.0])
