import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.config import Config
from bevkit.geom import CameraIntrinsics, FeatureMap, unproject_pixel
from bevkit.grid import build_grid, cells_of, depth_bin_centers
from bevkit.liftsplat import (
    DepthDistribution,
    SparseProjection,
    _entry_targets,
    bench_projection,
    bev_depth_confidence,
    outer_project,
    sparse_prune,
    splat_to_bev,
    synth_projection_inputs,
)


def brute_force_splat(cell_oracle, f_i, f_d, K, g, tau=0.0, uneven_bins=False):
    """Independent oracle: loop over every (bin, pixel) with the scalar
    geometry API and the bisect cell oracle, and accumulate by hand."""
    c_i = f_i.shape[0]
    c_d, h_f, w_f = f_d.probs.shape
    centers = depth_bin_centers(g.z_range[0], g.z_range[1], c_d, uneven_bins)
    bev = np.zeros((c_i, g.n_z, g.n_x))
    dropped_per_cell = np.zeros((g.n_z, g.n_x), dtype=np.int64)
    for h in range(h_f):
        for w in range(w_f):
            for d in range(c_d):
                weight = f_d.probs[d, h, w]
                point = unproject_pixel(float(w), float(h), float(centers[d]), K)
                i_z = cell_oracle.depth_bin(point[2], g)
                i_x = cell_oracle.lateral_bin(point[0], g)
                if i_z < 0 or i_x < 0:
                    continue
                if weight >= tau:
                    bev[:, i_z, i_x] += weight * f_i.data[:, 0, h, w]
                else:
                    dropped_per_cell[i_z, i_x] += 1
    return bev, dropped_per_cell


def bincount_splat(f_i, sp, K, g, reduce="sum", uneven_bins=False):
    """The per-entry, per-channel splat that the sparse product replaced:
    each entry's cell from its own ray, then one bincount per channel
    (bincount adds a cell's entries in entry order)."""
    c_i, _, h, w = f_i.shape
    centers = depth_bin_centers(g.z_range[0], g.z_range[1], sp.source_shape[0], uneven_bins)
    z = centers[sp.bins]
    x = ((sp.pixels % w).astype(np.float64) - K.cx) * z / K.fx
    cells = cells_of(x, z, g)
    valid = cells >= 0
    cells = cells[valid]
    pixels, weights = sp.pixels[valid], sp.weights[valid]
    feats2d = f_i.data.reshape(c_i, h * w)
    out = np.empty((c_i, g.n_cells))
    for c in range(c_i):
        out[c] = np.bincount(cells, weights=weights * feats2d[c, pixels], minlength=g.n_cells)
    if reduce == "mean":
        counts = np.bincount(cells, minlength=g.n_cells)
        occupied = counts > 0
        out[:, occupied] /= counts[occupied]
    return out.reshape(c_i, 1, g.n_z, g.n_x), cells.size


def tiny_setup(n_x=3, n_z=4, c_d=4):
    """1x1 image whose only pixel is the principal point; bins = grid rows."""
    K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1)
    g = build_grid((-1.5, 1.5), (0.0, 8.0), n_x, n_z, uneven=False)
    return K, g


class TestDepthDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DepthDistribution(np.array([[[-0.1]], [[1.1]]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            DepthDistribution(np.full((2, 1, 1), np.nan))
        with pytest.raises(ValueError, match="NaN"):
            DepthDistribution(np.array([[[np.nan]], [[1.0]]]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DepthDistribution(np.full((2, 1, 1), 0.4))

    def test_accepts_valid(self):
        d = DepthDistribution(np.full((4, 2, 2), 0.25))
        assert d.n_bins == 4 and d.spatial_shape == (2, 2)


class TestOuterProject:
    def test_hand_multiplication(self):
        # oracle: multiply by hand, column by column
        f_i = FeatureMap(np.array([1.0, 2.0]).reshape(2, 1, 1, 1))
        f_d = DepthDistribution(np.array([0.7, 0.2999, 0.0001]).reshape(3, 1, 1))
        out = outer_project(f_i, f_d)
        expected = np.array([
            [0.7, 0.2999, 0.0001],
            [1.4, 0.5998, 0.0002],
        ]).reshape(2, 3, 1, 1)
        np.testing.assert_allclose(out.data, expected)

    def test_one_hot_places_features(self):
        f_i = FeatureMap(np.arange(4.0).reshape(2, 1, 1, 2))
        probs = np.zeros((3, 1, 2))
        probs[1, 0, 0] = 1.0
        probs[2, 0, 1] = 1.0
        out = outer_project(f_i, DepthDistribution(probs))
        assert out.data[:, 1, 0, 0].tolist() == [0.0, 2.0]
        assert out.data[:, 2, 0, 1].tolist() == [1.0, 3.0]
        assert np.count_nonzero(out.data) == 3  # f_i[0,0,0,0] is 0

    def test_zero_features_give_zero(self):
        f_i = FeatureMap(np.zeros((2, 1, 2, 2)))
        f_d = DepthDistribution(np.full((3, 2, 2), 1 / 3))
        assert not outer_project(f_i, f_d).data.any()

    def test_shape_mismatch_raises(self):
        f_i = FeatureMap(np.zeros((2, 1, 2, 3)))
        f_d = DepthDistribution(np.full((3, 2, 2), 1 / 3))
        with pytest.raises(ValueError):
            outer_project(f_i, f_d)


class TestSparsePrune:
    def test_tau_zero_keeps_everything(self):
        f_d = DepthDistribution(np.full((4, 3, 3), 0.25))
        sp = sparse_prune(f_d, 0.0)
        assert sp.kept == sp.total == 36
        assert sp.removal_ratio == 0.0

    def test_three_bin_example(self):
        f_d = DepthDistribution(np.array([0.7, 0.2999, 0.0001]).reshape(3, 1, 1))
        sp = sparse_prune(f_d, 1e-3)
        assert sorted(sp.bins.tolist()) == [0, 1]
        assert sp.removal_ratio == pytest.approx(1 / 3)

    def test_keep_on_equality(self):
        f_d = DepthDistribution(np.array([0.5, 0.5]).reshape(2, 1, 1))
        sp = sparse_prune(f_d, 0.5)
        assert sp.kept == 2

    def test_negative_tau_raises(self):
        f_d = DepthDistribution(np.full((2, 1, 1), 0.5))
        with pytest.raises(ValueError):
            sparse_prune(f_d, -1e-9)

    def test_nan_tau_raises(self):
        # probs >= NaN is false everywhere: a NaN threshold would keep nothing
        f_d = DepthDistribution(np.full((2, 1, 1), 0.5))
        with pytest.raises(ValueError, match="tau must be non-negative, not NaN"):
            sparse_prune(f_d, float("nan"))

    def test_kept_sets_nest_as_tau_grows(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 5, 5)) * 3
        probs = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        f_d = DepthDistribution(probs)
        previous = None
        for tau in (0.0, 1e-3, 1e-2, 1e-1):
            sp = sparse_prune(f_d, tau)
            assert sp.weights.size == 0 or sp.weights.min() >= tau
            kept = set(zip(sp.pixels.tolist(), sp.bins.tolist()))
            if previous is not None:
                assert kept <= previous
            previous = kept


def former_sparse_prune(f_d: DepthDistribution, tau: float):
    """The former formulation: ``nonzero`` over the (H, W, C_d) transpose
    of the mask, then a three-index gather."""
    hh, ww, dd = np.nonzero((f_d.probs >= tau).transpose(1, 2, 0))
    pixels = (hh * f_d.probs.shape[2] + ww).astype(np.int64)
    return pixels, dd.astype(np.int64), f_d.probs[dd, hh, ww]


@st.composite
def depth_cases(draw):
    """Depth distributions of 1-5 bins over 1x1 to 4x4 pixels, built from a
    few weights so that ties are common, and a tau of 0, above every
    probability, equal to one of them, or anywhere in [0, 1]."""
    c_d, h, w = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5]),
                                 min_size=c_d * h * w, max_size=c_d * h * w)))
    raw = raw.reshape(c_d, h, w)
    raw[0] += raw.sum(axis=0) == 0.0   # every pixel needs some mass
    probs = raw / raw.sum(axis=0, keepdims=True)
    tau = draw(st.one_of(st.just(0.0), st.just(float(np.nextafter(probs.max(), 2.0))),
                         st.sampled_from(probs.ravel().tolist()), st.floats(0.0, 1.0)))
    return DepthDistribution(probs), tau


class TestSparsePruneFormer:
    @given(depth_cases())
    @settings(deadline=None, max_examples=300)
    def test_equals_the_three_index_form_byte_for_byte(self, case):
        f_d, tau = case
        sp = sparse_prune(f_d, tau)
        for got, expected in zip((sp.pixels, sp.bins, sp.weights), former_sparse_prune(f_d, tau)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestSplat:
    def test_single_pixel_one_hot_lands_in_one_cell(self):
        K, g = tiny_setup()
        for k in range(4):
            probs = np.zeros((4, 1, 1))
            probs[k] = 1.0
            f_i = FeatureMap(np.array([2.0, 3.0]).reshape(2, 1, 1, 1))
            result = splat_to_bev(f_i, sparse_prune(DepthDistribution(probs), 0.0), K, g)
            bev = result.bev.data[:, 0]
            # ray through the principal point: x = 0 -> center column
            nz = np.argwhere(bev[0] != 0)
            assert nz.tolist() == [[k, 1]]
            assert bev[:, k, 1].tolist() == [2.0, 3.0]

    def test_two_entries_accumulate_weighted_sum(self):
        # oracle: 2-entry hand computation; both bins land in grid row 0
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1)
        g = build_grid((-1.0, 1.0), (0.0, 8.0), 1, 1, uneven=False)
        probs = np.array([0.25, 0.75]).reshape(2, 1, 1)
        f_i = FeatureMap(np.array([4.0]).reshape(1, 1, 1, 1))
        result = splat_to_bev(f_i, sparse_prune(DepthDistribution(probs), 0.0), K, g)
        assert result.bev.data[0, 0, 0, 0] == 0.25 * 4.0 + 0.75 * 4.0

    def test_mean_reduce_divides_by_count(self):
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=1)
        g = build_grid((-1.0, 1.0), (0.0, 8.0), 1, 1, uneven=False)
        probs = np.array([0.25, 0.75]).reshape(2, 1, 1)
        f_i = FeatureMap(np.array([4.0]).reshape(1, 1, 1, 1))
        result = splat_to_bev(f_i, sparse_prune(DepthDistribution(probs), 0.0), K, g,
                              reduce="mean")
        assert result.bev.data[0, 0, 0, 0] == (1.0 + 3.0) / 2

    def test_matches_brute_force_dense_oracle(self, small_k, cell_oracle):
        rng = np.random.default_rng(7)
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        c_i, c_d, hw = 3, 6, 8
        f_i = FeatureMap(rng.normal(size=(c_i, 1, hw, hw)))
        logits = rng.normal(size=(c_d, hw, hw)) * 2
        f_d = DepthDistribution(np.exp(logits) / np.exp(logits).sum(0, keepdims=True))
        result = splat_to_bev(f_i, sparse_prune(f_d, 0.0), small_k, g)
        expected, _ = brute_force_splat(cell_oracle, f_i, f_d, small_k, g)
        np.testing.assert_allclose(result.bev.data[:, 0], expected, atol=1e-12)

    def test_pruning_error_bound(self, small_k, cell_oracle):
        # |dense - pruned| per cell <= tau * (dropped into cell) * max|F_i|
        rng = np.random.default_rng(8)
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        tau = 1e-3
        c_d, hw = 12, 8
        f_i = FeatureMap(rng.normal(size=(2, 1, hw, hw)))
        logits = rng.normal(size=(c_d, hw, hw)) * 4
        f_d = DepthDistribution(np.exp(logits) / np.exp(logits).sum(0, keepdims=True))
        dense = splat_to_bev(f_i, sparse_prune(f_d, 0.0), small_k, g)
        pruned = splat_to_bev(f_i, sparse_prune(f_d, tau), small_k, g)
        _, dropped = brute_force_splat(cell_oracle, f_i, f_d, small_k, g, tau=tau)
        gap = np.abs(dense.bev.data - pruned.bev.data).max(axis=0)[0]
        bound = tau * dropped * np.abs(f_i.data).max() + 1e-15
        assert np.all(gap <= bound)

    def test_tau_zero_bitwise_equals_dense(self, small_k):
        rng = np.random.default_rng(9)
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        logits = rng.normal(size=(6, 8, 8))
        f_d = DepthDistribution(np.exp(logits) / np.exp(logits).sum(0, keepdims=True))
        f_i = FeatureMap(rng.normal(size=(2, 1, 8, 8)))
        a = splat_to_bev(f_i, sparse_prune(f_d, 0.0), small_k, g)
        b = splat_to_bev(f_i, sparse_prune(f_d, 0.0), small_k, g)
        assert a.bev.data.tobytes() == b.bev.data.tobytes()

    def test_mass_conservation(self, small_k):
        # sum-reduce at tau = 0 with every ray inside the grid conserves
        # per-channel totals
        rng = np.random.default_rng(10)
        g = build_grid((-1000.0, 1000.0), (0.0, 80.0), 41, 16)
        logits = rng.normal(size=(10, 8, 8))
        f_d = DepthDistribution(np.exp(logits) / np.exp(logits).sum(0, keepdims=True))
        f_i = FeatureMap(rng.normal(size=(3, 1, 8, 8)))
        result = splat_to_bev(f_i, sparse_prune(f_d, 0.0), small_k, g)
        assert result.out_of_grid == 0
        np.testing.assert_allclose(
            result.bev.data.sum(axis=(1, 2, 3)),
            f_i.data.sum(axis=(1, 2, 3)),
            atol=1e-9,
        )

    def test_out_of_grid_entries_counted(self):
        K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=3, height=1)
        # pixel u=2 at depth 4 lands at x = 8, far outside (-1, 1)
        g = build_grid((-1.0, 1.0), (0.0, 8.0), 2, 2, uneven=False)
        probs = np.zeros((2, 1, 3))
        probs[1, 0, :] = 1.0
        probs[0, 0, :] = 0.0
        f_i = FeatureMap(np.ones((1, 1, 1, 3)))
        result = splat_to_bev(f_i, sparse_prune(DepthDistribution(probs), 0.5), K, g)
        assert result.out_of_grid > 0
        assert result.in_grid + result.out_of_grid == 3

    def test_empty_input(self, small_k):
        # tau above every probability keeps no entry
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(0, 2, 4, 8, 8)
        sp = sparse_prune(f_d, 2.0)
        assert sp.kept == 0
        for reduce in ("sum", "mean"):
            result = splat_to_bev(f_i, sp, small_k, g, reduce=reduce)
            assert result.bev.shape == (2, 1, g.n_z, g.n_x)
            assert not result.bev.data.any()
            assert (result.in_grid, result.out_of_grid) == (0, 0)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c_i=st.integers(1, 4), c_d=st.integers(1, 8),
        h_f=st.integers(1, 6), w_f=st.integers(1, 6),
        tau=st.sampled_from([0.0, 1e-3, 0.05, 0.2, 0.5]),
        reduce=st.sampled_from(["sum", "mean"]),
        uneven_bins=st.booleans(),
    )
    def test_matches_entry_order_loop(self, seed, c_i, c_d, h_f, w_f, tau, reduce,
                                      uneven_bins):
        """Byte-equal to adding w * F[:, p] entry by entry, in entry order,
        and linear in the image features."""
        K = CameraIntrinsics(fx=float(w_f), fy=float(w_f), cx=w_f / 2.0, cy=h_f / 2.0,
                             width=w_f, height=h_f)
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(seed, c_i, c_d, h_f, w_f)
        sp = sparse_prune(f_d, tau)
        result = splat_to_bev(f_i, sp, K, g, reduce=reduce, uneven_bins=uneven_bins)

        cells = _entry_targets(sp, K, g, uneven_bins)
        feats = f_i.data.reshape(c_i, h_f * w_f)
        expected = np.zeros((c_i, g.n_cells))
        counts = np.zeros(g.n_cells, dtype=np.int64)
        for e in range(sp.kept):
            if cells[e] < 0:
                continue
            counts[cells[e]] += 1
            for c in range(c_i):
                expected[c, cells[e]] += sp.weights[e] * feats[c, sp.pixels[e]]
        if reduce == "mean":
            for cell in np.flatnonzero(counts):
                expected[:, cell] /= counts[cell]
        assert result.bev.data.tobytes() == expected.reshape(c_i, 1, g.n_z, g.n_x).tobytes()
        assert result.in_grid == counts.sum()

        other = FeatureMap(np.cos(f_i.data) - 0.5)
        mixed = FeatureMap(2.0 * f_i.data - 3.0 * other.data)
        lhs = splat_to_bev(mixed, sp, K, g, reduce=reduce, uneven_bins=uneven_bins)
        rhs = (2.0 * result.bev.data
               - 3.0 * splat_to_bev(other, sp, K, g, reduce=reduce,
                                    uneven_bins=uneven_bins).bev.data)
        np.testing.assert_allclose(lhs.bev.data, rhs, rtol=0, atol=1e-12 * max(1, sp.kept))

    def test_unordered_pixels_are_refused(self, small_k):
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(3, 2, 4, 8, 8)
        sp = sparse_prune(f_d, 0.0)
        reversed_sp = SparseProjection(sp.pixels[::-1], sp.bins[::-1], sp.weights[::-1],
                                       sp.source_shape, sp.tau)
        with pytest.raises(ValueError, match="projection entries must be ordered by pixel"):
            splat_to_bev(f_i, reversed_sp, small_k, g)

    @pytest.mark.parametrize("field, edit", [
        # a bin of -1 would index the last depth bin's cells
        ("bins", lambda sp: (sp.pixels, np.where(sp.pixels == 5, -1, sp.bins), sp.weights)),
        ("bins", lambda sp: (sp.pixels, sp.bins + 1, sp.weights)),
        ("pixels", lambda sp: (sp.pixels + 1, sp.bins, sp.weights)),
        ("pixels", lambda sp: (sp.pixels - 1, sp.bins, sp.weights)),
    ], ids=["bin-minus-one", "bin-past-last", "pixel-past-last", "pixel-minus-one"])
    def test_out_of_range_entries_are_refused(self, small_k, field, edit):
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(3, 2, 4, 4, 4)
        sp = sparse_prune(f_d, 0.0)
        bad = SparseProjection(*edit(sp), sp.source_shape, sp.tau)
        bound = {"bins": 4, "pixels": 16}[field]
        with pytest.raises(ValueError) as exc:
            splat_to_bev(f_i, bad, small_k, g)
        assert str(exc.value) == f"projection {field} must lie in [0, {bound})"

    @pytest.mark.parametrize("field", ["pixels", "bins", "weights"])
    def test_unequal_lengths_are_refused(self, small_k, field):
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(3, 2, 4, 4, 4)
        sp = sparse_prune(f_d, 0.0)
        fields = {"pixels": sp.pixels, "bins": sp.bins, "weights": sp.weights}
        fields[field] = fields[field][:-1]
        bad = SparseProjection(**fields, source_shape=sp.source_shape, tau=sp.tau)
        with pytest.raises(ValueError) as exc:
            splat_to_bev(f_i, bad, small_k, g)
        assert str(exc.value) == "projection pixels, bins and weights must have equal lengths"

    def test_bins_may_run_in_any_order_within_a_pixel(self, small_k):
        # only the pixel order is required; a cell still adds in entry order
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        f_i, f_d = synth_projection_inputs(4, 3, 6, 8, 8)
        sp = sparse_prune(f_d, 0.0)
        order = np.lexsort((-sp.bins, sp.pixels))
        flipped = SparseProjection(sp.pixels[order], sp.bins[order], sp.weights[order],
                                   sp.source_shape, sp.tau)
        for reduce in ("sum", "mean"):
            result = splat_to_bev(f_i, flipped, small_k, g, reduce=reduce)
            expected, _ = bincount_splat(f_i, flipped, small_k, g, reduce)
            assert result.bev.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tau", [1e-3, 0.0])
    @pytest.mark.parametrize("k_feat", [
        # the outdoor and indoor feature cameras of the benchmark frames
        CameraIntrinsics(fx=88.0, fy=88.0, cx=44.0, cy=16.0, width=88, height=32),
        CameraIntrinsics(fx=31.25, fy=31.25, cx=20.0, cy=15.0, width=40, height=30),
    ], ids=["outdoor", "indoor"])
    def test_reference_scale_matches_bincount_splat(self, k_feat, tau):
        """Byte-equal to the per-channel bincount splat at 64 channels and
        118 bins on the reference grid, where many entries of one pixel
        share a cell and cells collect thousands of entries."""
        g = Config().grid()
        f_i, f_d = synth_projection_inputs(11, 64, 118, k_feat.height, k_feat.width)
        sp = sparse_prune(f_d, tau)
        for reduce in ("sum", "mean"):
            result = splat_to_bev(f_i, sp, k_feat, g, reduce=reduce)
            expected, in_grid = bincount_splat(f_i, sp, k_feat, g, reduce)
            assert result.bev.data.tobytes() == expected.tobytes()
            assert (result.in_grid, result.out_of_grid) == (in_grid, sp.kept - in_grid)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c_i=st.integers(1, 3), c_d=st.integers(1, 12),
        h_f=st.integers(1, 6), w_f=st.integers(1, 8),
        tau=st.floats(0.0, 1.0),
        uneven_bins=st.booleans(), uneven_grid=st.booleans(),
        n_x=st.integers(1, 8), n_z=st.integers(1, 8),
        x_half=st.floats(0.5, 20.0), z_lo=st.floats(0.0, 5.0), z_span=st.floats(0.5, 40.0),
    )
    def test_pruning_error_bound_per_cell(self, seed, c_i, c_d, h_f, w_f, tau, uneven_bins,
                                          uneven_grid, n_x, n_z, x_half, z_lo, z_span):
        """|dense - pruned| <= tau * (entries dropped into the cell) * max|F|
        in every cell and channel; a cell that drops nothing is unchanged."""
        K = CameraIntrinsics(fx=float(w_f), fy=float(w_f), cx=w_f / 2.0, cy=h_f / 2.0,
                             width=w_f, height=h_f)
        g = build_grid((-x_half, x_half), (z_lo, z_lo + z_span), n_x, n_z, uneven=uneven_grid)
        f_i, f_d = synth_projection_inputs(seed, c_i, c_d, h_f, w_f)
        dense_sp = sparse_prune(f_d, 0.0)
        dense = splat_to_bev(f_i, dense_sp, K, g, uneven_bins=uneven_bins)
        pruned = splat_to_bev(f_i, sparse_prune(f_d, tau), K, g, uneven_bins=uneven_bins)

        cells = _entry_targets(dense_sp, K, g, uneven_bins)
        on_grid = cells >= 0
        dropped = np.bincount(cells[on_grid & (dense_sp.weights < tau)], minlength=g.n_cells)
        entries = np.bincount(cells[on_grid], minlength=g.n_cells)
        weight_sum = np.bincount(cells[on_grid], weights=dense_sp.weights[on_grid],
                                 minlength=g.n_cells)
        f_max = np.abs(f_i.data).max()
        gap = np.abs(dense.bev.data - pruned.bev.data).reshape(c_i, g.n_cells)
        # each of the two sums rounds by at most (entries - 1) * eps / 2 * sum|w * F|
        rounding = entries * np.finfo(np.float64).eps * weight_sum * f_max
        assert np.all(gap <= tau * dropped * f_max + rounding)
        assert not gap[:, dropped == 0].any()


class TestBevDepthConfidence:
    def test_max_aggregation_against_loop_oracle(self, small_k, cell_oracle):
        rng = np.random.default_rng(12)
        g = build_grid((-6.0, 6.0), (0.5, 12.0), 5, 6)
        c_d, hw = 6, 8
        logits = rng.normal(size=(c_d, hw, hw))
        f_d = DepthDistribution(np.exp(logits) / np.exp(logits).sum(0, keepdims=True))
        conf = bev_depth_confidence(f_d, small_k, g)
        centers = depth_bin_centers(g.z_range[0], g.z_range[1], c_d, False)
        expected = np.zeros((g.n_z, g.n_x))
        for h in range(hw):
            for w in range(hw):
                for d in range(c_d):
                    point = unproject_pixel(float(w), float(h), float(centers[d]), small_k)
                    i_z = cell_oracle.depth_bin(point[2], g)
                    i_x = cell_oracle.lateral_bin(point[0], g)
                    if i_z >= 0 and i_x >= 0:
                        expected[i_z, i_x] = max(expected[i_z, i_x], f_d.probs[d, h, w])
        np.testing.assert_array_equal(conf, expected)


class TestBench:
    def test_removal_monotone_in_tau(self, default_k):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        rows = bench_projection(default_k, g, [0.0, 1e-3, 1e-2, 1e-1], seed=3,
                                c_i=4, c_d=16, h_f=8, w_f=8, uneven_bins=False)
        kept = [r["kept_ratio"] for r in rows]
        assert kept[0] == 1.0
        assert all(a >= b for a, b in zip(kept, kept[1:]))

    @pytest.mark.parametrize("tau", [-1e-9, float("nan")])
    def test_negative_or_nan_tau_raises(self, default_k, tau):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        with pytest.raises(ValueError, match="tau must be non-negative, not NaN"):
            bench_projection(default_k, g, [1e-3, tau], seed=3, c_i=2, c_d=8, h_f=4, w_f=4,
                             uneven_bins=False)

    def test_huge_tau_removes_everything(self, default_k):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        rows = bench_projection(default_k, g, [2.0], seed=3, c_i=2, c_d=8, h_f=4, w_f=4,
                                uneven_bins=False)
        assert rows[0]["kept_ratio"] == 0.0

    def test_checksum_is_tau_independent(self, default_k):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        rows = bench_projection(default_k, g, [0.0, 1e-2], seed=5, c_i=2, c_d=8,
                                h_f=4, w_f=4, uneven_bins=False)
        assert rows[0]["checksum"] == rows[1]["checksum"]
        again = bench_projection(default_k, g, [0.0], seed=5, c_i=2, c_d=8,
                                 h_f=4, w_f=4, uneven_bins=False)
        assert again[0]["checksum"] == rows[0]["checksum"]
        other_seed = bench_projection(default_k, g, [0.0], seed=6, c_i=2, c_d=8,
                                      h_f=4, w_f=4, uneven_bins=False)
        assert other_seed[0]["checksum"] != rows[0]["checksum"]

    def test_untimed_rows_are_deterministic(self, default_k):
        g = build_grid((-30, 30), (0.0, 80.0), 60, 80)
        a = bench_projection(default_k, g, [0.0, 1e-3], seed=1, c_i=2, c_d=8, h_f=4, w_f=4,
                             uneven_bins=False)
        b = bench_projection(default_k, g, [0.0, 1e-3], seed=1, c_i=2, c_d=8, h_f=4, w_f=4,
                             uneven_bins=False)
        assert a == b
        assert all(r.keys() == {"tau", "kept_ratio", "checksum"} for r in a)

    def test_synth_inputs_are_valid(self):
        f_i, f_d = synth_projection_inputs(0, 2, 8, 4, 4)
        assert f_i.shape == (2, 1, 4, 4)
        np.testing.assert_allclose(f_d.probs.sum(axis=0), 1.0, atol=1e-12)
