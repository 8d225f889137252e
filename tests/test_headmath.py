import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bevkit.geom import CameraIntrinsics, unproject_pixel
from bevkit.headmath import (
    DalnParams,
    DomainConfidence,
    LabelSpace,
    Proposal,
    ProposalAttributes,
    class_alignment_loss,
    daln,
    decode_proposals,
    gaussian_heatmap_target,
    heatmap_peaks,
    layer_norm,
    mic_i2p_loss,
    mic_p2i_loss,
)


def reference_layer_norm(x):
    """Independent oracle: direct arithmetic on Python floats."""
    x = [float(v) for v in x]
    mu = sum(x) / len(x)
    var = sum((v - mu) ** 2 for v in x) / len(x)
    sigma = var**0.5
    return [(v - mu) / sigma for v in x], mu, sigma


def fd_grad(fn, x, step=1e-5):
    """Independent central-difference oracle."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        g[idx] = (fn(xp) - fn(xm)) / (2 * step)
        it.iternext()
    return g


class TestLayerNorm:
    def test_hand_case(self):
        normalized, mu, sigma = layer_norm([1.0, 2.0, 3.0])
        assert mu == 2.0
        assert sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        np.testing.assert_allclose(
            normalized, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=rng.integers(2, 20)) * rng.uniform(0.1, 100)
            got, mu, sigma = layer_norm(x)
            ref, ref_mu, ref_sigma = reference_layer_norm(x)
            np.testing.assert_allclose(got, ref, atol=1e-9)
            assert mu == pytest.approx(ref_mu, abs=1e-9)
            assert sigma == pytest.approx(ref_sigma, rel=1e-9)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=16) * 50 + 7
            normalized, _, _ = layer_norm(x)
            assert abs(normalized.mean()) < 1e-9
            assert abs(np.sqrt(np.mean(normalized**2)) - 1.0) < 1e-9

    def test_constant_input_stabilized_to_zero(self):
        normalized, _, sigma = layer_norm(np.full(8, 3.25))
        np.testing.assert_array_equal(normalized, 0.0)
        assert sigma > 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=12)
        base, _, _ = layer_norm(x)
        for c in (1.0, -17.5, 1e3):
            shifted, _, _ = layer_norm(x + c)
            np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            layer_norm([1.0])


class TestDaln:
    def test_init_is_plain_layer_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            x = rng.normal(size=int(rng.integers(2, 24))) * 10
            conf = rng.uniform(size=d) + 1e-9
            conf /= conf.sum()
            out = daln(x, DalnParams.init(d), conf)
            expected, _, _ = layer_norm(x)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_weighted_sum_hand_case(self):
        # oracle: alpha = 0.25*1 + 0.75*2 = 1.75, beta = 0.75*(-1) = -0.75
        params = DalnParams([1.0, 2.0], [0.0, -1.0])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = daln(x, params, [0.25, 0.75])
        ref = np.array(reference_layer_norm(x)[0])
        np.testing.assert_allclose(out, 1.75 * ref - 0.75, atol=1e-12)

    def test_one_hot_confidence_selects_domain(self):
        params = DalnParams([1.0, 3.0], [0.5, -2.0])
        x = np.array([0.0, 1.0, 5.0])
        out = daln(x, params, [0.0, 1.0])
        ref = np.array(reference_layer_norm(x)[0])
        np.testing.assert_allclose(out, 3.0 * ref - 2.0, atol=1e-12)

    def test_affine_in_parameters(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10)
        conf = np.array([0.3, 0.7])
        alphas, betas = np.array([1.5, 0.5]), np.array([0.1, -0.4])
        out = daln(x, DalnParams(alphas, betas), conf)
        doubled = daln(x, DalnParams(2 * alphas, betas), conf)
        beta = conf @ betas
        np.testing.assert_allclose(doubled - beta, 2.0 * (out - beta), atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            daln(np.ones(4), DalnParams.init(3), [0.5, 0.5])

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            DomainConfidence([0.5, 0.4])
        with pytest.raises(ValueError):
            DomainConfidence([1.5, -0.5])


class TestClassAlignment:
    def space(self, gamma=0.2):
        return LabelSpace({0: frozenset({1, 2, 3}), 1: frozenset({2, 4})},
                          background=99, gamma=gamma)

    def test_background_out_of_space_scaled(self):
        out = class_alignment_loss(1.0, 5, 99, self.space(), 0)
        assert float(out) == pytest.approx(0.2)

    def test_in_space_label_untouched(self):
        out = class_alignment_loss(1.0, 5, 2, self.space(), 0)
        assert float(out) == 1.0

    def test_background_but_in_space_prediction_untouched(self):
        out = class_alignment_loss(1.0, 2, 99, self.space(), 0)
        assert float(out) == 1.0

    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(5)
        losses = rng.uniform(size=64)
        preds = rng.integers(0, 6, 64)
        labels = np.where(rng.uniform(size=64) < 0.5, 99, 2)
        out = class_alignment_loss(losses, preds, labels, self.space(gamma=1.0), 0)
        np.testing.assert_array_equal(out, losses)

    def test_batch_equals_elementwise_loop_oracle(self):
        rng = np.random.default_rng(6)
        space = self.space()
        losses = rng.uniform(size=200)
        preds = rng.integers(0, 8, 200)
        labels = np.where(rng.uniform(size=200) < 0.4, 99,
                          rng.integers(0, 8, 200))
        got = class_alignment_loss(losses, preds, labels, space, 1)
        # oracle: per-element python loop over the rule
        for i in range(200):
            scale = 0.2 if (labels[i] == 99 and preds[i] not in {2, 4}) else 1.0
            assert got[i] == pytest.approx(losses[i] * scale, abs=1e-15)

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            class_alignment_loss(1.0, 1, 99, self.space(), 7)

    def test_background_inside_space_rejected(self):
        with pytest.raises(ValueError):
            LabelSpace({0: frozenset({1, 99})}, background=99)


class TestMicP2I:
    def test_exact_match_gives_zero(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [True, True]])
        loss, grad = mic_p2i_loss(b, b.copy(), mask)
        assert loss == 0.0
        assert not grad.any()

    def test_single_cell_hand_case(self):
        # oracle: one masked cell, |4 - 1| = 3, d|x-4|/dx at x=1 is -1
        loss, grad = mic_p2i_loss(np.array([4.0, 0.0]), np.array([1.0, 9.0]),
                                  np.array([True, False]))
        assert loss == 3.0
        np.testing.assert_array_equal(grad, [-1.0, 0.0])

    def test_empty_mask(self):
        loss, grad = mic_p2i_loss(np.ones((2, 3)), np.zeros((2, 3)),
                                  np.zeros((2, 3), dtype=bool))
        assert loss == 0.0 and not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            target = rng.normal(size=(2, 5, 4))
            mask = rng.uniform(size=(5, 4)) < 0.5
            # keep |diff| away from the L1 kink
            pred = target + rng.choice([-1.0, 1.0], size=(2, 5, 4)) * rng.uniform(
                0.2, 1.0, size=(2, 5, 4))
            loss, grad = mic_p2i_loss(target, pred, mask)
            numeric = fd_grad(lambda p: mic_p2i_loss(target, p, mask)[0], pred)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_support_within_mask(self):
        rng = np.random.default_rng(8)
        target, pred = rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4))
        mask = rng.uniform(size=(4, 4)) < 0.3
        _, grad = mic_p2i_loss(target, pred, mask)
        assert not grad[:, ~mask].any()

    def test_stopped_operand_gets_zero_gradient(self):
        rng = np.random.default_rng(9)
        target, pred = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        mask = np.ones((3, 3), dtype=bool)
        loss, grad, stopped = mic_p2i_loss(target, pred, mask, with_stopped_grad=True)
        assert stopped.shape == target.shape
        assert not stopped.any()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mic_p2i_loss(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            mic_p2i_loss(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3), bool))


class TestMicI2P:
    def test_full_point_mask_zeroes_loss(self):
        rng = np.random.default_rng(10)
        b_i, b_p = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        m_i = np.ones((4, 4), dtype=bool)
        m_p = np.ones((4, 4), dtype=bool)
        loss, grad = mic_i2p_loss(b_i, b_p, m_i, m_p)
        assert loss == 0.0 and not grad.any()

    def test_single_effective_cell(self):
        m_i = np.array([[True, True]])
        m_p = np.array([[False, True]])
        loss, grad = mic_i2p_loss(np.array([[5.0, 7.0]]), np.array([[2.0, 0.0]]),
                                  m_i, m_p)
        assert loss == 3.0
        np.testing.assert_array_equal(grad, [[-1.0, 0.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            b_i = rng.normal(size=(2, 4, 5))
            m_i = rng.uniform(size=(4, 5)) < 0.7
            m_p = rng.uniform(size=(4, 5)) < 0.4
            b_p = b_i + rng.choice([-1.0, 1.0], size=(2, 4, 5)) * rng.uniform(
                0.2, 1.0, size=(2, 4, 5))
            loss, grad = mic_i2p_loss(b_i, b_p, m_i, m_p)
            numeric = fd_grad(lambda p: mic_i2p_loss(b_i, p, m_i, m_p)[0], b_p)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_support_is_effective_mask(self):
        rng = np.random.default_rng(12)
        b_i, b_p = rng.normal(size=(1, 6, 6)), rng.normal(size=(1, 6, 6))
        m_i = rng.uniform(size=(6, 6)) < 0.6
        m_p = rng.uniform(size=(6, 6)) < 0.5
        _, grad = mic_i2p_loss(b_i, b_p, m_i, m_p)
        effective = m_i & ~m_p
        assert not grad[:, ~effective].any()


def masked_l1_oracle(target, pred, mask):
    """Mean |pred - target| over the masked elements, the mask repeated over
    the leading (channel) axes, summed exactly with ``math.fsum``, and its
    subgradient sign(pred - target) / count; (0, zeros) for an empty mask."""
    terms, signs = [], {}
    for idx in np.ndindex(pred.shape):
        if mask[idx[pred.ndim - mask.ndim:]]:
            d = float(pred[idx]) - float(target[idx])
            terms.append(abs(d))
            signs[idx] = (d > 0) - (d < 0)
    grad = np.zeros(pred.shape)
    if not terms:
        return 0.0, grad
    for idx, sign in signs.items():
        grad[idx] = sign / len(terms)
    return math.fsum(terms) / len(terms), grad


@st.composite
def mic_inputs(draw, n_masks):
    """Features with 0-2 leading channel axes over 1-2 cell axes, a
    prediction some of whose entries equal the target (the L1 kink), and
    ``n_masks`` cell masks."""
    cells = draw(array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + cells
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    target = draw(arrays(np.float64, shape, elements=values))
    delta = draw(arrays(np.float64, shape, elements=st.one_of(st.just(0.0), values)))
    masks = [draw(arrays(bool, cells)) for _ in range(n_masks)]
    return target, target + delta, masks


def assert_matches_oracle(loss, grad, target, pred, mask):
    want_loss, want_grad = masked_l1_oracle(target, pred, mask)
    assert loss == pytest.approx(want_loss, rel=1e-13, abs=0.0)
    np.testing.assert_array_equal(grad, want_grad)
    assert grad.shape == pred.shape
    assert not grad[..., ~mask].any()


def mic_loss(kind, stopped, operand, mask):
    """One MIC loss over ``mask``: p2i directly, i2p with no point cell."""
    if kind == "p2i":
        return mic_p2i_loss(stopped, operand, mask)
    return mic_i2p_loss(stopped, operand, mask, np.zeros_like(mask))


class TestMicNonFinite:
    """A NaN or inf on a masked cell of either operand, or a masked
    difference that overflows, is refused; values off the mask are never
    read."""

    MASK = np.array([True, False, True])

    @pytest.mark.parametrize("kind", ["p2i", "i2p"])
    @pytest.mark.parametrize("which", [0, 1], ids=["stopped", "operand"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_masked_cell_is_refused(self, kind, which, bad):
        feats = [np.array([[1.0, 2.0, 3.0]]), np.array([[0.5, 2.5, 3.0]])]
        feats[which][0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="MIC loss is not finite"):
                mic_loss(kind, *feats, self.MASK)

    @pytest.mark.parametrize("kind", ["p2i", "i2p"])
    def test_overflowing_difference_is_refused(self, kind):
        stopped, operand = np.array([[-1e308, 0.0, 0.0]]), np.array([[1e308, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="MIC loss is not finite"):
                mic_loss(kind, stopped, operand, self.MASK)

    @pytest.mark.parametrize("kind", ["p2i", "i2p"])
    @pytest.mark.parametrize("which", [0, 1], ids=["stopped", "operand"])
    def test_nan_off_the_mask_is_not_read(self, kind, which):
        feats = [np.array([[4.0, 2.0, 3.0]]), np.array([[1.0, 2.5, 3.5]])]
        loss, grad = mic_loss(kind, *feats, self.MASK)
        assert loss == 1.75
        assert grad.tolist() == [[-0.5, 0.0, 0.5]]
        feats[which][0, 1] = np.nan
        nan_loss, nan_grad = mic_loss(kind, *feats, self.MASK)
        assert np.float64(nan_loss).tobytes() == np.float64(loss).tobytes()
        assert nan_grad.tobytes() == grad.tobytes()


class TestMicProperties:
    @given(mic_inputs(1))
    @settings(deadline=None, max_examples=200)
    def test_p2i_is_masked_mean(self, case):
        target, pred, (mask,) = case
        assert_matches_oracle(*mic_p2i_loss(target, pred, mask), target, pred, mask)

    @given(mic_inputs(2))
    @settings(deadline=None, max_examples=200)
    def test_i2p_mask_is_image_and_not_point(self, case):
        target, pred, (m_i, m_p) = case
        loss, grad = mic_i2p_loss(target, pred, m_i, m_p)
        assert_matches_oracle(loss, grad, target, pred, m_i & ~m_p)
        p2i_loss, p2i_grad = mic_p2i_loss(target, pred, m_i & ~m_p)
        assert loss == p2i_loss and grad.tobytes() == p2i_grad.tobytes()

    @given(mic_inputs(1))
    @settings(deadline=None, max_examples=100)
    def test_empty_mask_gives_zero(self, case):
        target, pred, (mask,) = case
        empty = np.zeros_like(mask)
        for loss, grad in (mic_p2i_loss(target, pred, empty),
                           mic_i2p_loss(target, pred, empty, mask),
                           mic_i2p_loss(target, pred, mask, mask)):
            assert loss == 0.0
            assert grad.shape == pred.shape and not grad.any()

    @given(mic_inputs(2))
    @settings(deadline=None, max_examples=100)
    def test_channels_broadcast_over_mask(self, case):
        # a cell mask scores every channel as the full-shape mask does
        target, pred, (m_i, m_p) = case
        full_i, full_p = (np.broadcast_to(m, pred.shape) for m in (m_i, m_p))
        for cell, full in ((mic_p2i_loss(target, pred, m_p), mic_p2i_loss(target, pred, full_p)),
                           (mic_i2p_loss(target, pred, m_i, m_p),
                            mic_i2p_loss(target, pred, full_i, full_p))):
            assert cell[0] == full[0] and cell[1].tobytes() == full[1].tobytes()


def former_masked_l1(target, pred, mask):
    """The dense form ``_masked_l1`` used before: the difference of every
    element times the mask, its |d| summed by numpy and its sign scaled."""
    mask = mask.astype(bool)
    n_lead = int(np.prod(target.shape[:-mask.ndim], dtype=np.int64)) if target.ndim > mask.ndim else 1
    count = int(mask.sum()) * n_lead
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = (pred - target) * mask
    return float(np.sum(np.abs(diff)) / count), np.sign(diff) / count


@st.composite
def signed_zero_inputs(draw, n_masks):
    """``mic_inputs`` whose entries are often +-0.0 or equal, so that
    differences are ties at zero, -0.0 - 0.0 = -0.0 among them."""
    cells = draw(array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + cells
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    target = draw(arrays(np.float64, shape, elements=values))
    pred = draw(arrays(np.float64, shape, elements=values))
    masks = [draw(arrays(bool, cells)) for _ in range(n_masks)]
    return target, pred, masks


def assert_same_bits(got, want):
    assert repr(got[0]) == repr(want[0])
    assert got[1].tobytes() == want[1].tobytes()


class TestFormerMaskedL1:
    """The masked-cell ``_masked_l1`` against the dense form, byte for
    byte: numpy sums the same zero-padded array, so no bit moves."""

    @given(signed_zero_inputs(2))
    @settings(deadline=None, max_examples=300)
    def test_both_losses_match_the_dense_form(self, case):
        target, pred, (m_i, m_p) = case
        assert_same_bits(mic_p2i_loss(target, pred, m_p), former_masked_l1(target, pred, m_p))
        assert_same_bits(mic_i2p_loss(target, pred, m_i, m_p),
                         former_masked_l1(target, pred, m_i & ~m_p))

    @given(signed_zero_inputs(1))
    @settings(deadline=None, max_examples=50)
    def test_empty_mask(self, case):
        target, pred, (mask,) = case
        empty = np.zeros_like(mask)
        assert_same_bits(mic_p2i_loss(target, pred, empty), former_masked_l1(target, pred, empty))

    def test_signed_zero_difference(self):
        target, pred = np.zeros((2, 3)), np.array([[-0.0, 0.0, -0.0], [1.0, -0.0, 0.0]])
        mask = np.array([True, False, True])
        got = mic_p2i_loss(target, pred, mask)
        assert_same_bits(got, former_masked_l1(target, pred, mask))
        assert not np.signbit(got[1]).any()   # sign(-0.0) is +0.0

    @pytest.mark.parametrize("density", [0.0, 0.004, 0.014, 0.4, 1.0])
    def test_frame_sized_features(self, density):
        # 64 channels over a 60 x 80 grid: numpy's pairwise sum recurses
        rng = np.random.default_rng(int(density * 1000))
        target, pred = rng.standard_normal((2, 64, 1, 60, 80))
        m_i, m_p = rng.uniform(size=(2, 60, 80)) < density
        assert_same_bits(mic_p2i_loss(target, pred, m_p), former_masked_l1(target, pred, m_p))
        assert_same_bits(mic_i2p_loss(target, pred, m_i, m_p),
                         former_masked_l1(target, pred, m_i & ~m_p))


class TestHeatmapPeaks:
    def test_single_peak(self):
        hm = np.zeros((5, 5))
        hm[2, 3] = 1.0
        peaks = heatmap_peaks(hm)
        # the flat zero background forms plateaus; the true peak must be
        # among them with the maximum value
        assert 2 * 5 + 3 in peaks

    def test_plateau_tie_goes_to_lowest_linear_index(self):
        hm = np.zeros((3, 4))
        hm[1, 1] = hm[1, 2] = 0.9
        peaks = set(heatmap_peaks(hm).tolist())
        assert 1 * 4 + 1 in peaks
        assert 1 * 4 + 2 not in peaks


class TestDecodeProposals:
    def test_single_gaussian_bump_at_principal_point(self, default_k):
        hm = gaussian_heatmap_target([(320.0, 240.0)], 4.0, 480, 640)
        attrs = ProposalAttributes(hm, np.zeros((480, 640, 2)), np.full((480, 640), 5.0))
        proposals = decode_proposals(attrs, default_k, m=1)
        assert len(proposals) == 1
        np.testing.assert_allclose(proposals[0].center, [0.0, 0.0, 5.0], atol=1e-12)
        assert proposals[0].confidence == 1.0

    def test_top_m_selection(self, default_k):
        hm = np.zeros((48, 64))
        hm[10, 10] = 0.9
        hm[30, 40] = 0.4
        attrs = ProposalAttributes(hm, np.zeros((48, 64, 2)), np.full((48, 64), 2.0))
        proposals = decode_proposals(attrs, default_k, m=1)
        assert len(proposals) == 1
        assert proposals[0].confidence == 0.9

    def test_offset_unprojection_hand_case(self, default_k):
        # oracle: ((420 + 2 - 320) * 10) / 500 = 2.04
        hm = np.zeros((480, 640))
        hm[240, 420] = 0.8
        offset = np.zeros((480, 640, 2))
        offset[240, 420] = [2.0, 0.0]
        depth = np.full((480, 640), 10.0)
        proposals = decode_proposals(ProposalAttributes(hm, offset, depth), default_k, m=1)
        expected = unproject_pixel(422.0, 240.0, 10.0, default_k)
        np.testing.assert_allclose(proposals[0].center, expected)
        np.testing.assert_allclose(proposals[0].center, [2.04, 0.0, 10.0])

    def test_ordering_confidence_then_linear_index(self, default_k):
        hm = np.zeros((8, 8))
        hm[1, 1] = 0.5
        hm[5, 5] = 0.5
        hm[3, 3] = 0.7
        attrs = ProposalAttributes(hm, np.zeros((8, 8, 2)), np.full((8, 8), 2.0))
        proposals = decode_proposals(attrs, default_k, m=3)
        confs = [p.confidence for p in proposals]
        assert confs == [0.7, 0.5, 0.5]
        # among ties, the lower linear index (1,1) decodes first
        assert proposals[1].center[0] < proposals[2].center[0]

    def test_nonpositive_depth_skipped(self, default_k):
        hm = np.zeros((8, 8))
        hm[2, 2] = 0.9
        attrs = ProposalAttributes(hm, np.zeros((8, 8, 2)), np.zeros((8, 8)))
        # depth 0 at the peak: nothing decodable
        assert all(p.confidence != 0.9 for p in decode_proposals(attrs, default_k, m=1))

    @pytest.mark.parametrize("field", ["offset", "depth"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_attributes_refused(self, field, bad):
        # a proposal centred at nan or inf is never decoded
        attrs = {"heatmap": np.zeros((4, 4)), "offset": np.zeros((4, 4, 2)),
                 "depth": np.ones((4, 4))}
        attrs[field][1, 2] = bad
        with pytest.raises(ValueError, match=f"{field} values must be finite"):
            ProposalAttributes(**attrs)

    def test_m_validated(self, default_k):
        attrs = ProposalAttributes(np.zeros((4, 4)), np.zeros((4, 4, 2)), np.ones((4, 4)))
        with pytest.raises(ValueError):
            decode_proposals(attrs, default_k, m=0)


def former_decode_proposals(attrs, K, m=100):
    """The former per-peak loop: each of the top m peaks split by divmod
    and unprojected by ``unproject_pixel`` on its own."""
    h, w = attrs.heatmap.shape
    peaks = heatmap_peaks(attrs.heatmap)
    conf = attrs.heatmap.ravel()[peaks]
    out = []
    for idx in np.lexsort((peaks, -conf))[:m]:
        v, u = divmod(int(peaks[idx]), w)
        depth = float(attrs.depth[v, u])
        if depth <= 0:
            continue
        du, dv = attrs.offset[v, u]
        out.append(Proposal(unproject_pixel(u + du, v + dv, depth, K), float(conf[idx])))
    return out


@st.composite
def decode_cases(draw):
    """Small heads whose heatmaps draw from a few levels, so that plateau
    ties are common, with some peak depths <= 0, a camera anywhere on the
    image, and m from below to above the peak count."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    level = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    heat = draw(arrays(np.float64, (h, w), elements=level))
    offset = draw(arrays(np.float64, (h, w, 2), elements=st.floats(-2.0, 2.0)))
    depth = draw(arrays(np.float64, (h, w), elements=st.one_of(
        st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 1e-3]), st.floats(0.1, 90.0))))
    K = CameraIntrinsics(fx=draw(st.floats(0.5, 1e3)), fy=draw(st.floats(0.5, 1e3)),
                         cx=draw(st.floats(0.0, w, exclude_max=True)),
                         cy=draw(st.floats(0.0, h, exclude_max=True)), width=w, height=h)
    n_peaks = heatmap_peaks(heat).size
    m = max(1, n_peaks + draw(st.integers(-3, 3)))
    return ProposalAttributes(heat, offset, depth), K, m


def assert_same_proposals(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.center.shape == (3,) and a.center.dtype == np.float64
        assert a.center.tobytes() == b.center.tobytes()
        assert repr(a.confidence) == repr(b.confidence)


class TestFormerDecodeProposals:
    """The batched decode against the per-peak loop, byte for byte."""

    @given(decode_cases())
    @settings(deadline=None, max_examples=300)
    def test_matches_the_loop(self, case):
        attrs, K, m = case
        assert_same_proposals(decode_proposals(attrs, K, m), former_decode_proposals(attrs, K, m))

    def test_plateau_and_nonpositive_depth(self, default_k):
        hm = np.zeros((8, 8))
        hm[1, 1] = hm[1, 2] = hm[5, 5] = 0.5     # (1, 1) wins the plateau
        hm[3, 3] = 0.7
        depth = np.full((8, 8), 2.0)
        depth[3, 3] = 0.0                         # the best peak is skipped
        attrs = ProposalAttributes(hm, np.full((8, 8, 2), 0.25), depth)
        for m in (1, 2, 3, 100):
            got = decode_proposals(attrs, default_k, m)
            assert_same_proposals(got, former_decode_proposals(attrs, default_k, m))
        assert [p.confidence for p in decode_proposals(attrs, default_k, 3)] == [0.5, 0.5]

    @pytest.mark.parametrize("h, w", [(32, 88), (30, 40)])
    def test_head_sized_maps(self, default_k, h, w):
        # the two operating points' heads, with more peaks than are decoded
        rng = np.random.default_rng(h * w)
        attrs = ProposalAttributes(0.1 * rng.uniform(size=(h, w)),
                                   rng.uniform(-0.5, 0.5, (h, w, 2)),
                                   rng.uniform(-1.0, 80.0, (h, w)))
        K = CameraIntrinsics(fx=88.0, fy=88.0, cx=w / 2, cy=h / 2, width=w, height=h)
        assert heatmap_peaks(attrs.heatmap).size > 100
        for m in (1, 100, h * w):
            assert_same_proposals(decode_proposals(attrs, K, m),
                                  former_decode_proposals(attrs, K, m))


class TestGaussianHeatmap:
    def test_center_value_is_one(self):
        hm = gaussian_heatmap_target([(3.0, 2.0)], 1.5, 6, 8)
        assert hm[2, 3] == 1.0
        assert hm.max() == 1.0

    def test_two_far_centers_two_unit_peaks(self):
        hm = gaussian_heatmap_target([(2.0, 2.0), (20.0, 10.0)], 1.0, 16, 24)
        assert hm[2, 2] == 1.0 and hm[10, 20] == 1.0

    def test_round_trip_with_decoder(self, default_k):
        centers = [(100.0, 60.0), (300.0, 200.0), (500.0, 400.0)]
        hm = gaussian_heatmap_target(centers, 3.0, 480, 640)
        attrs = ProposalAttributes(hm, np.zeros((480, 640, 2)), np.full((480, 640), 4.0))
        proposals = decode_proposals(attrs, default_k, m=3)
        got = sorted((p.center[0], p.center[1]) for p in proposals)
        expected = sorted(
            tuple(unproject_pixel(u, v, 4.0, default_k)[:2]) for u, v in centers)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            gaussian_heatmap_target([(1.0, 1.0)], 0.0, 4, 4)
