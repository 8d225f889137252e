import numpy as np
import pytest

from bevkit.eval3d import MatchConfig, match_and_ap
from bevkit.synth import REGIME_DEPTH, SceneSpec, generate, perturb


class TestDeterminism:
    def test_identical_seeds_identical_scenes(self):
        a = generate(SceneSpec(seed=12, regime="indoor"))
        b = generate(SceneSpec(seed=12, regime="indoor"))
        assert a.cloud.points.tobytes() == b.cloud.points.tobytes()
        assert a.depth_dist.probs.tobytes() == b.depth_dist.probs.tobytes()
        for ba, bb in zip(a.boxes, b.boxes):
            assert ba.center.tobytes() == bb.center.tobytes()
            assert ba.rotation.tobytes() == bb.rotation.tobytes()

    def test_different_seeds_differ(self):
        a = generate(SceneSpec(seed=1, regime="indoor"))
        b = generate(SceneSpec(seed=2, regime="indoor"))
        assert a.cloud.points.tobytes() != b.cloud.points.tobytes()


class TestRegimes:
    def test_indoor_depth_envelope(self):
        for seed in range(5):
            bundle = generate(SceneSpec(seed=seed, regime="indoor"))
            z = [b.center[2] for b in bundle.boxes]
            assert all(0.5 <= v <= 8.0 for v in z)

    def test_outdoor_depth_envelope(self):
        for seed in range(5):
            bundle = generate(SceneSpec(seed=seed, regime="outdoor"))
            z = [b.center[2] for b in bundle.boxes]
            assert all(5.0 <= v <= 80.0 for v in z)

    def test_depth_histograms_overlap_only_in_designed_band(self):
        indoor, outdoor = [], []
        for seed in range(10):
            indoor += [b.center[2] for b in generate(SceneSpec(seed, "indoor")).boxes]
            outdoor += [b.center[2] for b in generate(SceneSpec(seed, "outdoor")).boxes]
        lo, hi = REGIME_DEPTH["outdoor"][0], REGIME_DEPTH["indoor"][1]
        assert max(indoor) <= hi
        assert min(outdoor) >= lo

    def test_depth_range_must_fit_regime(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, regime="nowhere")


class TestSceneContents:
    def test_depth_distribution_is_normalized(self):
        bundle = generate(SceneSpec(seed=3, regime="indoor"))
        np.testing.assert_allclose(bundle.depth_dist.probs.sum(axis=0), 1.0, atol=1e-9)
        assert bundle.depth_dist.probs.shape[1:] == bundle.feature_shape

    def test_cloud_is_visibility_filtered(self):
        from bevkit.pointpipe import visibility_filter

        bundle = generate(SceneSpec(seed=4, regime="outdoor"))
        refiltered = visibility_filter(bundle.cloud, bundle.intrinsics, tol=0.1)
        assert refiltered.points.tobytes() == bundle.cloud.points.tobytes()

    def test_perfect_predictions_reach_unit_ap(self):
        bundle = generate(SceneSpec(seed=5, regime="indoor"))
        preds = perturb(bundle.boxes, 0.0, 0.0, 0.0)
        result = match_and_ap(preds, bundle.boxes)
        assert result["headline_ap"] == 1.0


class TestPerturb:
    def test_zero_sigma_is_identity_with_scores(self):
        bundle = generate(SceneSpec(seed=6, regime="indoor"))
        out = perturb(bundle.boxes, 0.0, 0.0, 0.0)
        for src, dst in zip(bundle.boxes, out):
            np.testing.assert_array_equal(src.center, dst.center)
            np.testing.assert_array_equal(src.dims, dst.dims)
            np.testing.assert_allclose(src.rotation, dst.rotation, atol=0)
            assert dst.score == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            perturb([], -0.1, 0.0, 0.0)

    def test_monotone_degradation_over_seeds(self):
        cfg = MatchConfig()
        ap_small, ap_large = [], []
        for seed in range(20):
            bundle = generate(SceneSpec(seed=seed, regime="indoor", n_objects=4))
            small = perturb(bundle.boxes, 0.1, 0.0, 0.0, seed=seed)
            large = perturb(bundle.boxes, 0.5, 0.0, 0.0, seed=seed)
            ap_small.append(match_and_ap(small, bundle.boxes, cfg)["headline_ap"])
            ap_large.append(match_and_ap(large, bundle.boxes, cfg)["headline_ap"])
        assert np.mean(ap_large) <= np.mean(ap_small)

    def test_huge_noise_zeroes_ap25_on_small_boxes(self):
        bundle = generate(SceneSpec(seed=9, regime="indoor", n_objects=4))
        # indoor boxes have extent <= 2 m; 10 m of center noise leaves no
        # overlap at IoU 0.25
        wrecked = perturb(bundle.boxes, 10.0, 0.0, 0.0, seed=1)
        result = match_and_ap(wrecked, bundle.boxes)
        assert result["ap25"] == 0.0
