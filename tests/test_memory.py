"""Memory guard of the frame chain.

Each stage runs once under ``tracemalloc``, and its peak of traced memory
above what was live before the call must stay at or below the figure the
former forms of these stages reached on the same frame.  The indoor
stages run on a 640x480 depth frame (former forms: flat-index
unprojection, dense masked-L1 losses, a select for the safe depth and two
binning passes).  The ``outdoor.`` stages run the image branch at the
outdoor operating point, 64 channels over a 32x88 feature map with 118
depth bins, whose former forms split indices by remainder, took the
gradient's sign in place and decoded peak by peak.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from bevkit.config import Config
from bevkit.geom import CameraIntrinsics, FeatureMap, PointCloud, Pose, transform_cloud
from bevkit.headmath import ProposalAttributes, decode_proposals, mic_i2p_loss, mic_p2i_loss
from bevkit.liftsplat import DepthDistribution, bev_depth_confidence, sparse_prune, splat_to_bev
from bevkit.pointpipe import (DepthMap, depthmap_to_cloud, image_confidence_mask, occupancy_mask,
                              pillarize, unify_visible)

MIB = 1 << 20
K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
_A, _B = np.radians(2.5), np.radians(1.0)
# a depth sensor 4 cm off the camera and slightly toed in
POSE = Pose(np.array([[np.cos(_A), 0.0, np.sin(_A)], [0.0, 1.0, 0.0],
                      [-np.sin(_A), 0.0, np.cos(_A)]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, np.cos(_B), -np.sin(_B)],
                        [0.0, np.sin(_B), np.cos(_B)]]),
            np.array([0.04, 0.01, -0.02]))
K_FEAT = CameraIntrinsics(fx=88.0, fy=88.0, cx=44.0, cy=16.0, width=88, height=32)
N_BINS, N_CHANNELS = 118, 64

# Peak MiB above live-before of the former forms on their frame, rounded up
# to 0.01 MiB.  transform_cloud kept its form; it is guarded all the same.
FORMER_PEAK_MIB = {
    "depthmap_to_cloud": 21.16,
    "transform_cloud": 10.55,
    "unify_visible": 14.66,
    "pillarize": 10.87,
    "mic_p2i_loss": 4.74,
    "mic_i2p_loss": 4.75,
    "outdoor.sparse_prune": 1.31,
    "outdoor.splat_to_bev": 5.30,
    "outdoor.mic_p2i_loss": 4.20,
    "outdoor.mic_i2p_loss": 3.62,
    "outdoor.decode_proposals": 0.11,
}


def _peak(peaks, name, fn, *args):
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / MIB
    return out


def _indoor_peaks(peaks):
    rng = np.random.default_rng(17)
    vv, uu = np.mgrid[0:K.height, 0:K.width]
    # a wall receding to the right and folding at the horizon
    depth = DepthMap(1.0 + 6.0 * uu / K.width + 0.003 * np.abs(vv - K.cy)
                     + rng.normal(0.0, 0.01, (K.height, K.width)))
    g = Config().grid()
    b_p, b_i = rng.standard_normal((2, 64, 1, g.n_z, g.n_x))
    m_i = rng.uniform(size=(g.n_z, g.n_x)) < 0.02
    pillarize(PointCloud.empty(), g)    # its first call imports scipy.sparse
    tracemalloc.start()
    try:
        cloud = _peak(peaks, "depthmap_to_cloud", depthmap_to_cloud, depth, K)
        moved = _peak(peaks, "transform_cloud", transform_cloud, cloud, POSE)
        del cloud
        visible, stats = _peak(peaks, "unify_visible", unify_visible, moved, K, 0.1)
        pillars = _peak(peaks, "pillarize", pillarize, visible, g)
        m_p = occupancy_mask(pillars, g)
        _peak(peaks, "mic_p2i_loss", mic_p2i_loss, b_p, b_i, m_p)
        _peak(peaks, "mic_i2p_loss", mic_i2p_loss, b_i, b_p, m_i, m_p)
    finally:
        tracemalloc.stop()
    # the frame exercises every stage: most points survive, some pillars
    # and mask cells exist
    assert stats["input"] == K.width * K.height and stats["retained"] > 250_000
    assert len(pillars) > 0 and m_p.any() and (m_i & ~m_p).any()


def _outdoor_peaks(peaks):
    rng = np.random.default_rng(29)
    cfg = Config()
    g = cfg.grid()
    logits = 4.0 * rng.standard_normal((N_BINS, K_FEAT.height, K_FEAT.width))
    expd = np.exp(logits - logits.max(axis=0, keepdims=True))
    f_d = DepthDistribution(expd / expd.sum(axis=0, keepdims=True))
    f_i = FeatureMap(rng.standard_normal((N_CHANNELS, 1, K_FEAT.height, K_FEAT.width)))
    b_p = rng.standard_normal((N_CHANNELS, 1, g.n_z, g.n_x))
    # a LiDAR sweep occupies about 40% of the outdoor cells
    m_p = rng.uniform(size=(g.n_z, g.n_x)) < 0.4
    m_i = image_confidence_mask(bev_depth_confidence(f_d, K_FEAT, g), cfg.epsilon)
    heat = 0.1 * rng.uniform(size=(K_FEAT.height, K_FEAT.width))
    attrs = ProposalAttributes(heat, rng.uniform(-0.5, 0.5, heat.shape + (2,)),
                               rng.uniform(5.0, 80.0, heat.shape))
    splat_to_bev(f_i, sparse_prune(f_d, 1.0), K_FEAT, g)   # imports scipy.sparse
    tracemalloc.start()
    try:
        sp = _peak(peaks, "outdoor.sparse_prune", sparse_prune, f_d, cfg.tau)
        splat = _peak(peaks, "outdoor.splat_to_bev", splat_to_bev, f_i, sp, K_FEAT, g)
        _peak(peaks, "outdoor.mic_p2i_loss", mic_p2i_loss, b_p, splat.bev, m_p)
        _peak(peaks, "outdoor.mic_i2p_loss", mic_i2p_loss, splat.bev, b_p, m_i, m_p)
        props = _peak(peaks, "outdoor.decode_proposals", decode_proposals, attrs, K_FEAT,
                      cfg.m_proposals)
    finally:
        tracemalloc.stop()
    # a broad depth keeps a sixth of the entries, and the noise floor holds
    # more peaks than are decoded
    assert 0.1 < sp.kept / sp.total < 0.3 and splat.in_grid > 0
    assert (m_i & ~m_p).any() and len(props) == cfg.m_proposals


@pytest.fixture(scope="module")
def stage_peaks():
    peaks = {}
    _indoor_peaks(peaks)
    _outdoor_peaks(peaks)
    return peaks


@pytest.mark.parametrize("stage", sorted(FORMER_PEAK_MIB))
def test_stage_peak_within_former_figure(stage_peaks, stage):
    assert stage_peaks[stage] <= FORMER_PEAK_MIB[stage], (
        f"{stage} peaked at {stage_peaks[stage]:.2f} MiB above its live-before memory, "
        f"over the former {FORMER_PEAK_MIB[stage]} MiB")
