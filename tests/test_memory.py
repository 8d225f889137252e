"""Memory guard of the indoor frame chain.

Each stage runs once on a 640x480 depth frame under ``tracemalloc``, and
its peak of traced memory above what was live before the call must stay
at or below the figure the former forms of these stages reached on the
same frame (flat-index unprojection, dense masked-L1 losses, a select
for the safe depth and two binning passes).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from bevkit.config import Config
from bevkit.geom import CameraIntrinsics, PointCloud, Pose, transform_cloud
from bevkit.headmath import mic_i2p_loss, mic_p2i_loss
from bevkit.pointpipe import DepthMap, depthmap_to_cloud, occupancy_mask, pillarize, unify_visible

MIB = 1 << 20
K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
_A, _B = np.radians(2.5), np.radians(1.0)
# a depth sensor 4 cm off the camera and slightly toed in
POSE = Pose(np.array([[np.cos(_A), 0.0, np.sin(_A)], [0.0, 1.0, 0.0],
                      [-np.sin(_A), 0.0, np.cos(_A)]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, np.cos(_B), -np.sin(_B)],
                        [0.0, np.sin(_B), np.cos(_B)]]),
            np.array([0.04, 0.01, -0.02]))

# Peak MiB above live-before of the former forms on this frame, rounded up
# to 0.01 MiB.  transform_cloud kept its form; it is guarded all the same.
FORMER_PEAK_MIB = {
    "depthmap_to_cloud": 21.16,
    "transform_cloud": 10.55,
    "unify_visible": 14.66,
    "pillarize": 10.87,
    "mic_p2i_loss": 4.74,
    "mic_i2p_loss": 4.75,
}


def _peak(peaks, name, fn, *args):
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / MIB
    return out


@pytest.fixture(scope="module")
def stage_peaks():
    rng = np.random.default_rng(17)
    vv, uu = np.mgrid[0:K.height, 0:K.width]
    # a wall receding to the right and folding at the horizon
    depth = DepthMap(1.0 + 6.0 * uu / K.width + 0.003 * np.abs(vv - K.cy)
                     + rng.normal(0.0, 0.01, (K.height, K.width)))
    g = Config().grid()
    b_p, b_i = rng.standard_normal((2, 64, 1, g.n_z, g.n_x))
    m_i = rng.uniform(size=(g.n_z, g.n_x)) < 0.02
    peaks = {}
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
    return peaks


@pytest.mark.parametrize("stage", sorted(FORMER_PEAK_MIB))
def test_stage_peak_within_former_figure(stage_peaks, stage):
    assert stage_peaks[stage] <= FORMER_PEAK_MIB[stage], (
        f"{stage} peaked at {stage_peaks[stage]:.2f} MiB above its live-before memory, "
        f"over the former {FORMER_PEAK_MIB[stage]} MiB")
