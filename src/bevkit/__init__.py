"""Deterministic geometry and numerics toolkit for unified BEV 3D detection."""

from .config import Config
from .eval3d import MatchConfig, iou3d, match_and_ap
from .geom import (
    Box3D,
    CameraIntrinsics,
    FeatureMap,
    PointCloud,
    Pose,
    box_corners,
    project_point,
    transform_cloud,
    unproject_pixel,
)
from .grid import UnevenGridSpec, build_grid, cells_of
from .headmath import (
    DalnParams,
    LabelSpace,
    ProposalAttributes,
    class_alignment_loss,
    daln,
    decode_proposals,
    gaussian_heatmap_target,
    layer_norm,
    mic_i2p_loss,
    mic_p2i_loss,
)
from .liftsplat import (
    DepthDistribution,
    SparseProjection,
    bench_projection,
    bev_depth_confidence,
    outer_project,
    sparse_prune,
    splat_to_bev,
)
from .pointpipe import (
    DepthMap,
    PillarTensor,
    depthmap_to_cloud,
    image_confidence_mask,
    occupancy_mask,
    pillarize,
    visibility_filter,
)
from .synth import SceneSpec, generate, perturb

__version__ = "0.1.0"
