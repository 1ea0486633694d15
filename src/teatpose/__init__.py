"""Real-time teat pose estimation from segmentation masks and depth clouds.

The geometry path mirrors a milking-robot perception stack: 2D teat masks
carve a depth cloud into per-teat frustum clusters, voxel downsampling and
Euclidean clustering isolate each teat, and a least-squares capsule fit,
seeded by the principal axis, yields the tip position and cup-approach
axis. A synthetic scene generator with oracle masks plus a
latency-injecting pipeline analogue make the whole stack testable without
a robot.
"""

from .axes import pca_axis
from .camera import WORLD_UP, CameraModel
from .cloud import PointCloud
from .cluster import euclidean_cluster
from .errors import (AmbiguousAxisError, CurveFitError,
                     InsufficientPointsError, InvalidInputError,
                     InvalidSceneError, TeatPoseError)
from .experiments import run_camera_curve, run_rate_bench, run_repeatability
from .mask import (PixelCells, TeatMask, extract_masked_points,
                   project_cells, rasterize_mask)
from .pipeline import (ConsistencyGate, FrameMessage, LatencyModel,
                       PipelineConfig, PipelineResult, estimate_frame,
                       gate_update, run_pipeline, static_scene_stream)
from .pose import (PoseConfig, TeatPose, disambiguate_direction,
                   estimate_teat_pose, locate_tip)
from .scene import (ErrorCurve, GroundTruth, NoiseModel, SceneSpec, TeatSpec,
                    default_scene, fit_error_curve, occlude,
                    orbbec_like_noise, plane_target_measure, render,
                    render_plane_target)
from .voxel import voxel_downsample

__version__ = "0.1.0"

__all__ = [
    "AmbiguousAxisError", "CameraModel", "ConsistencyGate", "CurveFitError",
    "ErrorCurve", "FrameMessage", "GroundTruth",
    "InsufficientPointsError", "InvalidInputError", "InvalidSceneError",
    "LatencyModel", "NoiseModel", "PipelineConfig", "PipelineResult",
    "PixelCells", "PointCloud", "PoseConfig", "SceneSpec",
    "TeatMask", "TeatPose", "TeatPoseError", "TeatSpec",
    "WORLD_UP", "default_scene", "disambiguate_direction", "estimate_frame",
    "estimate_teat_pose", "euclidean_cluster", "extract_masked_points",
    "fit_error_curve", "gate_update", "locate_tip", "occlude",
    "orbbec_like_noise", "pca_axis",
    "plane_target_measure", "project_cells",
    "rasterize_mask", "render", "render_plane_target", "run_camera_curve",
    "run_pipeline", "run_rate_bench", "run_repeatability",
    "static_scene_stream", "voxel_downsample",
]
