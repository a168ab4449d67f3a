"""Roadside 3D detection toolkit: box geometry, camera transforms, dataset
formats, deterministic splits, mAP evaluation, and a synthetic scene oracle.
"""

from .camera import (
    ImagePoint,
    Intrinsics,
    ProjectedBox,
    RigidTransform,
    backproject_point,
    project_box,
    project_point,
    transform_box,
)
from .datasets import (
    DifficultyLevel,
    ExperimentPlan,
    SplitSpec,
    assign_difficulty,
    build_experiment_plan,
    make_split,
)
from .errors import RoadkitError
from .evaluation import (
    ErrorBreakdown,
    EvalConfig,
    EvalReport,
    MatchResult,
    PRCurve,
    ReportRow,
    average_precision,
    compare_reports,
    error_breakdown,
    evaluate,
    match_frame,
    render_report,
)
from .formats import (
    AnnotationRecord,
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    Occlusion,
    dataset_stats,
    dump_calibration,
    dump_manifest,
    load_manifest,
    parse_calibration,
    parse_labels,
    remap_classes,
    write_labels,
)
from .geometry import (
    Box3D,
    EulerOrientation,
    box_corners,
    euler_from_rotation,
    intersection_volume,
    iou3d,
    iou3d_matrix,
    rotation_from_euler,
)
from .synth import NoiseSpec, SceneConfig, corrupt_detections, generate_corpus, generate_scene

__version__ = "0.1.0"
