"""Deterministic synthetic roadside scene and detection generator.

Serves as a ground-truth oracle for the evaluation pipeline: scenes carry
geometry and metadata only (no pixels). Objects rest on a flat ground plane
with yaw-only orientation in the world frame; the non-zero pitch/roll of the
camera-frame annotations arises purely from the camera's downward tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, RigidTransform, _move_boxes, _project_boxes
from .datasets import splitmix64
from .errors import GenerationError, ValidationError
from .formats import (
    AnnotationRecord,
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    Occlusion,
)
from .geometry import Box3D, EulerOrientation, normalize_angle

# Nominal (h, w, l) per class, meters.
NOMINAL_DIMS = {
    "Car": (1.55, 1.85, 4.30),
    "Truck": (3.20, 2.60, 8.50),
    "Bus": (3.10, 2.90, 11.00),
}

WEATHER_TAGS = ("sunny", "cloudy", "foggy")
TIME_TAGS = ("day", "night")


@dataclass(frozen=True)
class SceneConfig:
    """Roadside camera and object-population parameters."""

    image_size: tuple[int, int] = (1920, 1080)
    horizontal_fov_deg: float = 120.0
    max_range: float = 150.0
    pitch_range_deg: tuple[float, float] = (-45.0, -25.0)
    camera_height: float = 8.0
    objects_per_frame: tuple[int, int] = (5, 30)
    class_mix: tuple[tuple[str, float], ...] = (("Car", 0.7), ("Truck", 0.15), ("Bus", 0.15))
    min_range: float = 8.0

    def __post_init__(self):
        if not (0.0 < self.horizontal_fov_deg < 180.0):
            raise ValidationError(f"horizontal fov must be in (0, 180), got {self.horizontal_fov_deg}")
        if not (0.0 < self.max_range < math.inf):
            raise ValidationError(f"max_range must be positive and finite, got {self.max_range}")
        # False positives are drawn at depths in [min_range, 0.9 * max_range].
        if not (0.0 < self.min_range <= 0.9 * self.max_range):
            raise ValidationError(
                f"need 0 < min_range <= 0.9 * max_range, got min_range={self.min_range}, "
                f"max_range={self.max_range}"
            )
        lo, hi = self.pitch_range_deg
        if not (-90.0 < lo <= hi < 0.0):
            raise ValidationError(f"pitch range must lie within (-90, 0), got {self.pitch_range_deg}")
        omin, omax = self.objects_per_frame
        if omin < 0 or omax < omin:
            raise ValidationError(f"bad objects_per_frame range {self.objects_per_frame}")
        for name, weight in self.class_mix:
            if name not in NOMINAL_DIMS or not (0.0 <= weight < math.inf):
                raise ValidationError(f"bad class mix entry ({name!r}, {weight})")
        if not (0.0 < sum(weight for _, weight in self.class_mix) < math.inf):
            raise ValidationError(f"class mix needs a positive finite total weight, got {self.class_mix}")

    def intrinsics(self) -> Intrinsics:
        width, height = self.image_size
        fx = (width / 2.0) / math.tan(math.radians(self.horizontal_fov_deg) / 2.0)
        return Intrinsics(
            fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0,
            image_width=width, image_height=height,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Controlled corruption of ground truth into synthetic detections."""

    drop_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per frame
    center_sigma: float = 0.0
    dim_sigma: float = 0.0
    angle_sigma: float = 0.0
    score_scale: float = 1.0  # score = exp(-perturbation magnitude / scale)

    def __post_init__(self):
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValidationError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        for name in ("fp_rate", "center_sigma", "dim_sigma", "angle_sigma"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        if not (0.0 < self.score_scale < math.inf):
            raise ValidationError(f"score_scale must be positive and finite, got {self.score_scale}")


def _camera_pose(pitch_deg: float, camera_height: float) -> RigidTransform:
    """World (x fwd, y left, z up) to camera (x right, y down, z fwd)."""
    # Axis permutation for a level camera looking along world +x.
    base = np.array([
        [0.0, -1.0, 0.0],  # camera x = world -y
        [0.0, 0.0, -1.0],  # camera y = world -z
        [1.0, 0.0, 0.0],   # camera z = world +x
    ])
    tilt = math.radians(-pitch_deg)  # downward tilt magnitude
    c, s = math.cos(tilt), math.sin(tilt)
    # Rotate the camera frame about its own x axis so the forward axis tips
    # toward the ground by `tilt`.
    tilt_rows = np.array([
        [1.0, 0.0, 0.0],
        [0.0, c, -s],
        [0.0, s, c],
    ])
    rotation = tilt_rows @ base
    position = np.array([0.0, 0.0, camera_height])
    return RigidTransform(
        rotation=rotation,
        translation=-(rotation @ position),
        source_frame="world",
        target_frame="camera",
    )


def _world_box_rotations(yaws: list[float]) -> np.ndarray:
    """Rotations of ground objects in world axes: length along heading, height up.

    The columns are right = down x heading, down = -z and heading = R_z(yaw) e_x,
    written out entry by entry as np.cross computes them, signed zeros included;
    "+ 0.0" maps -0.0 to 0.0 as the sums of the product R_z(yaw) e_x do.
    """
    c = np.array([math.cos(yaw) for yaw in yaws]) + 0.0
    s = np.array([math.sin(yaw) for yaw in yaws]) + 0.0
    rotations = np.zeros((len(yaws), 3, 3))
    rotations[:, 0, 0], rotations[:, 0, 2] = s, c
    rotations[:, 1, 0], rotations[:, 1, 2] = -c, s
    rotations[:, 2, 0], rotations[:, 2, 1] = 0.0 * s - 0.0 * c, -1.0
    return rotations


def _class_sampler(mix: tuple[tuple[str, float], ...]) -> tuple[list[str], np.ndarray]:
    """Class names and the normalised CDF of their weights, as rng.choice builds it."""
    weights = np.array([w for _, w in mix], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return [name for name, _ in mix], cdf


def _pick_class(rng: np.random.Generator, names: list[str], cdf: np.ndarray) -> str:
    """Draw one class: the same draw and result as rng.choice(len(names), p=weights)."""
    return names[int(cdf.searchsorted(rng.random(), side="right"))]


@dataclass(frozen=True)
class SceneSample:
    frame: FrameRecord
    calibration: CalibrationSet
    pitch_deg: float


def generate_scene(config: SceneConfig, seed: int, frame_id: str | None = None) -> SceneSample:
    """Generate one frame: camera pose, visible ground objects, annotations.

    Deterministic for a fixed (config, seed). Every emitted box has at least
    one projected corner inside the image.

    Objects are placed in blocks of attempts. Each attempt takes 7 doubles
    from the generator: the class, 3 dimension scales, distance, bearing and
    yaw. With r objects still unplaced the next r attempts are made whatever
    they show, so a block of r attempts drawn in one call leaves the generator
    where r single attempts would. Placement stops an object after 200
    consecutive misses.
    """
    if seed < 0:
        raise ValidationError(f"scene seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    pitch_deg = float(rng.uniform(*config.pitch_range_deg))
    extrinsics = _camera_pose(pitch_deg, config.camera_height)
    intrinsics = config.intrinsics()
    count = int(rng.integers(config.objects_per_frame[0], config.objects_per_frame[1] + 1))
    half_fov = math.radians(config.horizontal_fov_deg) / 2.0
    names, cdf = _class_sampler(config.class_mix)
    nominal = np.array([NOMINAL_DIMS[name] for name in names])
    # Bounds of an attempt's 7 draws; uniform(0, 1) gives the bits of rng.random().
    low = np.array([0.0, 0.9, 0.9, 0.9, config.min_range, -half_fov * 0.85, -math.pi])
    high = np.array([1.0, 1.1, 1.1, 1.1, config.max_range * 0.95, half_fov * 0.85, math.pi])
    annotations = []
    fid = frame_id if frame_id is not None else f"synth-{seed:016x}"
    misses = 0
    while len(annotations) < count:
        draws = rng.uniform(low, high, (count - len(annotations), 7))
        kinds = cdf.searchsorted(draws[:, 0], side="right")
        dims = nominal[kinds] * draws[:, 1:4]
        distance, bearing = draws[:, 4], draws[:, 5].tolist()
        centers = np.column_stack([
            distance * np.array([math.cos(b) for b in bearing]),
            distance * np.array([math.sin(b) for b in bearing]),
            dims[:, 0] / 2.0,
        ])
        boxes = _move_boxes(extrinsics, centers, dims.tolist(), _world_box_rotations(draws[:, 6].tolist()))
        for kind, box, projected in zip(kinds.tolist(), boxes, _project_boxes(intrinsics, boxes)):
            if not projected.visible:
                misses += 1
                if misses == 200:
                    raise GenerationError(
                        f"could not place object {len(annotations) + 1} of {count}; "
                        f"config frustum too small for the requested density"
                    )
                continue
            misses = 0
            x1, y1, x2, y2 = projected.unclipped
            raw = (x2 - x1) * (y2 - y1)
            truncation = 0.0
            if raw > 0.0:
                rect = projected.rect
                clipped_area = (rect[2] - rect[0]) * (rect[3] - rect[1])
                truncation = min(1.0, max(0.0, 1.0 - clipped_area / raw))
            annotations.append(
                AnnotationRecord(
                    class_name=names[kind],
                    truncation=truncation,
                    occlusion=Occlusion.FULLY_VISIBLE,
                    box2d=projected.rect,
                    box3d=box,
                    frame_id=fid,
                )
            )
    frame = FrameRecord(
        frame_id=fid,
        image_path=f"{fid}.png",
        image_size=config.image_size,
        calibration_ref=f"calib-{fid}",
        annotations=tuple(annotations),
        tags=(
            ("time", TIME_TAGS[int(rng.integers(0, len(TIME_TAGS)))]),
            ("weather", WEATHER_TAGS[int(rng.integers(0, len(WEATHER_TAGS)))]),
        ),
    )
    calibration = CalibrationSet(intrinsics=intrinsics, transforms=(extrinsics,))
    return SceneSample(frame=frame, calibration=calibration, pitch_deg=pitch_deg)


def generate_corpus(
    config: SceneConfig, n_frames: int, seed: int
) -> tuple[DatasetManifest, dict[str, CalibrationSet]]:
    """Generate a manifest of frames with per-frame derived seeds.

    Frame i uses splitmix64(seed ^ i) so frames can be produced independently
    and in parallel while remaining deterministic.
    """
    if n_frames < 0:
        raise ValidationError(f"number of frames must be >= 0, got {n_frames}")
    frames = []
    calibrations: dict[str, CalibrationSet] = {}
    for i in range(n_frames):
        _, child_seed = splitmix64((seed ^ i) & ((1 << 64) - 1))
        sample = generate_scene(config, child_seed, frame_id=f"synth-{seed}-{i:06d}")
        frames.append(sample.frame)
        calibrations[sample.frame.calibration_ref] = sample.calibration
    taxonomy = tuple(sorted(NOMINAL_DIMS))
    manifest = DatasetManifest(name=f"synthetic-{seed}", class_taxonomy=taxonomy, frames=tuple(frames))
    return manifest, calibrations


def corrupt_detections(
    frame: FrameRecord,
    noise: NoiseSpec,
    seed: int,
    config: SceneConfig | None = None,
) -> list[DetectionRecord]:
    """Derive detections from ground truth under a controlled noise model.

    Each GT box is independently dropped with drop_rate; survivors receive
    zero-mean Gaussian perturbations and a score exp(-magnitude/score_scale),
    so score ranking correlates with detection quality. Poisson(fp_rate)
    spurious low-score boxes are added inside the camera frustum.
    """
    if seed < 0:
        raise ValidationError(f"detection seed must be >= 0, got {seed}")
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    detections: list[DetectionRecord] = []
    for ann in frame.annotations:
        if rng.random() < noise.drop_rate:
            continue
        d_center = rng.normal(0.0, noise.center_sigma, 3) if noise.center_sigma else np.zeros(3)
        d_dims = rng.normal(0.0, noise.dim_sigma, 3) if noise.dim_sigma else np.zeros(3)
        d_angles = rng.normal(0.0, noise.angle_sigma, 3) if noise.angle_sigma else np.zeros(3)
        box = ann.box3d
        dims = tuple(max(v + dv, 0.05) for v, dv in zip(box.dims, d_dims))
        orientation = EulerOrientation(
            box.orientation.yaw + d_angles[0],
            box.orientation.pitch + d_angles[1],
            box.orientation.roll + d_angles[2],
        )
        magnitude = (
            float(np.linalg.norm(d_center))
            + float(np.sum(np.abs(d_dims)))
            + float(np.sum(np.abs(d_angles)))
        )
        detections.append(
            DetectionRecord(
                class_name=ann.class_name,
                truncation=ann.truncation,
                occlusion=ann.occlusion,
                box2d=ann.box2d,
                box3d=Box3D(
                    center=tuple(np.asarray(box.center) + d_center),
                    dims=dims,
                    orientation=orientation,
                ),
                frame_id=frame.frame_id,
                score=math.exp(-magnitude / noise.score_scale),
            )
        )
    half_fov = math.radians(config.horizontal_fov_deg) / 2.0
    names, cdf = _class_sampler(config.class_mix)
    try:
        false_positives = int(rng.poisson(noise.fp_rate))
    except ValueError as exc:  # numpy's own limit on the rate, set by its C long
        raise ValidationError(f"fp_rate {noise.fp_rate} is too large for a Poisson draw: {exc}") from exc
    for _ in range(false_positives):
        class_name = _pick_class(rng, names, cdf)
        h0, w0, l0 = NOMINAL_DIMS[class_name]
        depth = float(rng.uniform(config.min_range, config.max_range * 0.9))
        x = depth * math.tan(rng.uniform(-half_fov * 0.8, half_fov * 0.8))
        y = float(rng.uniform(0.5, 4.0))
        detections.append(
            DetectionRecord(
                class_name=class_name,
                box3d=Box3D(
                    center=(x, y, depth),
                    dims=(h0, w0, l0),
                    orientation=EulerOrientation(normalize_angle(rng.uniform(-math.pi, math.pi))),
                ),
                frame_id=frame.frame_id,
                score=float(rng.uniform(0.01, 0.3)),
            )
        )
    return detections
