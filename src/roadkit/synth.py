"""Deterministic synthetic roadside scene and detection generator.

Serves as a ground-truth oracle for the evaluation pipeline: scenes carry
geometry and metadata only (no pixels). Objects rest on a flat ground plane
with yaw-only orientation in the world frame; the non-zero pitch/roll of the
camera-frame annotations arises purely from the camera's downward tilt.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .camera import Intrinsics, RigidTransform, _euler_rows, _move_arrays, _move_fault, _project_boxes
from .datasets import splitmix64
from .errors import GenerationError, RoadkitError, ValidationError
from .formats import (
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    Occlusion,
    _constructed_row,
    _record,
    _record_row,
    _valid_row,
)
from .geometry import _param_arrays

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


def _pick_classes(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The class index of each rng.random() draw: the same draw and result as
    rng.choice(len(cdf), p=weights)."""
    return cdf.searchsorted(draws, side="right")


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
    fid = frame_id if frame_id is not None else f"synth-{seed:016x}"
    [(sample, rows)] = _scenes(config, [seed], [fid])
    return replace(sample, frame=_annotated(sample.frame, rows))


def _annotated(frame: FrameRecord, rows: list[tuple]) -> FrameRecord:
    """The frame holding the records of its annotation rows."""
    return replace(frame, annotations=tuple(_record(row, frame.frame_id) for row in rows))


class _Placement:
    """One frame under placement: its generator, camera pose and object
    count, drawn as generate_scene draws them, its annotation rows placed so
    far, and its consecutive misses since the last one placed."""

    __slots__ = ("rng", "pitch_deg", "extrinsics", "count", "rows", "misses")

    def __init__(self, config: SceneConfig, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pitch_deg = float(self.rng.uniform(*config.pitch_range_deg))
        self.extrinsics = _camera_pose(self.pitch_deg, config.camera_height)
        self.count = int(self.rng.integers(config.objects_per_frame[0], config.objects_per_frame[1] + 1))
        self.rows: list[tuple] = []
        self.misses = 0


_GROUP_OBJECTS = 4096  # objects of the frames placed together, at which a group closes


def _scenes(
    config: SceneConfig, seeds: Sequence[int], frame_ids: Sequence[str]
) -> list[tuple[SceneSample, list[tuple]]]:
    """The scene generate_scene makes of each seed, with its frame id, the
    frame holding no annotations, beside the frame's annotation rows
    (formats' label rows). Raises the fault that generating the scenes one
    at a time, in seed order, meets first.

    Consecutive frames are placed together (_place), in groups that close
    when their object counts reach _GROUP_OBJECTS, which bounds the arrays
    of one round.
    """
    scenes: list[tuple[SceneSample, list[tuple]]] = []
    group: list[_Placement] = []
    objects = 0
    for seed in seeds:
        group.append(_Placement(config, seed))
        objects += group[-1].count
        if objects >= _GROUP_OBJECTS:
            scenes += _place(config, group, frame_ids[len(scenes) : len(scenes) + len(group)])
            group, objects = [], 0
    return scenes + _place(config, group, frame_ids[len(scenes) :])


def _place(
    config: SceneConfig, frames: list[_Placement], frame_ids: Sequence[str]
) -> list[tuple[SceneSample, list[tuple]]]:
    """Place the objects of the frames, then draw their tags; see _scenes.

    Placement runs in rounds. In each, every frame with objects still
    unplaced draws its next block of attempts from its own generator, and
    the blocks of all those frames are moved, checked, decomposed and
    projected as one stack, each attempt by its own frame's camera. Each
    frame then takes its attempts in order, as generate_scene takes them. A
    frame stops at its first fault: a moved box that fails a check, which
    comes before any projection of its block, or its 200th miss in a row.
    Frames after the first frame at fault are not placed further, and that
    frame's fault is raised once every frame before it is done.
    """
    intrinsics = config.intrinsics()
    half_fov = math.radians(config.horizontal_fov_deg) / 2.0
    names, cdf = _class_sampler(config.class_mix)
    nominal = np.array([NOMINAL_DIMS[name] for name in names])
    # Bounds of an attempt's 7 draws; uniform(0, 1) gives the bits of rng.random().
    low = np.array([0.0, 0.9, 0.9, 0.9, config.min_range, -half_fov * 0.85, -math.pi])
    high = np.array([1.0, 1.1, 1.1, 1.1, config.max_range * 0.95, half_fov * 0.85, math.pi])
    camera_rotations = np.reshape([frame.extrinsics.rotation for frame in frames], (-1, 3, 3))
    camera_translations = np.reshape([frame.extrinsics.translation for frame in frames], (-1, 3))
    faults: dict[int, RoadkitError] = {}
    active = [k for k, frame in enumerate(frames) if frame.count]
    while active:
        blocks = [frames[k].rng.uniform(low, high, (frames[k].count - len(frames[k].rows), 7)) for k in active]
        owner = np.repeat(active, [len(block) for block in blocks])
        draws = np.concatenate(blocks)
        kinds = _pick_classes(cdf, draws[:, 0])
        dims = nominal[kinds] * draws[:, 1:4]
        distance, bearing = draws[:, 4], draws[:, 5].tolist()
        centers = np.column_stack([
            distance * np.array([math.cos(b) for b in bearing]),
            distance * np.array([math.sin(b) for b in bearing]),
            dims[:, 0] / 2.0,
        ])
        centers, rotations, codes = _move_arrays(
            camera_rotations[owner], camera_translations[owner], centers, _world_box_rotations(draws[:, 6].tolist())
        )
        bad = np.flatnonzero(codes)
        for row in bad[np.unique(owner[bad], return_index=True)[1]]:
            faults[int(owner[row])] = ValidationError(_move_fault(codes[row], centers[row]))
        ok = ~np.isin(owner, owner[bad])
        owner, kinds, dims, centers = owner[ok], kinds[ok], dims[ok], centers[ok]
        params = np.column_stack([centers, dims, np.reshape(_euler_rows(rotations[ok]), (-1, 3))])
        _, visible, unclipped, rect = _project_boxes(intrinsics, *_param_arrays(params))
        truncations = _truncations(unclipped, rect)
        for k, shown, kind, truncation, box2d, box in zip(
            owner.tolist(), visible.tolist(), kinds.tolist(), truncations.tolist(), rect.tolist(), params.tolist()
        ):
            frame = frames[k]
            if k in faults:
                continue
            if not shown:
                frame.misses += 1
                if frame.misses == 200:
                    faults[k] = GenerationError(
                        f"could not place object {len(frame.rows) + 1} of {frame.count}; "
                        f"config frustum too small for the requested density"
                    )
                continue
            frame.misses = 0
            frame.rows.append((names[kind], truncation, Occlusion.FULLY_VISIBLE, tuple(box2d), None, tuple(box)))
        first = min(faults, default=len(frames))
        active = [k for k in active if k < first and len(frames[k].rows) < frames[k].count]
    if faults:
        raise faults[min(faults)]
    scenes = []
    for frame, fid in zip(frames, frame_ids):
        tags = (
            ("time", TIME_TAGS[int(frame.rng.integers(0, len(TIME_TAGS)))]),
            ("weather", WEATHER_TAGS[int(frame.rng.integers(0, len(WEATHER_TAGS)))]),
        )
        record = FrameRecord(
            frame_id=fid,
            image_path=f"{fid}.png",
            image_size=config.image_size,
            calibration_ref=f"calib-{fid}",
            tags=tags,
        )
        calibration = CalibrationSet(intrinsics=intrinsics, transforms=(frame.extrinsics,))
        scenes.append((SceneSample(frame=record, calibration=calibration, pitch_deg=frame.pitch_deg), frame.rows))
    return scenes


def _truncations(unclipped: np.ndarray, rect: np.ndarray) -> np.ndarray:
    """Each box's truncation, the share of its unclipped rectangle's area
    outside the image, as min(1.0, max(0.0, 1.0 - clipped area / area)), and
    0.0 where the area is not positive."""
    x1, y1, x2, y2 = unclipped.T
    cx1, cy1, cx2, cy2 = rect.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = (x2 - x1) * (y2 - y1)
        share = 1.0 - (cx2 - cx1) * (cy2 - cy1) / raw
        share = np.where(share > 0.0, share, 0.0)
        return np.where(raw > 0.0, np.where(share < 1.0, share, 1.0), 0.0)


def generate_corpus(
    config: SceneConfig, n_frames: int, seed: int
) -> tuple[DatasetManifest, dict[str, CalibrationSet]]:
    """Generate a manifest of frames with per-frame derived seeds.

    Frame i uses splitmix64(seed ^ i) so frames can be produced independently
    and in parallel while remaining deterministic.
    """
    manifest, rows, calibrations = _corpus(config, n_frames, seed)
    frames = tuple(_annotated(frame, frame_rows) for frame, frame_rows in zip(manifest.frames, rows))
    return replace(manifest, frames=frames), calibrations


def _corpus(
    config: SceneConfig, n_frames: int, seed: int
) -> tuple[DatasetManifest, list[list[tuple]], dict[str, CalibrationSet]]:
    """generate_corpus with the annotations as label rows: its manifest, the
    frames holding no annotations, each frame's annotation rows, and the
    calibrations."""
    if n_frames < 0:
        raise ValidationError(f"number of frames must be >= 0, got {n_frames}")
    seeds = [splitmix64((seed ^ i) & ((1 << 64) - 1))[1] for i in range(n_frames)]
    scenes = _scenes(config, seeds, [f"synth-{seed}-{i:06d}" for i in range(n_frames)])
    frames = tuple(sample.frame for sample, _ in scenes)
    manifest = DatasetManifest(name=f"synthetic-{seed}", class_taxonomy=tuple(sorted(NOMINAL_DIMS)), frames=frames)
    calibrations = {sample.frame.calibration_ref: sample.calibration for sample, _ in scenes}
    return manifest, [rows for _, rows in scenes], calibrations


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
    rows = [_record_row(ann) for ann in frame.annotations]
    [detections] = _detection_rows([rows], noise, [seed], config or SceneConfig())
    return [_record(row, frame.frame_id) for row in detections]


def _detection_rows(
    frames: Sequence[Sequence[tuple]], noise: NoiseSpec, seeds: Sequence[int], config: SceneConfig
) -> list[list[tuple]]:
    """corrupt_detections of each frame, given by its annotation rows, with
    its seed, as detection rows. Raises the fault that corrupting the frames
    one at a time meets first.

    Each frame draws from its own generator what corrupt_detections draws,
    in its order: per box the drop draw, then for a kept box one block of 3
    standard normals per nonzero sigma, which scaled give the values of
    rng.normal(0.0, sigma, 3); then the Poisson count and each false
    positive's 6 values. One array step over the kept boxes of every frame
    then makes their rows (_noisy_boxes), and one more the false positives'
    (_false_positives). Each frame's rows, its kept boxes' then its false
    positives', go through formats' gate in frame order; a frame whose own
    draws fail raises that fault once its kept boxes are checked.
    """
    width = 3 * sum(1 for sigma in (noise.center_sigma, noise.dim_sigma, noise.angle_sigma) if sigma)
    half_fov = math.radians(config.horizontal_fov_deg) / 2.0
    # Bounds of a false positive's 6 draws: class, depth, bearing, height, yaw, score.
    low = np.array([0.0, config.min_range, -half_fov * 0.8, 0.5, -math.pi, 0.01])
    high = np.array([1.0, config.max_range * 0.9, half_fov * 0.8, 4.0, math.pi, 0.3])
    kept: list[tuple[int, tuple]] = []
    normals: list[np.ndarray] = []
    false_positives: list[np.ndarray] = []
    stop = None  # the fault a frame's own draws meet, after which no frame draws
    for k, (rows, seed) in enumerate(zip(frames, seeds)):
        if seed < 0:
            stop = ValidationError(f"detection seed must be >= 0, got {seed}")
            break
        rng = np.random.default_rng(seed)
        for row in rows:
            if rng.random() < noise.drop_rate:
                continue
            kept.append((k, row))
            if width:
                normals.append(rng.standard_normal(width))
        try:
            count = int(rng.poisson(noise.fp_rate))
        except ValueError as exc:  # numpy's own limit on the rate, set by its C long
            stop = ValidationError(f"fp_rate {noise.fp_rate} is too large for a Poisson draw: {exc}")
            stop.__cause__ = exc
            break
        false_positives.append(rng.uniform(low, high, (count, 6)))
    detections: list[list[tuple]] = [[] for _ in frames]
    for k, row in itertools.chain(
        _noisy_boxes(kept, np.reshape(normals, (len(kept), width)), noise), _false_positives(false_positives, config)
    ):
        detections[k].append(row)
    # A frame whose draws fail drew no false positives, and the frames after
    # it drew nothing, so its fault comes after every row checked here.
    checked = [[_valid_row(*row[:5], *row[5]) or _constructed_row(row) for row in rows] for rows in detections]
    if stop is not None:
        raise stop
    return checked


def _noisy_boxes(kept: list[tuple[int, tuple]], normals: np.ndarray, noise: NoiseSpec) -> Iterator[tuple[int, tuple]]:
    """The (frame, detection row) of each kept (frame, annotation row) under
    its standard normals, made as they are taken, its angles not yet
    normalized.

    The arithmetic is corrupt_detections' per box, with its bits. Overflows
    make infinities, not warnings: an infinite magnitude scores
    exp(-inf) = 0.0, and an infinite value fails its check.
    """
    count = len(kept)
    box = np.reshape([row[5] for _, row in kept], (count, 9))
    offsets, column = [], 0
    with np.errstate(over="ignore"):
        for sigma in (noise.center_sigma, noise.dim_sigma, noise.angle_sigma):
            if sigma:
                offsets.append(0.0 + sigma * normals[:, column : column + 3])
                column += 3
            else:
                offsets.append(np.zeros((count, 3)))
        params = np.column_stack([
            box[:, :3] + offsets[0],
            np.maximum(box[:, 3:6] + offsets[1], 0.05),  # never NaN, nor a zero
            box[:, 6:] + offsets[2],
        ])
        exponents = -_magnitudes(*offsets) / noise.score_scale
    return (
        (k, (*row[:4], math.exp(exponent), tuple(values)))
        for (k, row), exponent, values in zip(kept, exponents.tolist(), params.tolist())
    )


def _magnitudes(d_center: np.ndarray, d_dims: np.ndarray, d_angles: np.ndarray) -> np.ndarray:
    """Each row's perturbation magnitude, with the bits of
    float(np.linalg.norm(c)) + float(np.sum(np.abs(d))) + float(np.sum(np.abs(a))).

    The norm is a stacked 1x3 by 3x1 matmul, which gets the bits of the dot
    product np.linalg.norm takes (einsum and a row sum of squares do not),
    and each sum of 3 adds left to right as np.sum does. A norm that
    overflows is infinite.
    """
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.matmul(d_center[:, None, :], d_center[:, :, None])[:, 0, 0])
        a, b = np.abs(d_dims), np.abs(d_angles)
        return norm + (a[:, 0] + a[:, 1] + a[:, 2]) + (b[:, 0] + b[:, 1] + b[:, 2])


def _false_positives(draws: list[np.ndarray], config: SceneConfig) -> Iterator[tuple[int, tuple]]:
    """The (frame, detection row) of each false positive in each frame's
    (count, 6) draws, in order, made as they are taken, its yaw not yet
    normalized."""
    names, cdf = _class_sampler(config.class_mix)
    owner = np.repeat(np.arange(len(draws)), [len(block) for block in draws])
    u = np.concatenate(draws) if draws else np.zeros((0, 6))
    dims = [NOMINAL_DIMS[name] for name in names]
    with np.errstate(over="ignore"):
        lateral = u[:, 1] * np.array([math.tan(v) for v in u[:, 2].tolist()])
    return (
        (k, (names[kind], 0.0, Occlusion.FULLY_VISIBLE, None, score, (x, y, depth, *dims[kind], yaw, 0.0, 0.0)))
        for k, kind, x, (_, depth, _, y, yaw, score) in zip(
            owner.tolist(), _pick_classes(cdf, u[:, 0]).tolist(), lateral.tolist(), u.tolist()
        )
    )
