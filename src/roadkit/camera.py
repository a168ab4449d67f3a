"""Pinhole projection and rigid frame changes between sensor frames."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BehindCameraError, FrameMismatchError, ValidationError
from .geometry import (
    Box3D,
    EulerOrientation,
    _box_arrays,
    _corners,
    _euler_angles,
    _first_invalid_rotation,
    validate_rotation,
)

# Points with camera-frame depth at or below this are rejected as behind the
# camera; keeps legitimate near-field points while avoiding division blow-up.
BEHIND_CAMERA_EPS = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera matrix parameters plus the image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    image_width: int
    image_height: int
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValidationError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0.0 <= self.cx < self.image_width):
            raise ValidationError(f"cx={self.cx} outside [0, {self.image_width})")
        if not (0.0 <= self.cy < self.image_height):
            raise ValidationError(f"cy={self.cy} outside [0, {self.image_height})")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @cached_property
    def _matrix_t(self) -> np.ndarray:
        """K transposed, built once per instance for project_box."""
        k = self.matrix
        k.setflags(write=False)
        return k.T

    @classmethod
    def from_matrix(cls, k: np.ndarray, image_size: tuple[int, int]) -> "Intrinsics":
        k = np.asarray(k, dtype=float)
        if k.shape != (3, 3):
            raise ValidationError(f"K must be 3x3, got shape {k.shape}")
        if not np.isfinite(k).all():
            raise ValidationError("K holds non-finite entries")
        if np.max(np.abs(k[2] - np.array([0.0, 0.0, 1.0]))) > 1e-9 or abs(k[1, 0]) > 1e-9:
            raise ValidationError("K must be an upper-triangular pinhole matrix")
        width, height = image_size
        return cls(
            fx=k[0, 0],
            fy=k[1, 1],
            cx=k[0, 2],
            cy=k[1, 2],
            skew=k[0, 1],
            image_width=int(width),
            image_height=int(height),
        )


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation mapping points from source to target frame."""

    rotation: np.ndarray
    translation: np.ndarray
    source_frame: str
    target_frame: str

    def __post_init__(self):
        rot = validate_rotation(self.rotation)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValidationError("translation holds non-finite entries")
        if not self.source_frame or not self.target_frame:
            raise ValidationError("frame labels must be nonempty")
        if self.source_frame == self.target_frame:
            raise ValidationError("source and target frames must be distinct")
        rot = rot.copy()
        rot.setflags(write=False)
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (N, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(
            rotation=self.rotation.T,
            translation=-(self.rotation.T @ self.translation),
            source_frame=self.target_frame,
            target_frame=self.source_frame,
        )

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return self . other, mapping other.source_frame to self.target_frame."""
        if other.target_frame != self.source_frame:
            raise FrameMismatchError(
                f"cannot compose {self.source_frame}->{self.target_frame} "
                f"with {other.source_frame}->{other.target_frame}"
            )
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
            source_frame=other.source_frame,
            target_frame=self.target_frame,
        )

    @property
    def matrix_3x4(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])


@dataclass(frozen=True)
class ImagePoint:
    """Projected pixel coordinates with the homogeneous depth scale."""

    u: float
    v: float
    w: float


def project_point(
    intrinsics: Intrinsics,
    extrinsics: RigidTransform | None,
    point: np.ndarray,
) -> ImagePoint:
    """Project a 3D point through [x y w] = K [R|t] [X Y Z 1].

    `extrinsics` maps the point's frame into the camera frame; pass None for
    points already expressed in camera coordinates. The scale factor w equals
    the camera-frame depth.
    """
    p = np.asarray(point, dtype=float).reshape(3)
    cam = extrinsics.apply(p) if extrinsics is not None else p
    w = float(cam[2])
    if w <= BEHIND_CAMERA_EPS:
        raise BehindCameraError(f"point depth {w:.3g} m is at or behind the camera plane")
    homogeneous = intrinsics.matrix @ cam
    return ImagePoint(u=float(homogeneous[0] / w), v=float(homogeneous[1] / w), w=w)


def backproject_point(
    intrinsics: Intrinsics,
    extrinsics: RigidTransform | None,
    u: float,
    v: float,
    depth: float,
) -> np.ndarray:
    """Invert project_point: pixel (u, v) at camera depth w back to the source frame."""
    if depth <= 0.0:
        raise ValidationError(f"depth must be positive, got {depth}")
    cam = np.linalg.solve(intrinsics.matrix, np.array([u * depth, v * depth, depth]))
    if extrinsics is None:
        return cam
    return extrinsics.inverse().apply(cam)


def transform_box(
    extrinsics: RigidTransform, box: Box3D, box_frame: str | None = None
) -> Box3D:
    """Rigidly move a box into the transform's target frame.

    The full box rotation is carried through (not just yaw) and re-decomposed
    under the toolkit's single Euler convention; dimensions are unchanged.
    """
    if box_frame is not None and box_frame != extrinsics.source_frame:
        raise FrameMismatchError(
            f"box frame {box_frame!r} does not match transform source "
            f"{extrinsics.source_frame!r}"
        )
    return _transform_boxes(extrinsics, [box])[0]


def _transform_boxes(extrinsics: RigidTransform, boxes: Sequence[Box3D]) -> list[Box3D]:
    """transform_box of each box, raising the first rejected rotation's fault."""
    centers, rotations, _ = _box_arrays(boxes)
    moved, fault = _move_boxes(extrinsics, centers, [box.dims for box in boxes], rotations)
    if fault is not None:
        raise ValidationError(fault)
    return moved


def _move_boxes(
    extrinsics: RigidTransform, centers: np.ndarray, dims: Sequence, rotations: np.ndarray
) -> tuple[list[Box3D], str | None]:
    """Move boxes, given as (N, 3) centers, (h, w, l) rows and (N, 3, 3)
    rotations, into the transform's target frame with the bits of one box at a time.

    Each center goes through the same 1x3 row product as extrinsics.apply,
    and each rotation through the same 3x3 product. Returns the boxes before
    the first moved rotation validate_rotation would reject, and that
    rejection's message, or None when it rejects none.
    """
    centers = np.matmul(centers[:, None, :], extrinsics.rotation.T)[:, 0] + extrinsics.translation
    rotations = np.matmul(extrinsics.rotation, rotations)
    stop, fault = _first_invalid_rotation(rotations)
    moved = [
        Box3D(center=center, dims=size, orientation=EulerOrientation(*_euler_angles(rot)))
        for center, size, rot in zip(centers[:stop].tolist(), dims, rotations[:stop].tolist())
    ]
    return moved, fault


@dataclass(frozen=True)
class ProjectedBox:
    """Axis-aligned pixel rectangle of a projected 3D box.

    `unclipped` is the rectangle before clipping to the image, None when every
    corner is behind the camera.
    """

    rect: tuple[float, float, float, float] | None  # (x1, y1, x2, y2)
    visible: bool
    unclipped: tuple[float, float, float, float] | None = None


def project_box(
    intrinsics: Intrinsics,
    box: Box3D,
    extrinsics: RigidTransform | None = None,
) -> ProjectedBox:
    """Project a box's corners and return their pixel bounding rectangle.

    Corners behind the camera are skipped; the result is clipped to the image
    rectangle. `visible` is False when every corner is behind the camera or
    the rectangle falls fully outside the image.
    """
    return _project_boxes(intrinsics, [box], extrinsics)[0]


def _project_boxes(
    intrinsics: Intrinsics,
    boxes: Sequence[Box3D],
    extrinsics: RigidTransform | None = None,
) -> list[ProjectedBox]:
    """project_box of each box, with one stacked product per stage.

    Every corner of every box is projected, behind the camera or not, and the
    corners behind it are dropped afterwards. A row of a stacked matmul gets
    the bits it gets in a product of the corners ahead alone, except when a
    box has one corner ahead: matmul runs a lone row through its vector loop,
    which may round differently, so that corner is projected as a lone row.
    """
    cam = _corners(*_box_arrays(boxes))
    if extrinsics is not None:
        cam = np.matmul(cam, extrinsics.rotation.T) + extrinsics.translation
    front = cam[..., 2] > BEHIND_CAMERA_EPS
    uv = np.matmul(cam, intrinsics._matrix_t)
    lone = np.flatnonzero(np.count_nonzero(front, axis=1) == 1)
    if lone.size:
        corner = np.argmax(front[lone], axis=1)
        uv[lone, corner] = np.matmul(cam[lone, corner][:, None], intrinsics._matrix_t)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = uv[..., :2] / cam[..., 2:]
    lo = np.where(front[..., None], uv, np.inf).min(axis=1).tolist()
    hi = np.where(front[..., None], uv, -np.inf).max(axis=1).tolist()
    width, height = float(intrinsics.image_width), float(intrinsics.image_height)
    out = []
    for seen, (x1, y1), (x2, y2) in zip(front.any(axis=1).tolist(), lo, hi):
        if not seen:
            out.append(ProjectedBox(rect=None, visible=False))
            continue
        unclipped = (x1, y1, x2, y2)
        cx1 = max(x1, 0.0)
        cy1 = max(y1, 0.0)
        cx2 = min(x2, width)
        cy2 = min(y2, height)
        if cx1 >= cx2 or cy1 >= cy2:
            out.append(ProjectedBox(rect=None, visible=False, unclipped=unclipped))
        else:
            out.append(ProjectedBox(rect=(cx1, cy1, cx2, cy2), visible=True, unclipped=unclipped))
    return out
