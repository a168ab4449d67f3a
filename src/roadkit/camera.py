"""Pinhole projection and rigid frame changes between sensor frames."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BehindCameraError, FrameMismatchError, ValidationError
from .geometry import (
    Box3D,
    EulerOrientation,
    _box_arrays,
    _center_fault,
    _corners,
    _ROTATION_FAULTS,
    _euler_angles,
    _rotation_faults,
    normalize_angle,
    validate_rotation,
)

# Points with camera-frame depth at or below this are rejected as behind the
# camera; keeps legitimate near-field points while avoiding division blow-up.
BEHIND_CAMERA_EPS = 1e-6
_BLOCK = 256  # boxes decomposed from one tolist() call, to bound the Python floats held at once


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
        """Transform one point (3,), or points stacked along any leading axes (..., 3)."""
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
    """transform_box of each box, raising the first box's fault."""
    centers, rotations, _ = _box_arrays(boxes)
    moved, fault = _move_poses(extrinsics, centers, rotations)
    if fault is not None:
        raise ValidationError(fault)
    return [
        Box3D(center=pose[:3], dims=box.dims, orientation=EulerOrientation(*pose[3:]))
        for pose, box in zip(moved, boxes)
    ]


_CENTER_FAULT = len(_ROTATION_FAULTS)  # the fault code of a moved center that is not finite


def _move_arrays(
    rotation: np.ndarray, translation: np.ndarray, centers: np.ndarray, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boxes given as (N, 3) centers and (N, 3, 3) rotations, moved by one
    rotation (3, 3) and translation (3,), or by one of each per box, (N, 3, 3)
    and (N, 3), with the bits of one box at a time.

    Returns the moved centers and rotations, and each box's fault code: its
    moved rotation's _rotation_faults code, or else _CENTER_FAULT when its
    moved center is not finite, or else 0.

    Each center goes through the product of RigidTransform.apply as a
    stacked 1x3 row, which gets the bits of one point, and each rotation
    through the same 3x3 product; a per-box rotation runs the same loop.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing center is a fault
        centers = (np.matmul(centers[:, None, :], np.swapaxes(rotation, -1, -2)) + translation[..., None, :])[:, 0]
        rotations = np.matmul(rotation, rotations)
    faults = _rotation_faults(rotations)
    faults[(faults == 0) & ~np.isfinite(centers).all(axis=1)] = _CENTER_FAULT
    return centers, rotations, faults


def _move_fault(code: int, center: np.ndarray) -> str:
    """The message of a _move_arrays fault code, for a box with this moved
    center: validate_rotation's, or Box3D's for its center."""
    return _center_fault(tuple(center.tolist())) if code == _CENTER_FAULT else _ROTATION_FAULTS[code]


def _euler_rows(rotations: np.ndarray) -> list[tuple[float, float, float]]:
    """(yaw, pitch, roll) of each rotation of a valid (N, 3, 3) stack, each
    angle in (-pi, pi]."""
    angles = []
    for start in range(0, len(rotations), _BLOCK):
        for rotation in rotations[start : start + _BLOCK].reshape(-1, 9).tolist():
            yaw, pitch, roll = _euler_angles(rotation)
            angles.append((normalize_angle(yaw), normalize_angle(pitch), normalize_angle(roll)))
    return angles


def _move_poses(
    extrinsics: RigidTransform, centers: np.ndarray, rotations: np.ndarray
) -> tuple[list[tuple[float, ...]], str | None]:
    """Move boxes, given as (N, 3) centers and (N, 3, 3) rotations, into the
    transform's target frame with the bits of one box at a time.

    Returns each box's moved (x, y, z, yaw, pitch, roll), each angle in
    (-pi, pi], up to the first box at fault, and that fault's message, or
    None. A box is at fault when its moved center is not finite or its moved
    rotation is one validate_rotation rejects, with Box3D's and
    validate_rotation's messages (_move_arrays).
    """
    centers, rotations, faults = _move_arrays(extrinsics.rotation, extrinsics.translation, centers, rotations)
    bad = np.flatnonzero(faults)
    stop = int(bad[0]) if bad.size else len(faults)
    fault = _move_fault(faults[stop], centers[stop]) if bad.size else None
    moved = [(*center, *angles) for center, angles in zip(centers[:stop].tolist(), _euler_rows(rotations[:stop]))]
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
    return _projected(*_project_boxes(intrinsics, *_box_arrays([box]), extrinsics))[0]


def _projected(
    seen: np.ndarray, visible: np.ndarray, unclipped: np.ndarray, rect: np.ndarray
) -> list[ProjectedBox]:
    """The ProjectedBox of each box of _project_boxes' arrays."""
    out = []
    for ahead, shown, corners, clipped in zip(seen.tolist(), visible.tolist(), unclipped.tolist(), rect.tolist()):
        if not ahead:
            out.append(ProjectedBox(rect=None, visible=False))
        elif not shown:
            out.append(ProjectedBox(rect=None, visible=False, unclipped=tuple(corners)))
        else:
            out.append(ProjectedBox(rect=tuple(clipped), visible=True, unclipped=tuple(corners)))
    return out


def _project_boxes(
    intrinsics: Intrinsics,
    centers: np.ndarray,
    rotations: np.ndarray,
    halves: np.ndarray,
    extrinsics: RigidTransform | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """project_box of each box given as _box_arrays gives it, with one
    stacked product per stage, as arrays: whether any corner is ahead of the
    camera (N,), whether the box is visible (N,), and its (x1, y1, x2, y2)
    rectangle before clipping to the image (N, 4) and after (N, 4).

    Every corner of every box is projected, behind the camera or not, and the
    corners behind it are dropped afterwards. A row of a stacked matmul gets
    the bits it gets in a product of the corners ahead alone, except when a
    box has one corner ahead: matmul runs a lone row through its vector loop,
    which may round differently, so that corner is projected as a lone row.
    The clip takes an edge where max(x1, 0.0) and min(x2, width) would, so
    that -0.0 and NaN come out as they do from Python's max and min.
    """
    cam = _corners(centers, rotations, halves)
    k_t = intrinsics.matrix.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if extrinsics is not None:
            cam = extrinsics.apply(cam)
        front = cam[..., 2] > BEHIND_CAMERA_EPS
        uv = np.matmul(cam, k_t)
        lone = np.flatnonzero(np.count_nonzero(front, axis=1) == 1)
        if lone.size:
            corner = np.argmax(front[lone], axis=1)
            uv[lone, corner] = np.matmul(cam[lone, corner][:, None], k_t)[:, 0]
        uv = uv[..., :2] / cam[..., 2:]
        lo = np.where(front[..., None], uv, np.inf).min(axis=1)
        hi = np.where(front[..., None], uv, -np.inf).max(axis=1)
        size = np.array([float(intrinsics.image_width), float(intrinsics.image_height)])
        clipped_lo = np.where(0.0 > lo, 0.0, lo)
        clipped_hi = np.where(size < hi, size, hi)
        seen = front.any(axis=1)
        visible = seen & ~(clipped_lo >= clipped_hi).any(axis=1)
    return seen, visible, np.hstack([lo, hi]), np.hstack([clipped_lo, clipped_hi])
