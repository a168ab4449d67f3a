"""9-DOF oriented boxes, rotation algebra, and exact 3D box intersection.

Conventions (normative for the whole toolkit):

* Camera axes: x right, y down, z forward.
* Euler angles compose intrinsically as R = R_y(yaw) @ R_x(pitch) @ R_z(roll).
* Box local axes: width w along local x, height h along local y, length l
  along local z (forward). Dimensions are stored in (h, w, l) order.
* Angles are normalized to the canonical range (-pi, pi] on construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

TAU = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Map an angle in radians to the canonical range (-pi, pi]."""
    if not math.isfinite(angle):
        raise ValidationError(f"angle must be finite, got {angle!r}")
    r = math.remainder(angle, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class EulerOrientation:
    """Yaw-pitch-roll orientation, each angle stored in (-pi, pi]."""

    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))
        object.__setattr__(self, "pitch", normalize_angle(float(self.pitch)))
        object.__setattr__(self, "roll", normalize_angle(float(self.roll)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.yaw, self.pitch, self.roll)


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_from_euler(orientation: EulerOrientation) -> np.ndarray:
    """Build the 3x3 rotation matrix R_y(yaw) @ R_x(pitch) @ R_z(roll)."""
    return rot_y(orientation.yaw) @ rot_x(orientation.pitch) @ rot_z(orientation.roll)


def euler_from_rotation(matrix: np.ndarray) -> EulerOrientation:
    """Decompose a rotation matrix under the Y-X-Z intrinsic convention.

    When pitch is within ~1e-6 of +/- pi/2 the yaw/roll axes align; the
    residual rotation is folded into yaw and roll is reported as 0.
    """
    m = np.asarray(matrix, dtype=float)
    validate_rotation(m)
    sp = -m[1, 2]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if math.sqrt(1.0 - sp * sp) > 1e-6:
        yaw = math.atan2(m[0, 2], m[2, 2])
        roll = math.atan2(m[1, 0], m[1, 1])
    elif sp > 0.0:
        yaw = math.atan2(m[0, 1], m[0, 0])
        roll = 0.0
    else:
        yaw = math.atan2(-m[0, 1], m[0, 0])
        roll = 0.0
    return EulerOrientation(yaw, pitch, roll)


def validate_rotation(matrix: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Check orthonormality and det = +1; return the matrix as float ndarray."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"rotation matrix must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("rotation matrix holds non-finite entries")
    if np.max(np.abs(m.T @ m - np.eye(3))) > tol:
        raise ValidationError("rotation matrix is not orthonormal")
    if abs(np.linalg.det(m) - 1.0) > tol:
        raise ValidationError("rotation matrix determinant is not +1")
    return m


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z), dimensions (h, w, l), orientation."""

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    orientation: EulerOrientation = EulerOrientation()

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        if len(center) != 3 or not all(math.isfinite(v) for v in center):
            raise ValidationError(f"box center must be 3 finite values, got {center}")
        if len(dims) != 3 or not all(math.isfinite(v) and v > 0.0 for v in dims):
            raise ValidationError(f"box dims (h, w, l) must be positive, got {dims}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)

    @property
    def height(self) -> float:
        return self.dims[0]

    @property
    def width(self) -> float:
        return self.dims[1]

    @property
    def length(self) -> float:
        return self.dims[2]

    @property
    def volume(self) -> float:
        h, w, l = self.dims
        return h * w * l

    def _sort_key(self):
        return (self.center, self.dims, self.orientation.as_tuple())


def box_corners(box: Box3D) -> np.ndarray:
    """Return the 8 corners of a box, shape (8, 3).

    Corner ordering: index bit 2 selects the local-x (width) sign, bit 1 the
    local-y (height) sign, bit 0 the local-z (length) sign, with bit value 0
    meaning the positive half-extent. Corner 0 is (+w/2, +h/2, +l/2) in local
    coordinates.
    """
    h, w, l = box.dims
    signs = np.array(
        [
            [sx, sy, sz]
            for sx in (1.0, -1.0)
            for sy in (1.0, -1.0)
            for sz in (1.0, -1.0)
        ]
    )
    local = signs * (np.array([w, h, l]) * 0.5)
    rot = rotation_from_euler(box.orientation)
    return np.asarray(box.center) + local @ rot.T


# Plane k of a box pair (k = 0..11) faces along axis k // 2 of the pair's six
# box axes (a's local x, y, z, then b's), outward + for even k, - for odd.
_PLANE_AXIS = np.repeat(np.arange(6), 2)
_PLANE_SIGN = np.tile([1.0, -1.0], 6)
# Candidate vertices: 20 triples of axes times 8 sign choices, the 160 plane
# triples that hold no parallel pair from one box.
_TRIPLE_AXES = np.array(list(itertools.combinations(range(6), 3)))
_TRIPLE_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_VERTEX_PLANES = (2 * _TRIPLE_AXES[:, None] + (_TRIPLE_SIGNS < 0)).reshape(-1, 3)
# The 40 candidate vertices on each plane, and the two box axes spanning it.
_FACE_VERTICES = np.array([np.flatnonzero(np.any(_VERTEX_PLANES == k, axis=1)) for k in range(12)])
_FACE_UV = np.stack([_PLANE_AXIS // 3 * 3 + (_PLANE_AXIS + k) % 3 for k in (1, 2)])[..., None]
_NEXT = np.roll(np.arange(_FACE_VERTICES.shape[1]), -1)
_PLANE_EPS = 1e-9  # a vertex this close outside a plane is inside it
_PARALLEL_EPS = 1e-12  # unit normals this close per component are parallel
_BATCH = 8  # pairs per kernel call; bounds the working set


# A pair gets the same bits in any batch: np.sum and matmul may reorder their
# additions with the array shape, so sums are written out or read off cumsum.
def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _sum(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x, axis=-1)[..., -1]


def _intersection_volumes(a: tuple, b: tuple) -> np.ndarray:
    """Exact intersection volume of each box pair (a[k], b[k]).

    a and b are (centers (P, 3), rotations (P, 3, 3), half extents (P, 3) along
    local x, y, z). The polytope's vertices are the points of the 160 plane
    triples inside all 12 planes; its volume is the sum of face area x height / 3
    about an interior point, each area a shoelace sum over vertices by angle.
    """
    axes = np.concatenate([a[1], b[1]], axis=2).transpose(0, 2, 1)
    half = np.concatenate([a[2], b[2]], axis=1)
    # Each box's center along each axis, with the origin at a's center.
    proj = np.concatenate([np.zeros_like(a[2]), _dot(axes[:, 3:], (b[0] - a[0])[:, None])], axis=1)

    # Of two parallel planes facing the same way, one per box, the outer one
    # (b's on a tie) bounds nothing and is dropped: its face would repeat.
    normals = axes[:, _PLANE_AXIS] * _PLANE_SIGN[:, None]
    offsets = _PLANE_SIGN * proj[:, _PLANE_AXIS] + half[:, _PLANE_AXIS]
    aligned = np.all(np.abs(normals[:, :6, None] - normals[:, None, 6:]) <= _PARALLEL_EPS, axis=3)
    b_outer = offsets[:, None, 6:] >= offsets[:, :6, None]
    redundant = np.hstack([np.any(aligned & ~b_outer, axis=2), np.any(aligned & b_outer, axis=1)])

    # Cramer's rule for axis_i . x = proj_i + sign_i half_i, then in box frames.
    triple = axes[:, _TRIPLE_AXES]
    cofactors = np.cross(triple[:, :, [1, 2, 0]], triple[:, :, [2, 0, 1]])
    det = _dot(triple[:, :, 0], cofactors[:, :, 0])
    solvable = np.abs(det) > _PARALLEL_EPS
    level = proj[:, _TRIPLE_AXES[:, None]] + _TRIPLE_SIGNS * half[:, _TRIPLE_AXES[:, None]]
    points = _dot(level[..., None, :], cofactors.swapaxes(2, 3)[:, :, None])
    points = (points / np.where(solvable, det, 1.0)[..., None, None]).reshape(len(axes), -1, 3)
    coords = _dot(axes[:, :, None], points[:, None]) - proj[..., None]
    usable = np.repeat(solvable, len(_TRIPLE_SIGNS), axis=1) & ~np.any(redundant[:, _VERTEX_PLANES], 2)
    feasible = usable & np.all(np.abs(coords) <= half[..., None] + _PLANE_EPS, axis=1)

    # Face vertices in the two axes spanning the face, about their centroid,
    # ordered by angle; padding with the first vertex adds zero-length edges.
    member = feasible[:, None, _FACE_VERTICES]
    uv = np.where(member, coords[:, _FACE_UV, _FACE_VERTICES], 0.0)
    uv -= _sum(uv)[..., None] / np.maximum(np.count_nonzero(member, axis=3), 1)[..., None]
    angle = np.where(member[:, 0], np.arctan2(uv[:, 1], uv[:, 0]), np.inf)
    order = np.argsort(angle, axis=2, kind="stable")[:, None]
    uv, member = np.take_along_axis(uv, order, axis=3), np.take_along_axis(member, order, axis=3)
    x, y = np.where(member, uv, uv[..., :1]).transpose(1, 0, 2, 3)
    area = 0.5 * _sum(x * y[..., _NEXT] - x[..., _NEXT] * y)

    # Face heights above the mean of the vertices, an interior point.
    inner = _sum(np.where(feasible[:, None], coords, 0.0))
    inner /= np.maximum(np.count_nonzero(feasible, axis=1), 1)[:, None]
    height = half[:, _PLANE_AXIS] - _PLANE_SIGN * inner[:, _PLANE_AXIS]
    return _sum(area * height) / 3.0


def _box_arrays(boxes: Sequence[Box3D]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, rotations, half extents along local x, y, z) of boxes."""
    centers = np.array([box.center for box in boxes])
    rotations = np.array([rotation_from_euler(box.orientation) for box in boxes])
    return centers, rotations, np.array([(b.width, b.height, b.length) for b in boxes]) * 0.5


def intersection_volume(a: Box3D, b: Box3D) -> float:
    """Exact volume of the intersection of two oriented boxes: a one-pair kernel call."""
    inter = float(_intersection_volumes(_box_arrays([a]), _box_arrays([b]))[0])
    return min(max(inter, 0.0), min(a.volume, b.volume))


def iou3d(a: Box3D, b: Box3D) -> float:
    """3D intersection over union of two boxes, symmetric in its arguments."""
    return float(iou3d_matrix([a], [b])[0, 0])


def iou3d_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D]) -> np.ndarray:
    """IoU of every pair, shape (len(boxes_a), len(boxes_b)).

    Pairs whose axis-aligned bounds are disjoint are rejected for all pairs
    at once and read exactly 0.0. The others go through the intersection
    kernel, each in a canonical argument order, so entry (i, j) equals
    iou3d(boxes_a[i], boxes_b[j]) bit for bit and swapping the lists
    transposes the matrix exactly.
    """
    n = len(boxes_a)
    out = np.zeros((n, len(boxes_b)))
    if out.size == 0:
        return out
    boxes = [*boxes_a, *boxes_b]
    params = centers, rotations, halves = _box_arrays(boxes)
    extent = _dot(np.abs(rotations), halves[:, None])
    lo, hi = centers - extent, centers + extent
    disjoint = np.any(lo[:n, None] > hi[None, n:], axis=2) | np.any(lo[None, n:] > hi[:n, None], axis=2)
    rows, cols = np.nonzero(~disjoint)
    swap = np.array([boxes_b[j]._sort_key() < boxes_a[i]._sort_key() for i, j in zip(rows, cols)])
    first, second = np.where(swap, cols + n, rows), np.where(swap, rows, cols + n)
    volumes = np.array([box.volume for box in boxes])
    for k in range(0, rows.size, _BATCH):
        f, s = first[k : k + _BATCH], second[k : k + _BATCH]
        inter = _intersection_volumes(tuple(p[f] for p in params), tuple(p[s] for p in params))
        inter = np.minimum(np.maximum(inter, 0.0), np.minimum(volumes[f], volumes[s]))
        iou = inter / (volumes[f] + volumes[s] - inter)
        out[rows[k : k + _BATCH], cols[k : k + _BATCH]] = np.clip(iou, 0.0, 1.0)
    return out
