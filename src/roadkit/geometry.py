"""9-DOF oriented boxes, rotation algebra, and exact 3D box intersection.

Conventions (normative for the whole toolkit):

* Camera axes: x right, y down, z forward.
* Euler angles compose intrinsically as R = R_y(yaw) @ R_x(pitch) @ R_z(roll).
* Box local axes: width w along local x, height h along local y, length l
  along local z (forward). Dimensions are stored in (h, w, l) order.
* Angles are normalized to the canonical range (-pi, pi] on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

TAU = 2.0 * math.pi

# Vertices closer than this to a clipping plane are treated as on-plane.
CLIP_EPS = 1e-9


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


# Face cycles over the corner ordering of box_corners.
_BOX_FACES = (
    (0, 1, 3, 2),  # +x
    (4, 5, 7, 6),  # -x
    (0, 1, 5, 4),  # +y
    (2, 3, 7, 6),  # -y
    (0, 2, 6, 4),  # +z
    (1, 3, 7, 5),  # -z
)


def _newell_normal(poly: np.ndarray) -> np.ndarray:
    nxt = np.roll(poly, -1, axis=0)
    return np.array(
        [
            np.sum((poly[:, 1] - nxt[:, 1]) * (poly[:, 2] + nxt[:, 2])),
            np.sum((poly[:, 2] - nxt[:, 2]) * (poly[:, 0] + nxt[:, 0])),
            np.sum((poly[:, 0] - nxt[:, 0]) * (poly[:, 1] + nxt[:, 1])),
        ]
    )


def _dedupe_points(points: np.ndarray, eps: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= eps for q in kept):
            kept.append(p)
    return np.asarray(kept)


def _order_cap(points: np.ndarray, normal: np.ndarray) -> np.ndarray | None:
    """Order coplanar points into a convex cycle around their centroid."""
    pts = _dedupe_points(points, 10.0 * CLIP_EPS)
    if len(pts) < 3:
        return None
    n = normal / np.linalg.norm(normal)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(n[0]) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    u = np.cross(n, seed)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    angles = np.arctan2(rel @ v, rel @ u)
    return pts[np.argsort(angles)]


@dataclass(frozen=True)
class ConvexPolytope:
    """Convex polytope as vertices plus face index cycles."""

    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]

    @classmethod
    def from_box(cls, box: Box3D) -> "ConvexPolytope":
        return cls(vertices=box_corners(box), faces=_BOX_FACES)

    @classmethod
    def _from_face_points(cls, face_points: Sequence[np.ndarray]) -> "ConvexPolytope":
        verts: list[np.ndarray] = []
        index: dict[tuple, int] = {}
        faces = []
        for poly in face_points:
            cycle = []
            for p in poly:
                key = tuple(np.round(p, 9))
                i = index.get(key)
                if i is None:
                    i = len(verts)
                    index[key] = i
                    verts.append(np.asarray(p, dtype=float))
                cycle.append(i)
            faces.append(tuple(cycle))
        return cls(vertices=np.asarray(verts), faces=tuple(faces))

    def _face_points(self) -> list[np.ndarray]:
        return [self.vertices[list(f)] for f in self.faces]

    def validate(self, planarity_tol: float = 1e-7) -> None:
        """Check face planarity, convexity, and nonnegative volume."""
        centroid = self.vertices.mean(axis=0)
        for face, poly in zip(self.faces, self._face_points()):
            if len(poly) < 3:
                raise ValidationError(f"face {face} has fewer than 3 vertices")
            n = _newell_normal(poly)
            norm = np.linalg.norm(n)
            if norm < 1e-16:
                continue  # degenerate sliver; contributes no volume
            nh = n / norm
            offsets = (poly - poly[0]) @ nh
            if np.max(np.abs(offsets)) > planarity_tol:
                raise ValidationError(f"face {face} is not planar within {planarity_tol}")
            if float(nh @ (poly.mean(axis=0) - centroid)) < 0.0:
                nh = -nh
            support = (self.vertices - poly[0]) @ nh
            if np.max(support) > planarity_tol:
                raise ValidationError("polytope is not convex: vertex outside a face plane")
        if self.volume() < -planarity_tol:
            raise ValidationError("polytope volume is negative")

    def clip_halfspace(
        self, point: np.ndarray, normal: np.ndarray
    ) -> "ConvexPolytope | None":
        """Clip against {x : normal . (x - point) <= 0}; None when empty."""
        point = np.asarray(point, dtype=float)
        normal = np.asarray(normal, dtype=float)
        new_faces: list[np.ndarray] = []
        cap: list[np.ndarray] = []
        face_on_plane = False
        for poly in self._face_points():
            dist = (poly - point) @ normal
            if np.all(np.abs(dist) <= CLIP_EPS):
                # The plane supports this face; the boundary is already
                # represented, so no cap face must be added.
                face_on_plane = True
            kept: list[np.ndarray] = []
            m = len(poly)
            for i in range(m):
                j = (i + 1) % m
                di, dj = dist[i], dist[j]
                if di <= CLIP_EPS:
                    kept.append(poly[i])
                    if abs(di) <= CLIP_EPS:
                        cap.append(poly[i])
                if (di > CLIP_EPS and dj < -CLIP_EPS) or (di < -CLIP_EPS and dj > CLIP_EPS):
                    t = di / (di - dj)
                    q = poly[i] + t * (poly[j] - poly[i])
                    kept.append(q)
                    cap.append(q)
            if len(kept) >= 3:
                new_faces.append(np.asarray(kept))
        if len(cap) >= 3 and not face_on_plane:
            cap_face = _order_cap(np.asarray(cap), normal)
            if cap_face is not None:
                new_faces.append(cap_face)
        if not new_faces:
            return None
        return ConvexPolytope._from_face_points(new_faces)

    def volume(self) -> float:
        """Enclosed volume via the divergence theorem over outward faces."""
        centroid = self.vertices.mean(axis=0)
        total = 0.0
        for poly in self._face_points():
            n = _newell_normal(poly)
            area2 = np.linalg.norm(n)
            if area2 < 1e-16:
                continue
            nh = n / area2
            face_center = poly.mean(axis=0)
            if float(nh @ (face_center - centroid)) < 0.0:
                nh = -nh
            total += float(nh @ face_center) * area2 * 0.5
        return total / 3.0


def intersection_volume(a: Box3D, b: Box3D) -> float:
    """Exact volume of the intersection of two oriented boxes.

    Box a's polytope is clipped successively against box b's six face
    half-spaces; the surviving cell's volume comes from the divergence
    theorem. Touching contact yields 0 within CLIP_EPS.
    """
    ca, cb = box_corners(a), box_corners(b)
    # Disjoint axis-aligned bounds cannot intersect; skip the clipping work.
    if np.any(ca.min(axis=0) > cb.max(axis=0)) or np.any(cb.min(axis=0) > ca.max(axis=0)):
        return 0.0
    poly: ConvexPolytope | None = ConvexPolytope.from_box(a)
    rot = rotation_from_euler(b.orientation)
    center = np.asarray(b.center)
    h, w, l = b.dims
    half_extents = (w * 0.5, h * 0.5, l * 0.5)  # local x, y, z
    for axis in range(3):
        n = rot[:, axis]
        for sign in (1.0, -1.0):
            poly = poly.clip_halfspace(center + sign * half_extents[axis] * n, sign * n)
            if poly is None:
                return 0.0
    vol = poly.volume()
    return min(max(vol, 0.0), min(a.volume, b.volume))


def iou3d(a: Box3D, b: Box3D) -> float:
    """3D intersection over union of two boxes, symmetric in its arguments."""
    # Canonical argument order forces an identical code path for (a, b) and
    # (b, a), making the symmetry exact.
    if b._sort_key() < a._sort_key():
        a, b = b, a
    inter = intersection_volume(a, b)
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def iou3d_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D]) -> np.ndarray:
    """IoU of every pair, shape (len(boxes_a), len(boxes_b)).

    Entry (i, j) equals iou3d(boxes_a[i], boxes_b[j]) bit for bit. Pairs
    whose axis-aligned bounds are disjoint (the test intersection_volume
    applies) are rejected for all pairs at once and read exactly 0.0; only
    the survivors go through iou3d.
    """
    out = np.zeros((len(boxes_a), len(boxes_b)))
    if out.size == 0:
        return out
    corners_a = np.stack([box_corners(box) for box in boxes_a])
    corners_b = np.stack([box_corners(box) for box in boxes_b])
    lo_a, hi_a = corners_a.min(axis=1), corners_a.max(axis=1)
    lo_b, hi_b = corners_b.min(axis=1), corners_b.max(axis=1)
    disjoint = np.any(lo_a[:, None, :] > hi_b[None, :, :], axis=2) | np.any(
        lo_b[None, :, :] > hi_a[:, None, :], axis=2
    )
    for i, j in zip(*np.nonzero(~disjoint)):
        out[i, j] = iou3d(boxes_a[i], boxes_b[j])
    return out
