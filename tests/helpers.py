"""Shared test utilities: random inputs and independent oracle computations.

Everything here is deliberately written from scratch against the documented
rules rather than reusing the library's own pipeline code, so tests compare
two independent routes to the same answer.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from roadkit import synth
from roadkit.camera import BEHIND_CAMERA_EPS, Intrinsics, ProjectedBox, RigidTransform
from roadkit.errors import FrameMismatchError, GenerationError, ParseError, ValidationError
from roadkit.evaluation import MatchResult
from roadkit.formats import (
    AnnotationRecord,
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    Occlusion,
    _annotation_from_dict,
)
from roadkit.geometry import (
    _PARALLEL_EPS,
    _PLANE_AXIS,
    _PLANE_EPS,
    _PLANE_SIGN,
    TAU,
    Box3D,
    EulerOrientation,
    box_corners,
    euler_from_rotation,
    iou3d,
    _dot,
)


def random_orientation(rng: np.random.Generator) -> EulerOrientation:
    yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
    return EulerOrientation(yaw, pitch, roll)


def random_box(
    rng: np.random.Generator,
    center_spread: float = 1.5,
    dim_range: tuple[float, float] = (0.5, 3.0),
) -> Box3D:
    return Box3D(
        center=tuple(rng.uniform(-center_spread, center_spread, 3)),
        dims=tuple(rng.uniform(dim_range[0], dim_range[1], 3)),
        orientation=random_orientation(rng),
    )


def point_in_box_mask(box: Box3D, points: np.ndarray) -> np.ndarray:
    rot = reference_rotation_from_euler(box.orientation)
    local = (points - np.asarray(box.center)) @ rot
    h, w, l = box.dims
    half = np.array([w, h, l]) / 2.0
    inside = np.abs(local) <= half
    return inside[:, 0] & inside[:, 1] & inside[:, 2]


def monte_carlo_intersection(
    a: Box3D, b: Box3D, n_samples: int, rng: np.random.Generator, chunk: int = 1 << 20
) -> float:
    """Uniform-sampling volume estimate over the overlap of the two AABBs."""
    ca, cb = box_corners(a), box_corners(b)
    lo = np.maximum(ca.min(axis=0), cb.min(axis=0))
    hi = np.minimum(ca.max(axis=0), cb.max(axis=0))
    if np.any(hi <= lo):
        return 0.0
    region = float(np.prod(hi - lo))
    hits = 0
    remaining = n_samples
    while remaining > 0:
        m = min(remaining, chunk)
        # The draws and the values of rng.uniform(lo, hi, (m, 3)), in place.
        pts = rng.random((m, 3))
        pts *= hi - lo
        pts += lo
        # Only the points inside a can be inside both.
        hits += int(np.count_nonzero(point_in_box_mask(b, pts[point_in_box_mask(a, pts)])))
        remaining -= m
    return hits / n_samples * region


# ---------------------------------------------------------------------------
# Reference box intersection: box a's polytope clipped by box b's half-spaces,
# a route independent of the library's batched plane-triple kernel.

# Vertices closer than this to a clipping plane are treated as on-plane.
CLIP_EPS = 1e-9


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
        dist = (self.vertices - point) @ normal
        if np.all(dist >= -CLIP_EPS):
            # Nothing lies strictly inside: what is left is empty or flat, and
            # a flat remnant is not a closed surface that volume() can measure.
            return None
        if np.all(dist <= CLIP_EPS):
            return self  # nothing lies strictly outside
        new_faces: list[np.ndarray] = []
        cap: list[np.ndarray] = []
        for poly in self._face_points():
            dist = (poly - point) @ normal
            if np.all(dist >= -CLIP_EPS):
                # Nothing of this face lies strictly inside: it is cut away,
                # or it lies in the plane, where the cap stands for it.
                cap.extend(poly[np.abs(dist) <= CLIP_EPS])
                continue
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
        if len(cap) >= 3:
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


def reference_intersection_volume(a: Box3D, b: Box3D) -> float:
    """Exact volume of the intersection of two oriented boxes, by clipping.

    Box a's polytope is clipped successively against box b's six face
    half-spaces; the surviving cell's volume comes from the divergence
    theorem. Touching contact yields 0 within CLIP_EPS.
    """
    ca, cb = box_corners(a), box_corners(b)
    # Disjoint axis-aligned bounds cannot intersect; skip the clipping work.
    if np.any(ca.min(axis=0) > cb.max(axis=0)) or np.any(cb.min(axis=0) > ca.max(axis=0)):
        return 0.0
    poly: ConvexPolytope | None = ConvexPolytope.from_box(a)
    rot = reference_rotation_from_euler(b.orientation)
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


# The plane-triple kernel's tables. Plane k of a pair faces along axis k // 2
# of the six box axes (a's, then b's); a candidate vertex is one of the 160
# triples of planes that hold no parallel pair from one box.
_TRIPLE_AXES = np.array(list(itertools.combinations(range(6), 3)))
_TRIPLE_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_TRIPLE_VERTEX_PLANES = (2 * _TRIPLE_AXES[:, None] + (_TRIPLE_SIGNS < 0)).reshape(-1, 3)
_TRIPLE_FACE_VERTICES = np.array(
    [np.flatnonzero(np.any(_TRIPLE_VERTEX_PLANES == k, axis=1)) for k in range(12)]
)
_TRIPLE_FACE_UV = np.stack([_PLANE_AXIS // 3 * 3 + (_PLANE_AXIS + k) % 3 for k in (1, 2)])[..., None]


def _cumsum_total(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x, axis=-1)[..., -1]


def _triple_planes(a: tuple, b: tuple):
    """The plane-triple stage shared by the two kernels below.

    Returns each vertex's coordinates along the six box axes (P, 6, 160), its
    feasibility (P, 160), and the half extents (P, 6).
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
    usable = np.repeat(solvable, len(_TRIPLE_SIGNS), axis=1) & ~np.any(redundant[:, _TRIPLE_VERTEX_PLANES], 2)
    feasible = usable & np.all(np.abs(coords) <= half[..., None] + _PLANE_EPS, axis=1)
    return coords, feasible, half


def triple_intersection_volumes(a: tuple, b: tuple) -> np.ndarray:
    """The batched kernel before its candidates were found in closed form.

    Same arguments as roadkit.geometry's _intersection_volumes. Every one of
    the 160 plane triples is solved by Cramer's rule in world axes and moved
    into the box frames; each face keeps its vertices first, in candidate
    order, in as many slots as the widest face of the batch holds; heights
    are taken above the mean of all vertices.
    """
    coords, feasible, half = _triple_planes(a, b)
    member = feasible[:, _TRIPLE_FACE_VERTICES]
    width = max(int(np.count_nonzero(member, axis=2).max(initial=0)), 1)
    slot = np.argsort(~member, axis=2, kind="stable")[..., :width]
    member = np.take_along_axis(member, slot, axis=2)[:, None]
    vertex = _TRIPLE_FACE_VERTICES[np.arange(12)[:, None], slot][:, None]
    uv = np.where(member, coords[np.arange(len(coords))[:, None, None, None], _TRIPLE_FACE_UV, vertex], 0.0)
    return _face_areas(uv, member, width, coords, feasible, half)


def padded_intersection_volumes(a: tuple, b: tuple) -> np.ndarray:
    """triple_intersection_volumes as it was before its face stage was compacted.

    Each of the 12 faces keeps all 40 candidate slots through the centroid,
    angle sort and shoelace sum. triple_intersection_volumes must give the
    same bits.
    """
    coords, feasible, half = _triple_planes(a, b)
    member = feasible[:, None, _TRIPLE_FACE_VERTICES]
    uv = np.where(member, coords[:, _TRIPLE_FACE_UV, _TRIPLE_FACE_VERTICES], 0.0)
    return _face_areas(uv, member, _TRIPLE_FACE_VERTICES.shape[1], coords, feasible, half)


def _face_areas(uv, member, width, coords, feasible, half):
    """The face stage and volume of the two kernels above, given each face's
    vertex coordinates (P, 2, 12, width) and membership (P, 1, 12, width)."""
    # Face vertices in the two axes spanning the face, about their centroid,
    # ordered by angle; padding with the first vertex adds zero-length edges.
    uv = uv - _cumsum_total(uv)[..., None] / np.maximum(np.count_nonzero(member, axis=3), 1)[..., None]
    angle = np.where(member[:, 0], np.arctan2(uv[:, 1], uv[:, 0]), np.inf)
    order = np.argsort(angle, axis=2, kind="stable")[:, None]
    uv, member = np.take_along_axis(uv, order, axis=3), np.take_along_axis(member, order, axis=3)
    x, y = np.where(member, uv, uv[..., :1]).transpose(1, 0, 2, 3)
    following = np.roll(np.arange(width), -1)
    area = 0.5 * _cumsum_total(x * y[..., following] - x[..., following] * y)
    # Face heights above the mean of the vertices, an interior point.
    inner = _cumsum_total(np.where(feasible[:, None], coords, 0.0))
    inner /= np.maximum(np.count_nonzero(feasible, axis=1), 1)[:, None]
    height = half[:, _PLANE_AXIS] - _PLANE_SIGN * inner[:, _PLANE_AXIS]
    return _cumsum_total(area * height) / 3.0


# ---------------------------------------------------------------------------
# Reference rotation builder and check, one 2-D matrix at a time: three
# factor matrices and their product, and m.T @ m and det(m) of one matrix.

def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def reference_rotation_from_euler(orientation: EulerOrientation) -> np.ndarray:
    """rotation_from_euler as the 2-D product R_y(yaw) @ R_x(pitch) @ R_z(roll)."""
    return rot_y(orientation.yaw) @ rot_x(orientation.pitch) @ rot_z(orientation.roll)


def reference_validate_rotation(matrix: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """validate_rotation with its checks and messages written out for one matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"rotation matrix must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("rotation matrix holds non-finite entries")
    if np.abs(m.T @ m - np.eye(3)).max() > tol:
        raise ValidationError("rotation matrix is not orthonormal")
    if abs(np.linalg.det(m) - 1.0) > tol:
        raise ValidationError("rotation matrix determinant is not +1")
    return m


# ---------------------------------------------------------------------------
# Brute-force PR/AP oracle over the documented matching and difficulty rules.

_DIFFICULTY_TABLE = (
    ("easy", 0, 0.15, 40.0),
    ("moderate", 1, 0.30, 25.0),
    ("hard", 2, 0.50, 25.0),
)


def oracle_difficulty(annotation: AnnotationRecord) -> str:
    height = math.inf
    if annotation.box2d is not None:
        height = max(annotation.box2d[3] - annotation.box2d[1], 0.0)
    for name, max_occ, max_trunc, min_height in _DIFFICULTY_TABLE:
        if (
            int(annotation.occlusion) <= max_occ
            and annotation.truncation <= max_trunc
            and height >= min_height
        ):
            return name
    return "ignored"


_LEVEL_ORDER = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}


def _oracle_match_counts(frames, top_dets_by_frame, class_name, level, threshold, iou_of):
    """Greedy matching per frame restricted to a detection subset; quadratic."""
    tp = fp = 0
    for frame in frames:
        gts = [g for g in frame.annotations if g.class_name == class_name]
        eligible = [g for g in gts if _LEVEL_ORDER[oracle_difficulty(g)] <= _LEVEL_ORDER[level]]
        dontcare = [g for g in gts if _LEVEL_ORDER[oracle_difficulty(g)] > _LEVEL_ORDER[level]]
        dets = [d for d in top_dets_by_frame.get(frame.frame_id, []) if d.class_name == class_name]
        dets = sorted(dets, key=lambda d: -d.score)
        taken = [False] * len(eligible)
        for det in dets:
            best = -1
            best_iou = 0.0
            for gi, gt in enumerate(eligible):
                if taken[gi]:
                    continue
                overlap = iou_of(gt, det)
                if overlap >= threshold and overlap > best_iou:
                    best, best_iou = gi, overlap
            if best >= 0:
                taken[best] = True
                tp += 1
            elif any(iou_of(gt, det) >= threshold for gt in dontcare):
                pass  # don't-care overlap: neither TP nor FP
            else:
                fp += 1
    return tp, fp


def oracle_evaluate(manifest, detections_by_frame, iou_threshold=0.5, interpolation="r40"):
    """Exhaustive per-rank PR/AP recomputation; returns {class: {level: ap}}."""
    frames = sorted(manifest.frames, key=lambda f: f.frame_id)
    iou_cache: dict[tuple[int, int], float] = {}

    def iou_of(gt, det):
        key = (id(gt), id(det))
        if key not in iou_cache:
            iou_cache[key] = iou3d(gt.box3d, det.box3d)
        return iou_cache[key]

    results: dict[str, dict[str, float]] = {}
    for class_name in manifest.class_taxonomy:
        results[class_name] = {}
        pooled = []
        for frame in frames:
            for det in detections_by_frame.get(frame.frame_id, []):
                if det.class_name == class_name:
                    pooled.append(det)
        pooled.sort(key=lambda d: -d.score)
        for level, _, _, _ in _DIFFICULTY_TABLE:
            npos = 0
            for frame in frames:
                for gt in frame.annotations:
                    if gt.class_name == class_name and (
                        _LEVEL_ORDER[oracle_difficulty(gt)] <= _LEVEL_ORDER[level]
                    ):
                        npos += 1
            if npos == 0:
                results[class_name][level] = 0.0
                continue
            points = []
            for k in range(1, len(pooled) + 1):
                top = pooled[:k]
                by_frame: dict[str, list] = {}
                for det in top:
                    by_frame.setdefault(det.frame_id, []).append(det)
                tp, fp = _oracle_match_counts(
                    frames, by_frame, class_name, level, iou_threshold, iou_of
                )
                if tp + fp == 0:
                    continue
                points.append((tp / npos, tp / (tp + fp)))
            if interpolation == "r40":
                samples = [k / 40 for k in range(1, 41)]
            else:
                samples = [k / 10 for k in range(0, 11)]
            precisions = []
            for r in samples:
                best = 0.0
                for recall, precision in points:
                    if recall >= r and precision > best:
                        best = precision
                precisions.append(best)
            results[class_name][level] = sum(precisions) / len(samples) * 100.0
    return results


def reference_match_frame(gts, dets, iou_threshold, class_name=None, ignored_gt=None):
    """Per-pair greedy matching with the documented rules of match_frame.

    Calls iou3d on each (gt, det) pair as the loops reach it, with no shared
    IoU matrix, so it checks the library's matrix-based matching by a
    second route. Returns a MatchResult.
    """
    ignored_gt = frozenset(ignored_gt or ())
    gt_eligible = [
        i
        for i, g in enumerate(gts)
        if (class_name is None or g.class_name == class_name) and i not in ignored_gt
    ]
    gt_dontcare = [
        i
        for i, g in enumerate(gts)
        if (class_name is None or g.class_name == class_name) and i in ignored_gt
    ]
    det_order = sorted(
        (i for i, d in enumerate(dets) if class_name is None or d.class_name == class_name),
        key=lambda i: -dets[i].score,
    )
    matched_gt: set[int] = set()
    pairs = []
    false_pos = []
    ignored_det = []
    for di in det_order:
        best_iou = 0.0
        best_gt = None
        for gi in gt_eligible:
            if gi in matched_gt:
                continue
            overlap = iou3d(gts[gi].box3d, dets[di].box3d)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou = overlap
                best_gt = gi
        if best_gt is not None:
            matched_gt.add(best_gt)
            pairs.append((best_gt, di, best_iou))
            continue
        if any(iou3d(gts[gi].box3d, dets[di].box3d) >= iou_threshold for gi in gt_dontcare):
            ignored_det.append(di)
        else:
            false_pos.append(di)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_gt=tuple(i for i in gt_eligible if i not in matched_gt),
        unmatched_det=tuple(false_pos),
        ignored_det=tuple(ignored_det),
    )


def make_annotation(
    class_name="Car",
    center=(0.0, 1.0, 20.0),
    dims=(1.5, 1.8, 4.2),
    yaw=0.0,
    pitch=0.0,
    roll=0.0,
    truncation=0.0,
    occlusion=Occlusion.FULLY_VISIBLE,
    box2d=None,
    frame_id="f0",
) -> AnnotationRecord:
    return AnnotationRecord(
        class_name=class_name,
        truncation=truncation,
        occlusion=occlusion,
        box2d=box2d,
        box3d=Box3D(center=center, dims=dims, orientation=EulerOrientation(yaw, pitch, roll)),
        frame_id=frame_id,
    )


def make_detection(score=1.0, **kwargs) -> DetectionRecord:
    ann = make_annotation(**kwargs)
    return DetectionRecord(
        class_name=ann.class_name,
        truncation=ann.truncation,
        occlusion=ann.occlusion,
        box2d=ann.box2d,
        box3d=ann.box3d,
        frame_id=ann.frame_id,
        score=score,
    )


def reference_copy_record(record: AnnotationRecord, frame_id: str, class_name: str | None = None) -> AnnotationRecord:
    """A record with a new frame_id (and class_name) through a JSON object
    round trip: the record as the manifest schema writes it, loaded again."""
    box = record.box3d
    obj = {
        "class_name": record.class_name if class_name is None else class_name,
        "truncation": record.truncation,
        "occlusion": int(record.occlusion),
        "box2d": list(record.box2d) if record.box2d is not None else None,
        "box3d": {
            "center": list(box.center),
            "dims": list(box.dims),
            "yaw": box.orientation.yaw,
            "pitch": box.orientation.pitch,
            "roll": box.orientation.roll,
        },
    }
    if isinstance(record, DetectionRecord):
        obj["score"] = record.score
    return _annotation_from_dict(obj, frame_id)


def reference_dump_manifest(manifest: DatasetManifest) -> str:
    """The manifest document through json.dumps(indent=2, sort_keys=True)."""
    frames = []
    for frame in manifest.frames:
        annotations = []
        for record in frame.annotations:
            box = record.box3d
            obj = {
                "class_name": record.class_name,
                "truncation": record.truncation,
                "occlusion": int(record.occlusion),
                "box2d": list(record.box2d) if record.box2d is not None else None,
                "box3d": {
                    "center": list(box.center),
                    "dims": list(box.dims),
                    "yaw": box.orientation.yaw,
                    "pitch": box.orientation.pitch,
                    "roll": box.orientation.roll,
                },
            }
            if isinstance(record, DetectionRecord):
                obj["score"] = record.score
            annotations.append(obj)
        fobj = {
            "frame_id": frame.frame_id,
            "image_path": frame.image_path,
            "image_size": list(frame.image_size),
            "calibration_ref": frame.calibration_ref,
            "annotations": annotations,
        }
        if frame.tags:
            fobj["tags"] = dict(frame.tags)
        frames.append(fobj)
    doc = {
        "name": manifest.name,
        "class_taxonomy": list(manifest.class_taxonomy),
        "frames": frames,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _fmt6g(value) -> str:
    return format(float(value), ".6g")


def reference_kitti_line(record: AnnotationRecord) -> str:
    """One kitti_ext line, each number through format(float(v), ".6g")."""
    box = record.box3d
    x, y, z = box.center
    yaw = box.orientation.yaw
    alpha = float(_fmt6g(yaw)) - math.atan2(float(_fmt6g(x)), float(_fmt6g(z)))
    rect = record.box2d if record.box2d is not None else (-1.0, -1.0, -1.0, -1.0)
    tokens = [
        record.class_name,
        _fmt6g(record.truncation),
        str(int(record.occlusion)),
        _fmt6g(alpha),
        *(_fmt6g(v) for v in rect),
        *(_fmt6g(v) for v in box.dims),
        *(_fmt6g(v) for v in box.center),
        _fmt6g(yaw),
        _fmt6g(box.orientation.pitch),
        _fmt6g(box.orientation.roll),
    ]
    if isinstance(record, DetectionRecord):
        tokens.append(_fmt6g(record.score))
    return " ".join(tokens)


def reference_normalize_angle(angle: float) -> float:
    """normalize_angle through math.remainder for every finite angle."""
    if not math.isfinite(angle):
        raise ValidationError(f"angle must be finite, got {angle!r}")
    r = math.remainder(angle, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def _reference_euler(matrix: np.ndarray) -> EulerOrientation:
    """euler_from_rotation, indexing the validated ndarray per entry."""
    m = reference_validate_rotation(matrix)
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


def reference_transform_box(
    extrinsics: RigidTransform, box: Box3D, box_frame: str | None = None
) -> Box3D:
    """transform_box one box at a time: apply, a 3x3 product, validate, decompose."""
    if box_frame is not None and box_frame != extrinsics.source_frame:
        raise FrameMismatchError(
            f"box frame {box_frame!r} does not match transform source "
            f"{extrinsics.source_frame!r}"
        )
    center = extrinsics.apply(np.asarray(box.center))
    rot = extrinsics.rotation @ reference_rotation_from_euler(box.orientation)
    return Box3D(center=tuple(center), dims=box.dims, orientation=_reference_euler(rot))


_KITTI_FIELDS = (
    "class", "truncation", "occlusion", "alpha",
    "x1", "y1", "x2", "y2",
    "h", "w", "l", "x", "y", "z", "yaw",
)


def _parse_float(token: str, line_no: int, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token!r} as a number", line=line_no, field=name)
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line_no, field=name)
    return value


def reference_parse_kitti_line(line: str, line_no: int) -> AnnotationRecord:
    """One kitti_ext line, each column parsed and checked in turn."""
    tokens = line.split()
    if len(tokens) not in (15, 16, 17, 18):
        raise ParseError(
            f"expected 15-18 columns, got {len(tokens)}", line=line_no, field=None
        )
    class_name = tokens[0]
    truncation = _parse_float(tokens[1], line_no, "truncation")
    if not (0.0 <= truncation <= 1.0):
        raise ValidationError(f"truncation {truncation} out of [0, 1] (line {line_no})")
    occlusion_value = _parse_float(tokens[2], line_no, "occlusion")
    if not occlusion_value.is_integer():
        raise ParseError(
            f"occlusion {tokens[2]!r} is not an integer", line=line_no, field="occlusion"
        )
    try:
        occlusion = Occlusion(int(occlusion_value))
    except ValueError:
        raise ValidationError(f"occlusion {tokens[2]!r} out of range 0-3 (line {line_no})")
    _parse_float(tokens[3], line_no, "alpha")  # observation angle; not retained
    rect = tuple(
        _parse_float(tokens[4 + i], line_no, _KITTI_FIELDS[4 + i]) for i in range(4)
    )
    box2d = None if all(v == -1.0 for v in rect) else rect
    h = _parse_float(tokens[8], line_no, "h")
    w = _parse_float(tokens[9], line_no, "w")
    l = _parse_float(tokens[10], line_no, "l")
    x = _parse_float(tokens[11], line_no, "x")
    y = _parse_float(tokens[12], line_no, "y")
    z = _parse_float(tokens[13], line_no, "z")
    yaw = _parse_float(tokens[14], line_no, "yaw")
    pitch = roll = 0.0
    score = None
    rest = tokens[15:]
    if len(rest) == 1:
        score = _parse_float(rest[0], line_no, "score")
    elif len(rest) >= 2:
        pitch = _parse_float(rest[0], line_no, "pitch")
        roll = _parse_float(rest[1], line_no, "roll")
        if len(rest) == 3:
            score = _parse_float(rest[2], line_no, "score")
    try:
        box3d = Box3D(center=(x, y, z), dims=(h, w, l), orientation=EulerOrientation(yaw, pitch, roll))
    except ValidationError as exc:
        raise ValidationError(f"{exc} (line {line_no})") from exc
    kwargs = dict(
        class_name=class_name,
        truncation=truncation,
        occlusion=occlusion,
        box2d=box2d,
        box3d=box3d,
    )
    if score is None:
        return AnnotationRecord(**kwargs)
    return DetectionRecord(score=score, **kwargs)


_CORNER_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def reference_box_corners(box: Box3D) -> np.ndarray:
    """box_corners of one box: signed half extents through its rebuilt rotation."""
    h, w, l = box.dims
    local = _CORNER_SIGNS * (np.array([w, h, l]) * 0.5)
    rot = reference_rotation_from_euler(box.orientation)
    return np.asarray(box.center) + local @ rot.T


def reference_project_box(
    intrinsics: Intrinsics, box: Box3D, extrinsics: RigidTransform | None = None
) -> ProjectedBox:
    """project_box one box at a time, projecting only the corners ahead of the camera."""
    corners = reference_box_corners(box)
    cam = extrinsics.apply(corners) if extrinsics is not None else corners
    front = cam[cam[:, 2] > BEHIND_CAMERA_EPS]
    if len(front) == 0:
        return ProjectedBox(rect=None, visible=False)
    uv = (front @ intrinsics.matrix.T) / front[:, 2:3]
    x1, y1 = float(uv[:, 0].min()), float(uv[:, 1].min())
    x2, y2 = float(uv[:, 0].max()), float(uv[:, 1].max())
    unclipped = (x1, y1, x2, y2)
    cx1 = max(x1, 0.0)
    cy1 = max(y1, 0.0)
    cx2 = min(x2, float(intrinsics.image_width))
    cy2 = min(y2, float(intrinsics.image_height))
    if cx1 >= cx2 or cy1 >= cy2:
        return ProjectedBox(rect=None, visible=False, unclipped=unclipped)
    return ProjectedBox(rect=(cx1, cy1, cx2, cy2), visible=True, unclipped=unclipped)


def _reference_world_box_rotation(yaw_world: float) -> np.ndarray:
    """Columns right = down x heading, down = -z, heading = R_z(yaw) e_x."""
    c, s = math.cos(yaw_world) + 0.0, math.sin(yaw_world) + 0.0
    return np.array([[s, 0.0, c], [-c, 0.0, s], [0.0 * s - 0.0 * c, -1.0, 0.0]])


def reference_generate_scene(
    config: synth.SceneConfig, seed: int, frame_id: str | None = None
) -> synth.SceneSample:
    """generate_scene one placement attempt at a time, each with its own draws."""
    rng = np.random.default_rng(seed)
    pitch_deg = float(rng.uniform(*config.pitch_range_deg))
    extrinsics = synth._camera_pose(pitch_deg, config.camera_height)
    intrinsics = config.intrinsics()
    count = int(rng.integers(config.objects_per_frame[0], config.objects_per_frame[1] + 1))
    half_fov = math.radians(config.horizontal_fov_deg) / 2.0
    names, cdf = synth._class_sampler(config.class_mix)
    annotations = []
    fid = frame_id if frame_id is not None else f"synth-{seed:016x}"
    for _ in range(count):
        placed = False
        for _attempt in range(200):
            class_name = synth._pick_class(rng, names, cdf)
            h0, w0, l0 = synth.NOMINAL_DIMS[class_name]
            scale = rng.uniform(0.9, 1.1, size=3)
            dims = (h0 * scale[0], w0 * scale[1], l0 * scale[2])
            distance = float(rng.uniform(config.min_range, config.max_range * 0.95))
            bearing = float(rng.uniform(-half_fov * 0.85, half_fov * 0.85))
            center_world = np.array(
                [distance * math.cos(bearing), distance * math.sin(bearing), dims[0] / 2.0]
            )
            yaw_world = float(rng.uniform(-math.pi, math.pi))
            rot_cam = extrinsics.rotation @ _reference_world_box_rotation(yaw_world)
            box = Box3D(
                center=tuple(extrinsics.apply(center_world)),
                dims=dims,
                orientation=euler_from_rotation(rot_cam),
            )
            projected = reference_project_box(intrinsics, box)
            if not projected.visible:
                continue
            x1, y1, x2, y2 = projected.unclipped
            raw = (x2 - x1) * (y2 - y1)
            truncation = 0.0
            if raw > 0.0:
                rect = projected.rect
                clipped_area = (rect[2] - rect[0]) * (rect[3] - rect[1])
                truncation = min(1.0, max(0.0, 1.0 - clipped_area / raw))
            annotations.append(
                AnnotationRecord(
                    class_name=class_name,
                    truncation=truncation,
                    occlusion=Occlusion.FULLY_VISIBLE,
                    box2d=projected.rect,
                    box3d=box,
                    frame_id=fid,
                )
            )
            placed = True
            break
        if not placed:
            raise GenerationError(
                f"could not place object {len(annotations) + 1} of {count}; "
                f"config frustum too small for the requested density"
            )
    frame = FrameRecord(
        frame_id=fid,
        image_path=f"{fid}.png",
        image_size=config.image_size,
        calibration_ref=f"calib-{fid}",
        annotations=tuple(annotations),
        tags=(
            ("time", synth.TIME_TAGS[int(rng.integers(0, len(synth.TIME_TAGS)))]),
            ("weather", synth.WEATHER_TAGS[int(rng.integers(0, len(synth.WEATHER_TAGS)))]),
        ),
    )
    calibration = CalibrationSet(intrinsics=intrinsics, transforms=(extrinsics,))
    return synth.SceneSample(frame=frame, calibration=calibration, pitch_deg=pitch_deg)
