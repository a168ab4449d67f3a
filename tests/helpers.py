"""Shared test utilities: random inputs and independent oracle computations.

Everything here is deliberately written from scratch against the documented
rules rather than reusing the library's own pipeline code, so tests compare
two independent routes to the same answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from roadkit.errors import ValidationError
from roadkit.evaluation import MatchResult
from roadkit.formats import AnnotationRecord, DetectionRecord, Occlusion
from roadkit.geometry import Box3D, EulerOrientation, box_corners, iou3d, rotation_from_euler


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
    rot = rotation_from_euler(box.orientation)
    local = (points - np.asarray(box.center)) @ rot
    h, w, l = box.dims
    half = np.array([w, h, l]) / 2.0
    return np.all(np.abs(local) <= half, axis=1)


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
        pts = rng.uniform(lo, hi, (m, 3))
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


def euler_matrix_oracle(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Independent factor-matrix product for the Y(yaw) X(pitch) Z(roll) convention."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return ry @ rx @ rz


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
