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
    if -math.pi < angle <= math.pi:
        return float(angle)  # math.remainder(angle, TAU) is angle itself here
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


def rotation_from_euler(orientation: EulerOrientation) -> np.ndarray:
    """Build the 3x3 rotation matrix R_y(yaw) @ R_x(pitch) @ R_z(roll): a one-matrix _rotations call."""
    return _rotations([orientation.as_tuple()])[0]


def euler_from_rotation(matrix: np.ndarray) -> EulerOrientation:
    """Decompose a rotation matrix under the Y-X-Z intrinsic convention.

    When pitch is within ~1e-6 of +/- pi/2 the yaw/roll axes align; the
    residual rotation is folded into yaw and roll is reported as 0.
    """
    m = validate_rotation(matrix)
    return EulerOrientation(*_euler_angles(m.ravel().tolist()))


def _euler_angles(m: Sequence[float]) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of an already validated rotation, given as its 9
    entries row by row."""
    sp = -m[5]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if math.sqrt(1.0 - sp * sp) > 1e-6:
        yaw = math.atan2(m[2], m[8])
        roll = math.atan2(m[3], m[4])
    elif sp > 0.0:
        yaw = math.atan2(m[1], m[0])
        roll = 0.0
    else:
        yaw = math.atan2(-m[1], m[0])
        roll = 0.0
    return yaw, pitch, roll


_EYE3 = np.eye(3)


def validate_rotation(matrix: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Check orthonormality and det = +1; return the matrix as float ndarray."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"rotation matrix must be 3x3, got shape {m.shape}")
    _, fault = _first_invalid_rotation(m[None], tol)
    if fault is not None:
        raise ValidationError(fault)
    return m


# validate_rotation's messages by fault code, in the order it checks; 0 passes.
_ROTATION_FAULTS = (
    None,
    "rotation matrix holds non-finite entries",
    "rotation matrix is not orthonormal",
    "rotation matrix determinant is not +1",
)


def _rotation_faults(matrices: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """The checks of validate_rotation over a (N, 3, 3) stack in one pass:
    each matrix's fault code, an index into _ROTATION_FAULTS.

    A one-matrix stack goes through the same matmul and det loops as the
    2-D m.T @ m and det(m), with their bits.
    """
    # A matrix far from a rotation may warn in these steps (a subnormal LU
    # pivot divides by zero in det); the fault code names it instead.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        finite = np.isfinite(matrices).all(axis=(1, 2))
        skewed = np.abs(np.matmul(matrices.swapaxes(1, 2), matrices) - _EYE3).max(axis=(1, 2)) > tol
        tilted = np.abs(np.linalg.det(matrices) - 1.0) > tol
    return np.select([~finite, skewed, tilted], [1, 2, 3])


def _first_invalid_rotation(matrices: np.ndarray, tol: float = 1e-6) -> tuple[int, str | None]:
    """The index of the first matrix of a (N, 3, 3) stack that validate_rotation
    rejects, with the reason, or (N, None) when every matrix passes."""
    faults = _rotation_faults(matrices, tol)
    bad = np.flatnonzero(faults)
    if not bad.size:
        return len(matrices), None
    k = int(bad[0])
    return k, _ROTATION_FAULTS[faults[k]]


def _center_fault(center: tuple) -> str:
    return f"box center must be 3 finite values, got {center}"


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z), dimensions (h, w, l), orientation.

    The volume h * w * l must be finite and positive: a box whose volume
    overflows, or underflows to 0, has no IoU with any box.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    orientation: EulerOrientation = EulerOrientation()

    def __post_init__(self):
        center = tuple(map(float, self.center))
        dims = tuple(map(float, self.dims))
        if len(center) != 3 or not all(map(math.isfinite, center)):
            raise ValidationError(_center_fault(center))
        if len(dims) != 3 or not all(map(math.isfinite, dims)) or min(dims) <= 0.0:
            raise ValidationError(f"box dims (h, w, l) must be positive, got {dims}")
        if not 0.0 < dims[0] * dims[1] * dims[2] < math.inf:
            raise ValidationError(f"box volume h * w * l must be finite and positive, got dims {dims}")
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


# Corner k's signs along local x, y, z: bit 2, 1, 0 of k, where 0 means +.
_CORNER_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def box_corners(box: Box3D) -> np.ndarray:
    """Return the 8 corners of a box, shape (8, 3).

    Corner ordering: index bit 2 selects the local-x (width) sign, bit 1 the
    local-y (height) sign, bit 0 the local-z (length) sign, with bit value 0
    meaning the positive half-extent. Corner 0 is (+w/2, +h/2, +l/2) in local
    coordinates.
    """
    return _corners(*_box_arrays([box]))[0]


def _corners(centers: np.ndarray, rotations: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """box_corners of each box given as _box_arrays gives it, shape (N, 8, 3).

    Each box's (8, 3) by (3, 3) product runs through the same matmul loop as
    a one-box call, so every box gets the bits box_corners gives it.
    """
    local = _CORNER_SIGNS * halves[:, None]
    return centers[:, None] + np.matmul(local, rotations.swapaxes(1, 2))


# Plane k of a box pair (k = 0..11) faces along axis k // 2 of the pair's six
# box axes (a's local x, y, z, then b's), outward + for even k, - for odd.
_PLANE_AXIS = np.repeat(np.arange(6), 2)
_PLANE_SIGN = np.tile([1.0, -1.0], 6)
# Planes k of a and l of b face the same way when a's axis k // 2 is b's axis
# l // 2 times +1 (_FACING 0) or -1 (_FACING 1).
_FACING = (_PLANE_SIGN[:6, None] != _PLANE_SIGN[6:]).astype(np.intp)
# Each box of a pair owns the vertex candidates on its 12 edges; side s = 0 is
# a, 1 is b. Edge e runs along its free axis with the other two axes at signed
# levels, and edges 0-3 run along axis 0, so their ends are the 8 corners.
# Crossing x of an edge meets the other box's face plane along axis
# _CROSS_AXIS[x] at the level of sign _CROSS_SIGN[x]; _CROSS_REST are the
# other box's two remaining axes.
_EDGE_FREE = np.repeat(np.arange(3), 4)
_EDGE_FIXED = (_EDGE_FREE[:, None] + [1, 2]) % 3
_EDGE_SIGNS = np.tile(list(itertools.product((0, 1), repeat=2)), (3, 1))  # 0: +, 1: -
_CROSS_AXIS = np.repeat(np.arange(3), 2)
_CROSS_SIGN = np.tile([0, 1], 3)
_CROSS_REST = (_CROSS_AXIS[:, None] + [1, 2]) % 3
# Offsets in the kernel's per-pair row of vertex coordinate values: the 12
# plane levels, in plane order; each crossing's free coordinate (side,
# crossing, edge); its other-box coordinates along _CROSS_REST[:, 0], then
# along _CROSS_REST[:, 1]; and the corners' other-box coordinates (side,
# axis, edge, end).
_LEVELS, _FREES, _RESTS, _CORNERS, _VALUES = 0, 12, 156, 444, 492


def _vertex_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per candidate vertex: its 6 coordinates (a's local x, y, z, then b's)
    as offsets in the per-pair value row, and the 3 planes it lies on.

    Side s holds candidates 80 s to 80 s + 79: its 8 corners (edge, end),
    then its 72 crossings (crossing, edge).
    """
    coords, planes = [], []
    for s in (0, 1):
        own, other = 3 * s, 3 * (1 - s)
        for e in range(4):
            for end in (0, 1):
                signs = (end, *_EDGE_SIGNS[e])
                row = [0] * 6
                for c in range(3):
                    row[own + c] = _LEVELS + 2 * (own + c) + signs[c]
                    row[other + c] = _CORNERS + ((3 * s + c) * 4 + e) * 2 + end
                coords.append(row)
                planes.append([2 * (own + c) + signs[c] for c in range(3)])
        for x in range(6):
            crossed = (_CROSS_AXIS[x], _CROSS_SIGN[x])
            for e in range(12):
                fixed = list(zip(_EDGE_FIXED[e], _EDGE_SIGNS[e]))
                crossing = (6 * s + x) * 12 + e
                row = [0] * 6
                row[own + _EDGE_FREE[e]] = _FREES + crossing
                for c, sign in fixed:
                    row[own + c] = _LEVELS + 2 * (own + c) + sign
                row[other + crossed[0]] = _LEVELS + 2 * (other + crossed[0]) + crossed[1]
                for r, c in enumerate(_CROSS_REST[x]):
                    row[other + c] = _RESTS + 144 * r + crossing
                coords.append(row)
                planes.append([2 * (own + c) + sign for c, sign in fixed] + [2 * (other + crossed[0]) + crossed[1]])
    return np.array(coords), np.array(planes)


_VERTEX_COORDS, _VERTEX_PLANES = _vertex_tables()
# The 40 candidate vertices on each plane, and the offsets of their two
# coordinates along the box axes spanning it.
_FACE_VERTICES = np.array([np.flatnonzero(np.any(_VERTEX_PLANES == k, axis=1)) for k in range(12)])
_FACE_UV = np.stack([_PLANE_AXIS // 3 * 3 + (_PLANE_AXIS + k) % 3 for k in (1, 2)], axis=1)
_FACE_VALUES = _VERTEX_COORDS[_FACE_VERTICES, _FACE_UV.T[:, :, None]].reshape(2, -1)
_PLANE_EPS = 1e-9  # a vertex this close outside a plane is inside it
_PARALLEL_EPS = 1e-12  # unit normals this close per component are parallel
_BATCH = 32  # pairs per kernel call; bounds the working set at about 22 KB a pair


# A pair gets the same bits in any batch: np.sum and matmul may reorder their
# additions with the array shape, so sums are written out.
def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right."""
    total = x[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k]
    return total


def _intersection_volumes(a: tuple, b: tuple) -> np.ndarray:
    """Exact intersection volume of each box pair (a[k], b[k]).

    a and b are (centers (P, 3), rotations (P, 3, 3), half extents (P, 3) along
    local x, y, z). The polytope's vertices are the box corners and the points
    where an edge of one box crosses a face plane of the other that lie inside
    all 12 planes, found in closed form in the two box frames about a's center.
    Its volume is the sum of face area x the face plane's height above a's
    center / 3, each area a shoelace sum over the face's vertices by angle.
    Arrays run along the candidates of every pair, not along 3-vectors.
    """
    pairs = len(a[0])
    ra, rb = a[1], b[1]
    diff = b[0] - a[0]
    # m[i, j] = a_i . b_j for the box axes (rotation columns); b's center about
    # a's in a's axes (d) and in b's axes (e).
    m = ra[:, 0, :, None] * rb[:, 0, None, :] + ra[:, 1, :, None] * rb[:, 1, None, :]
    m += ra[:, 2, :, None] * rb[:, 2, None, :]
    d = _dot(ra.swapaxes(1, 2), diff[:, None])
    e = _dot(rb.swapaxes(1, 2), diff[:, None])

    # Of two parallel planes facing the same way, one per box, the outer one
    # (b's on a tie) bounds nothing and is dropped: its face would repeat.
    turned = rb[:, None] * np.array([1.0, -1.0])[:, None, None]
    parallel = np.all(np.abs(ra[:, None, :, :, None] - turned[:, :, :, None, :]) <= _PARALLEL_EPS, axis=2)
    aligned = parallel[:, _FACING, _PLANE_AXIS[:6, None], _PLANE_AXIS[6:] - 3]
    half = np.concatenate([a[2], b[2]], axis=1)
    offsets = _PLANE_SIGN * np.concatenate([np.zeros_like(e), e], axis=1)[:, _PLANE_AXIS] + half[:, _PLANE_AXIS]
    b_outer = offsets[:, None, 6:] >= offsets[:, :6, None]
    redundant = np.hstack([np.any(aligned & ~b_outer, axis=2), np.any(aligned & b_outer, axis=1)])

    # Per side, a point's other-box coordinates are t own + g, with t[j, c]
    # the dot product of the other box's axis j and the own box's axis c.
    t = np.stack([m.swapaxes(1, 2), m], axis=1)
    g = np.stack([-e, d], axis=1)
    levels = half.reshape(pairs, 2, 3, 1) * [1.0, -1.0]
    fixed = levels[:, :, None, _EDGE_FIXED, _EDGE_SIGNS]
    rows = t[..., _EDGE_FIXED]
    # Other-box coordinates of each edge's point at free coordinate 0, and
    # their change per unit of it: (pair, side, other axis, edge).
    base = rows[..., 0] * fixed[..., 0] + rows[..., 1] * fixed[..., 1] + g[..., None]
    step = t[..., _EDGE_FREE]
    # A crossing solves one equation in the free coordinate. Its divisor is the
    # determinant of the normals of the crossing's three planes, near 0 when
    # the edge runs parallel to the face: (pair, side, crossing, edge).
    pivot = step[:, :, _CROSS_AXIS]
    solvable = np.abs(pivot) > _PARALLEL_EPS
    free = levels[:, ::-1, _CROSS_AXIS, _CROSS_SIGN, None] - base[:, :, _CROSS_AXIS]
    free /= np.where(solvable, pivot, 1.0)
    rest = [base[:, :, _CROSS_REST[:, r]] + free * step[:, :, _CROSS_REST[:, r]] for r in (0, 1)]
    corner = base[..., :4, None] + levels[:, :, 0, None, None] * step[..., :4, None]

    limit = half.reshape(pairs, 2, 3) + _PLANE_EPS
    other_limit = limit[:, ::-1, :, None]
    inside = solvable & (np.abs(free) <= limit[:, :, None, _EDGE_FREE])
    for r in (0, 1):
        inside &= np.abs(rest[r]) <= other_limit[:, :, _CROSS_REST[:, r]]
    corner_inside = np.abs(corner) <= other_limit[..., None]
    corner_inside = corner_inside[:, :, 0] & corner_inside[:, :, 1] & corner_inside[:, :, 2]
    feasible = np.concatenate([corner_inside.reshape(pairs, 2, 8), inside.reshape(pairs, 2, 72)], axis=2)
    dropped = redundant[:, _VERTEX_PLANES.T]
    feasible = feasible.reshape(pairs, -1) & ~(dropped[:, 0] | dropped[:, 1] | dropped[:, 2])
    values = np.concatenate([x.reshape(pairs, -1) for x in (levels, free, *rest, corner)], axis=1)

    # Each face's vertices first, in candidate order, in as many slots as the
    # widest face of the batch holds: a member's slot is the count before it.
    hit = np.flatnonzero(feasible[:, _FACE_VERTICES])
    face = hit // _FACE_VERTICES.shape[1]
    count = np.bincount(face, minlength=pairs * 12)
    width = max(int(count.max(initial=0)), 1)
    slot = face * width + np.arange(hit.size) - (np.cumsum(count) - count)[face]
    pair, member = np.divmod(hit, _FACE_VERTICES.size)
    uv = np.zeros((2, pairs * 12 * width))
    for k in (0, 1):  # np.take, as fancy indexing along a row is slower here
        uv[k, slot] = np.take(values, pair * _VALUES + np.take(_FACE_VALUES[k], member))
    uv = uv.reshape(2, pairs, 12, width)
    count = count.reshape(pairs, 12)

    # Face vertices in the two axes spanning the face, about their centroid,
    # ordered by angle; padding repeats the first vertex, adding zero-length
    # edges, and the last vertex's edge closes on the first.
    filled = np.arange(width) < count[..., None]
    uv -= (_sum(uv) / np.maximum(count, 1))[..., None]
    angle = np.where(filled, np.arctan2(uv[1], uv[0]), np.inf)
    order = np.argsort(angle, axis=2, kind="stable")
    order = np.where(filled, order, order[..., :1]) + (np.arange(pairs * 12) * width).reshape(pairs, 12, 1)
    x, y = np.take(uv.reshape(2, -1), order, axis=1)
    following = (np.arange(width) + 1) % width
    area = 0.5 * _sum(x * y[..., following] - x[..., following] * y)
    # The divergence theorem holds about any point, so each face's height is
    # its plane's offset from a's center, negative when that center is outside.
    return _sum(area * offsets) / 3.0


def _rotations(angles: Sequence[tuple[float, float, float]]) -> np.ndarray:
    """R_y(yaw) @ R_x(pitch) @ R_z(roll) of each (yaw, pitch, roll), shape (N, 3, 3).

    Each row goes through the same matmul loop as a one-row call, and a
    one-row call gives the bits of the 2-D product of the three factors.
    """
    product = None
    for k, axis in enumerate((1, 0, 2)):  # R_y(yaw) @ R_x(pitch) @ R_z(roll)
        p, q = (axis + 1) % 3, (axis + 2) % 3
        factor = np.zeros((len(angles), 3, 3))
        factor[:, axis, axis] = 1.0
        factor[:, p, p] = factor[:, q, q] = [math.cos(angle[k]) for angle in angles]
        sin = np.array([math.sin(angle[k]) for angle in angles])
        factor[:, q, p], factor[:, p, q] = sin, -sin
        product = factor if product is None else np.matmul(product, factor)
    return product


def _box_params(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 9) rows of (center, dims, yaw, pitch, roll), one per box."""
    return np.array([(*b.center, *b.dims, *b.orientation.as_tuple()) for b in boxes]).reshape(-1, 9)


def _param_arrays(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, rotations, half extents along local x, y, z) of _box_params rows."""
    centers = params[:, :3].copy()
    rotations = _rotations(params[:, 6:].tolist())
    halves = params[:, [4, 3, 5]] * 0.5
    return centers, rotations, halves


def _box_arrays(boxes: Sequence[Box3D]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, rotations, half extents along local x, y, z) of boxes."""
    return _param_arrays(_box_params(boxes))


def _precedes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x < y compared as tuples: the first unequal column decides."""
    differ = x != y
    first = np.argmax(differ, axis=1)[:, None]
    return np.take_along_axis(differ & (x < y), first, axis=1)[:, 0]


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
    return _iou_sweep([(boxes_a, boxes_b)])[0]


def _iou_sweep(groups: Sequence[tuple[Sequence[Box3D], Sequence[Box3D]]]) -> list[np.ndarray]:
    """iou3d_matrix of each (boxes_a, boxes_b) group, from one kernel sweep.

    Lists every cell of every group's matrix at once, keeps the pairs whose
    axis-aligned bounds meet, runs them all through the kernel in batches of
    _BATCH pairs, and scatters the IoUs back. Each pair goes in a canonical
    argument order: the box whose (center, dims, yaw, pitch, roll) is smaller
    as a tuple first.
    """
    shapes = [(len(boxes_a), len(boxes_b)) for boxes_a, boxes_b in groups]
    params = _box_params([box for group in groups for side in group for box in side])
    centers, rotations, halves = arrays = _param_arrays(params)
    extent = _dot(np.abs(rotations), halves[:, None])
    lo, hi = centers - extent, centers + extent
    volumes = params[:, 3] * params[:, 4] * params[:, 5]
    # Cell (row, col) of group k pairs box start_k + row with start_k + rows_k + col.
    rows, cols = np.array(shapes, dtype=np.intp).reshape(-1, 2).T
    cells = rows * cols
    ends = np.cumsum(cells)
    group = np.repeat(np.arange(len(groups)), cells)
    cell = np.arange(group.size) - (ends - cells)[group]
    start = (np.cumsum(rows + cols) - rows - cols)[group]
    i = start + cell // cols[group]
    j = start + rows[group] + cell % cols[group]
    meet = ~(np.any(lo[i] > hi[j], axis=1) | np.any(lo[j] > hi[i], axis=1))
    i, j = i[meet], j[meet]
    swap = _precedes(params[j], params[i])
    first, second = np.where(swap, j, i), np.where(swap, i, j)
    pair_a, pair_b = ([p[side] for p in arrays] for side in (first, second))
    inter = np.zeros(first.size)
    for k in range(0, first.size, _BATCH):
        batch = slice(k, k + _BATCH)
        inter[batch] = _intersection_volumes(tuple(p[batch] for p in pair_a), tuple(p[batch] for p in pair_b))
    inter = np.minimum(np.maximum(inter, 0.0), np.minimum(volumes[first], volumes[second]))
    iou = np.zeros(group.size)
    iou[meet] = np.clip(inter / (volumes[first] + volumes[second] - inter), 0.0, 1.0)
    return [iou[end - size : end].reshape(shape) for end, size, shape in zip(ends.tolist(), cells.tolist(), shapes)]
