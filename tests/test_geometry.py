import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadkit.errors import ValidationError
from roadkit.geometry import (
    Box3D,
    EulerOrientation,
    box_corners,
    euler_from_rotation,
    intersection_volume,
    iou3d,
    iou3d_matrix,
    normalize_angle,
    rotation_from_euler,
    validate_rotation,
)
import roadkit.geometry
from roadkit.geometry import (
    _BATCH, _PARALLEL_EPS, _box_arrays, _corners, _intersection_volumes, _iou_sweep, _precedes,
)

from helpers import (
    ConvexPolytope,
    monte_carlo_intersection,
    padded_intersection_volumes,
    random_box,
    random_orientation,
    reference_box_corners,
    reference_intersection_volume,
    reference_normalize_angle,
    reference_rotation_from_euler,
    reference_validate_rotation,
    rot_x,
    rot_y,
    rot_z,
    triple_intersection_volumes,
)


class TestAngles:
    def test_normalize_identity_in_range(self):
        for a in (-3.0, -0.5, 0.0, 1.0, math.pi):
            assert normalize_angle(a) == pytest.approx(a, abs=1e-12)

    def test_normalize_wraps(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
        assert normalize_angle(-math.pi) == pytest.approx(math.pi, abs=1e-12)
        assert normalize_angle(2 * math.pi + 0.25) == pytest.approx(0.25, abs=1e-12)
        assert normalize_angle(-7.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_normalize_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            normalize_angle(math.nan)
        with pytest.raises(ValidationError):
            normalize_angle(math.inf)

    def test_normalize_equals_remainder_path_by_bytes(self):
        edges = [math.pi, -math.pi, 0.0, -0.0, 5e-324, -5e-324, math.tau, -math.tau, 3 * math.pi]
        edges += [math.nextafter(a, d) for a in (math.pi, -math.pi) for d in (0.0, 4.0, -4.0)]
        edges += list(np.random.default_rng(5).uniform(-10.0, 10.0, 2000))
        inputs = edges + [np.float64(a) for a in edges] + [0, 1, -3, 3, 4, -4, 7, True]
        for angle in inputs:
            got, want = normalize_angle(angle), reference_normalize_angle(angle)
            assert type(got) is type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), angle

    def test_orientation_normalizes_on_construction(self):
        o = EulerOrientation(yaw=3 * math.pi, pitch=-math.pi, roll=2 * math.pi)
        assert o.yaw == pytest.approx(math.pi)
        assert o.pitch == pytest.approx(math.pi)
        assert o.roll == pytest.approx(0.0)


class TestRotations:
    def test_factor_matrices(self):
        a = 0.37
        c, s = math.cos(a), math.sin(a)
        pitch, yaw, roll = (rotation_from_euler(EulerOrientation(**{name: a})) for name in ("pitch", "yaw", "roll"))
        np.testing.assert_allclose(pitch, [[1, 0, 0], [0, c, -s], [0, s, c]], atol=1e-15)
        np.testing.assert_allclose(yaw, [[c, 0, s], [0, 1, 0], [-s, 0, c]], atol=1e-15)
        np.testing.assert_allclose(roll, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-15)

    def test_rotation_from_euler_equals_factor_product_bytes(self):
        # The one-matrix stacked product against the 2-D product of the three
        # factors, on random angles and on every triple of 0, +-pi/2 and pi.
        rng = np.random.default_rng(31)
        special = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi)
        angles = [tuple(a) for a in rng.uniform(-math.pi, math.pi, (20_000, 3))]
        angles += list(itertools.product(special, repeat=3))
        for triple in angles:
            o = EulerOrientation(*triple)
            assert rotation_from_euler(o).tobytes() == reference_rotation_from_euler(o).tobytes()

    def test_composition_matches_factor_product_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
            got = rotation_from_euler(EulerOrientation(yaw, pitch, roll))
            np.testing.assert_allclose(got, rot_y(yaw) @ rot_x(pitch) @ rot_z(roll), atol=1e-12)

    def test_yaw_only_rotates_forward_axis(self):
        r = rotation_from_euler(EulerOrientation(yaw=math.pi / 2))
        np.testing.assert_allclose(r @ [0, 0, 1], [1, 0, 0], atol=1e-12)

    def test_decomposition_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            yaw, roll = rng.uniform(-math.pi, math.pi, 2)
            pitch = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            r = rotation_from_euler(EulerOrientation(yaw, pitch, roll))
            o = euler_from_rotation(r)
            np.testing.assert_allclose(
                (o.yaw, o.pitch, o.roll), (yaw, pitch, roll), atol=1e-9
            )

    def test_decomposition_matrix_round_trip_any_pitch(self):
        # Outside |pitch| < pi/2 the Euler triple is not unique, but the
        # recomposed matrix must match.
        rng = np.random.default_rng(13)
        for _ in range(500):
            angles = rng.uniform(-math.pi, math.pi, 3)
            r = rotation_from_euler(EulerOrientation(*angles))
            np.testing.assert_allclose(
                rotation_from_euler(euler_from_rotation(r)), r, atol=1e-9
            )

    def test_gimbal_lock_reports_zero_roll(self):
        for pitch in (math.pi / 2, -math.pi / 2):
            r = rotation_from_euler(EulerOrientation(yaw=0.4, pitch=pitch, roll=1.1))
            o = euler_from_rotation(r)
            assert o.roll == 0.0
            assert o.pitch == pytest.approx(pitch, abs=1e-9)
            np.testing.assert_allclose(rotation_from_euler(o), r, atol=1e-9)

    def test_validate_rotation_rejects_bad_matrices(self):
        with pytest.raises(ValidationError):
            validate_rotation(np.eye(3) * 2.0)
        with pytest.raises(ValidationError):
            validate_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1 reflection
        with pytest.raises(ValidationError):
            validate_rotation(np.eye(2))
        with pytest.raises(ValidationError):
            validate_rotation(np.full((3, 3), np.nan))

    def test_validate_rotation_accepts_valid(self):
        r = rotation_from_euler(EulerOrientation(0.3, -0.2, 1.7))
        np.testing.assert_array_equal(validate_rotation(r), r)

    @staticmethod
    def verdict(check, matrix, **kwargs):
        """The bytes check returns, or the type and message of what it raises."""
        try:
            return check(matrix, **kwargs).tobytes()
        except ValidationError as exc:
            return type(exc), str(exc)

    def test_validate_rotation_matches_one_matrix_reference(self):
        good = reference_rotation_from_euler(EulerOrientation(0.3, -0.2, 1.1))
        non_finite = good.copy()
        non_finite[1, 2] = np.nan
        cases = [
            good, good.T, good.tolist(), np.eye(3), non_finite, np.full((3, 3), np.inf), good * 1.01,
            good @ np.diag([1.0, 1.0, -1.0]), np.eye(3) * 2.0, np.eye(2), np.zeros((3, 4)), np.zeros(9),
        ]
        for matrix in cases:
            assert self.verdict(validate_rotation, matrix) == self.verdict(reference_validate_rotation, matrix)

    def test_validate_rotation_near_tolerance_matches_reference(self):
        # Perturbations of sigma 3e-7 put the residual and determinant near the
        # 1e-6 bound, so both verdicts occur; the tolerance is passed through.
        rng = np.random.default_rng(33)
        verdicts = set()
        for _ in range(3_000):
            m = reference_rotation_from_euler(EulerOrientation(*rng.uniform(-math.pi, math.pi, 3)))
            m = m + rng.normal(0.0, 3e-7, (3, 3))
            for kwargs in ({}, {"tol": 2e-6}, {"tol": 5e-7}):
                got = self.verdict(validate_rotation, m, **kwargs)
                assert got == self.verdict(reference_validate_rotation, m, **kwargs)
                verdicts.add(got if isinstance(got, tuple) else "passed")
        assert verdicts == {
            "passed",
            (ValidationError, "rotation matrix is not orthonormal"),
            (ValidationError, "rotation matrix determinant is not +1"),
        }


class TestBox3D:
    def test_properties(self):
        box = Box3D(center=(1, 2, 3), dims=(1.5, 1.8, 4.2))
        assert box.height == 1.5
        assert box.width == 1.8
        assert box.length == 4.2
        assert box.volume == pytest.approx(1.5 * 1.8 * 4.2)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValidationError):
            Box3D(center=(0, 0, 0), dims=(0.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            Box3D(center=(0, 0, 0), dims=(1.0, -1.0, 1.0))

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ValidationError):
            Box3D(center=(math.inf, 0, 0), dims=(1, 1, 1))

    @pytest.mark.parametrize("dims", [(1e200, 1e200, 1e200), (1e308, 1.5, 2.0), (5e-324, 0.4, 1.0), (1e-200, 1e-200, 1.5)])
    def test_rejects_volume_that_overflows_or_underflows(self, dims):
        with pytest.raises(ValidationError, match=r"^box volume h \* w \* l must be finite and positive, got dims "):
            Box3D(center=(0, 0, 0), dims=dims)

    def test_keeps_extreme_dims_of_a_finite_volume(self):
        for dims in [(1e-300, 1e300, 5e-324), (1e154, 1e154, 1e-10), (5e-324, 3.0, 1.0)]:
            box = Box3D(center=(0, 0, 0), dims=dims)
            assert 0.0 < box.volume < math.inf

    def test_corners_axis_aligned(self):
        box = Box3D(center=(10.0, 20.0, 30.0), dims=(2.0, 4.0, 6.0))
        corners = box_corners(box)
        assert corners.shape == (8, 3)
        # Corner 0 is the all-positive local corner (+w/2, +h/2, +l/2).
        np.testing.assert_allclose(corners[0], [12.0, 21.0, 33.0], atol=1e-12)
        # Bit 2 flips x (width), bit 1 flips y (height), bit 0 flips z (length).
        np.testing.assert_allclose(corners[0b100], [8.0, 21.0, 33.0], atol=1e-12)
        np.testing.assert_allclose(corners[0b010], [12.0, 19.0, 33.0], atol=1e-12)
        np.testing.assert_allclose(corners[0b001], [12.0, 21.0, 27.0], atol=1e-12)
        np.testing.assert_allclose(corners[0b111], [8.0, 19.0, 27.0], atol=1e-12)

    def test_corners_respect_yaw(self):
        box = Box3D(center=(0, 0, 0), dims=(2.0, 1.0, 3.0),
                    orientation=EulerOrientation(yaw=math.pi / 2))
        corners = box_corners(box)
        # Length axis (local z) now points along world +x.
        np.testing.assert_allclose(corners[0], [1.5, 1.0, -0.5], atol=1e-12)


    def test_corners_equal_reference_by_bytes(self):
        rng = np.random.default_rng(17)
        boxes = [random_box(rng, center_spread=50.0, dim_range=(0.01, 20.0)) for _ in range(500)]
        boxes += [
            Box3D(center=(-0.0, 0.0, -0.0), dims=(1.0, 2.0, 3.0)),
            Box3D(center=(1e8, -1e8, 3.0), dims=(1e-3, 5e3, 2.5),
                  orientation=EulerOrientation(math.pi, -math.pi / 2, math.pi / 2)),
        ]
        batch = _corners(*_box_arrays(boxes))
        for box, corners in zip(boxes, batch):
            expected = reference_box_corners(box)
            assert box_corners(box).tobytes() == expected.tobytes()
            assert corners.tobytes() == expected.tobytes()
        assert _corners(*_box_arrays([])).shape == (0, 8, 3)


class TestIntersectionKnownValues:
    def test_identical_boxes(self):
        box = Box3D(center=(1, 2, 3), dims=(2, 3, 4), orientation=EulerOrientation(0.5, 0.2, -0.1))
        assert intersection_volume(box, box) == pytest.approx(box.volume, rel=1e-9)
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        a = Box3D(center=(0, 0, 0), dims=(1, 1, 1))
        b = Box3D(center=(10, 0, 0), dims=(1, 1, 1))
        assert intersection_volume(a, b) == 0.0
        assert iou3d(a, b) == 0.0

    def test_touching_faces_give_zero(self):
        a = Box3D(center=(0, 0, 0), dims=(1, 1, 1))
        b = Box3D(center=(1.0, 0, 0), dims=(1, 1, 1))
        assert intersection_volume(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_axis_aligned_half_overlap(self):
        a = Box3D(center=(0, 0, 0), dims=(1, 1, 1))
        b = Box3D(center=(0.5, 0, 0), dims=(1, 1, 1))
        assert intersection_volume(a, b) == pytest.approx(0.5, abs=1e-12)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_contained_box(self):
        outer = Box3D(center=(0, 0, 0), dims=(4, 4, 4))
        inner = Box3D(center=(0.2, -0.3, 0.1), dims=(1, 1, 1),
                      orientation=EulerOrientation(0.7, 0.3, -0.4))
        assert intersection_volume(outer, inner) == pytest.approx(1.0, rel=1e-9)
        assert iou3d(outer, inner) == pytest.approx(1.0 / 64.0, rel=1e-9)

    def test_yawed_45_unit_cubes(self):
        a = Box3D(center=(0, 0, 0), dims=(1, 1, 1))
        b = Box3D(center=(0, 0, 0), dims=(1, 1, 1), orientation=EulerOrientation(yaw=math.pi / 4))
        expected = 2.0 * (math.sqrt(2.0) - 1.0)
        inter = intersection_volume(a, b)
        assert inter == pytest.approx(expected, abs=1e-9)
        assert iou3d(a, b) == pytest.approx(expected / (2.0 - expected), abs=1e-9)

    def test_rotation_about_each_axis_is_equivalent(self):
        # A cube is symmetric, so a 45 degree twist about any axis gives the
        # same intersection.
        expected = 2.0 * (math.sqrt(2.0) - 1.0)
        a = Box3D(center=(0, 0, 0), dims=(1, 1, 1))
        for orientation in (
            EulerOrientation(yaw=math.pi / 4),
            EulerOrientation(pitch=math.pi / 4),
            EulerOrientation(roll=math.pi / 4),
        ):
            b = Box3D(center=(0, 0, 0), dims=(1, 1, 1), orientation=orientation)
            assert intersection_volume(a, b) == pytest.approx(expected, abs=1e-9)


class TestIntersectionProperties:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert iou3d(a, b) == iou3d(b, a)

    def test_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            inter = intersection_volume(a, b)
            assert 0.0 <= inter <= min(a.volume, b.volume) + 1e-12
            assert 0.0 <= iou3d(a, b) <= 1.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            a, b = random_box(rng, dim_range=(0.8, 2.0)), random_box(rng, dim_range=(0.8, 2.0))
            exact = intersection_volume(a, b)
            approx = monte_carlo_intersection(a, b, 200_000, rng)
            assert exact == pytest.approx(approx, abs=0.05)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            base = iou3d(a, b)
            rot = rotation_from_euler(
                EulerOrientation(*rng.uniform(-math.pi, math.pi, 3))
            )
            shift = rng.uniform(-5, 5, 3)

            def move(box):
                new_rot = rot @ rotation_from_euler(box.orientation)
                return Box3D(
                    center=tuple(rot @ np.asarray(box.center) + shift),
                    dims=box.dims,
                    orientation=euler_from_rotation(new_rot),
                )

            assert iou3d(move(a), move(b)) == pytest.approx(base, abs=1e-9)


def _matrix_box_sets(seed: int) -> tuple[list[Box3D], list[Box3D]]:
    """Seeded random boxes plus the boundary cases of the AABB prefilter."""
    rng = np.random.default_rng(seed)
    a = [random_box(rng, center_spread=3.0) for _ in range(12)]
    b = [random_box(rng, center_spread=3.0) for _ in range(12)]
    # Identical boxes.
    b += a[:2]
    # A box contained in another.
    a.append(Box3D(center=(0, 0, 0), dims=(4, 4, 4)))
    b.append(Box3D(center=(0.2, -0.3, 0.1), dims=(1, 1, 1),
                   orientation=EulerOrientation(0.7, 0.3, -0.4)))
    # Touching faces, and AABBs that touch along an edge or at a corner only.
    a.append(Box3D(center=(10, 0, 0), dims=(1, 1, 1)))
    b += [Box3D(center=(11, 0, 0), dims=(1, 1, 1)),
          Box3D(center=(11, 1, 0), dims=(1, 1, 1)),
          Box3D(center=(11, 1, 1), dims=(1, 1, 1))]
    # Pitch at +/- pi/2, where yaw and roll share an axis.
    for pitch in (math.pi / 2, -math.pi / 2):
        for boxes in (a, b):
            yaw, roll = rng.uniform(-math.pi, math.pi, 2)
            boxes.append(Box3D(center=tuple(rng.uniform(-1, 1, 3)),
                               dims=tuple(rng.uniform(0.5, 3.0, 3)),
                               orientation=EulerOrientation(yaw, pitch, roll)))
    return a, b


class TestIoUMatrix:
    def test_empty_shapes(self):
        boxes = [Box3D(center=(0, 0, 0), dims=(1, 1, 1))] * 3
        for a, b in (([], boxes), (boxes, []), ([], [])):
            out = iou3d_matrix(a, b)
            assert out.shape == (len(a), len(b))
            assert not out.any()

    def test_entries_equal_iou3d_exactly(self):
        for seed in (43, 47):
            a, b = _matrix_box_sets(seed)
            out = iou3d_matrix(a, b)
            assert out.shape == (len(a), len(b))
            for i, box_a in enumerate(a):
                for j, box_b in enumerate(b):
                    assert out[i, j] == iou3d(box_a, box_b), (seed, i, j)
            # The sets hold rejected, clipped-to-zero and overlapping pairs.
            assert np.count_nonzero(out == 0.0) > 0
            assert np.count_nonzero(out > 1.0 - 1e-9) >= 2
            assert np.count_nonzero((out > 0.0) & (out < 1.0)) > 0

    def test_transpose_is_exact(self):
        a, b = _matrix_box_sets(53)
        assert np.array_equal(iou3d_matrix(b, a), iou3d_matrix(a, b).T)

    def test_pair_order_matches_tuple_comparison(self):
        # Rows of nine box parameters that tie, differ in the last bit, or
        # differ only in the sign of a zero, which compares equal.
        values = (0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -1.0,
                  5e-324, -5e-324)
        rng = np.random.default_rng(79)
        x = rng.choice(values, (4000, 9))
        y = x.copy()
        for row, k in enumerate(rng.integers(0, 10, len(x))):
            y[row, k:] = rng.choice(values, 9 - k)
        y[::7] = np.where(y[::7] == 0.0, -y[::7], y[::7])
        expected = np.array([tuple(p) < tuple(q) for p, q in zip(x.tolist(), y.tolist())])
        reverse = np.array([tuple(q) < tuple(p) for p, q in zip(x.tolist(), y.tolist())])
        assert np.array_equal(_precedes(x, y), expected)
        assert np.array_equal(_precedes(y, x), reverse)
        ties = ~expected & ~reverse
        assert expected.sum() > 100 and reverse.sum() > 100 and ties.sum() > 100
        assert np.any(ties & np.any(np.signbit(x) != np.signbit(y), axis=1))

    def test_box_arrays_rotations_equal_rotation_from_euler(self):
        # Bit for bit, signed zeros included, at pitch 0, roll 0 and pitch +/- pi/2.
        special = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 1.0)
        rng = np.random.default_rng(73)
        orientations = [EulerOrientation(y, p, r) for y in special for p in special for r in special]
        orientations += [random_orientation(rng) for _ in range(200)]
        boxes = [Box3D(center=(0, 0, 0), dims=(1, 1, 1), orientation=o) for o in orientations]
        expected = np.array([rotation_from_euler(o) for o in orientations])
        assert _box_arrays(boxes)[1].tobytes() == expected.tobytes()
        assert np.count_nonzero(expected == 0.0) > 100  # zero entries, whose signs are compared


class TestIoUSweep:
    """One kernel sweep over many (boxes_a, boxes_b) groups."""

    def test_groups_equal_iou3d_matrix(self, monkeypatch):
        rng = np.random.default_rng(83)
        a, b = _matrix_box_sets(43)
        far = [Box3D(center=(50, 0, 0), dims=(1, 1, 1)), Box3D(center=(0, 50, 0), dims=(2, 1, 1))]
        groups = [([], []), (a, b), ([], b), (a[:3], []), (a[:4], far), (b, a), (a[:1], b[:1])]
        groups += [([random_box(rng) for _ in range(n)], [random_box(rng) for _ in range(m)])
                   for n, m in ((5, 7), (9, 3), (1, 1))]
        calls = []
        kernel = roadkit.geometry._intersection_volumes

        def counting(x, y):
            calls.append(len(x[0]))
            return kernel(x, y)

        monkeypatch.setattr(roadkit.geometry, "_intersection_volumes", counting)
        swept = _iou_sweep(groups)
        # Full batches, then one partial one: ceil(pairs / _BATCH) calls.
        assert sum(calls) > 2 * _BATCH
        assert len(calls) == -(-sum(calls) // _BATCH)
        assert all(n == _BATCH for n in calls[:-1])
        assert len(swept) == len(groups)
        for (boxes_a, boxes_b), out in zip(groups, swept):
            expected = iou3d_matrix(boxes_a, boxes_b)
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()
        calls.clear()
        assert not iou3d_matrix(a[:4], far).any()
        assert calls == []  # no pair of that group survives the AABB test

    def test_no_groups(self):
        assert _iou_sweep([]) == []


def _random_pairs() -> list[tuple[Box3D, Box3D]]:
    rng = np.random.default_rng(59)
    return [(random_box(rng), random_box(rng)) for _ in range(2000)]


# The 24 rotations that map the coordinate axes onto themselves.
_AXIS_TURNS = [
    np.eye(3)[list(perm)] * np.array(signs)[:, None]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    if np.linalg.det(np.eye(3)[list(perm)] * np.array(signs)[:, None]) > 0.0
]


def _parallel_pairs() -> list[tuple[Box3D, Box3D, float]]:
    """Pairs whose boxes have parallel axes, with the closed-form volume.

    a is yawed only, or pitched to +/- pi/2 with a roll, or turned at random;
    b is a itself, or a turned by one of the 24 axis turns (yaw multiples of
    pi/2 among them), its center placed about a's along a's axes so that
    faces are centered, flush inside, or touching from outside.
    """
    rng = np.random.default_rng(67)
    placements = (
        lambda ea, eb: 0.0,
        lambda ea, eb: ea - eb,
        lambda ea, eb: eb - ea,
        lambda ea, eb: ea + eb,
        lambda ea, eb: -ea - eb,
    )
    out = []
    orientations = [EulerOrientation(rng.uniform(-math.pi, math.pi)) for _ in range(3)]
    orientations += [EulerOrientation(rng.uniform(-math.pi, math.pi), pitch, rng.uniform(-math.pi, math.pi))
                     for pitch in (math.pi / 2, -math.pi / 2)]
    orientations += [random_orientation(rng) for _ in range(2)]
    orientations += [EulerOrientation(), EulerOrientation(yaw=math.pi / 2), EulerOrientation(yaw=math.pi)]
    for orientation in orientations:
        rot_a = rotation_from_euler(orientation)
        a = Box3D(center=tuple(rng.uniform(-5.0, 5.0, 3)), dims=tuple(rng.uniform(0.5, 3.0, 3)),
                  orientation=orientation)
        out.append((a, a, a.volume))
        half_a = np.array([a.width, a.height, a.length]) / 2.0
        for turn in _AXIS_TURNS:
            dims = tuple(rng.choice([a.dims, tuple(rng.uniform(0.5, 3.0, 3))]))
            half_b = np.array([dims[1], dims[0], dims[2]]) / 2.0
            # b's axis j runs along a's axis i where turn[i, j] = +/-1.
            along_a = np.abs(turn) @ half_b
            offset = np.array([placements[k](ea, eb) for k, ea, eb in
                               zip(rng.choice(5, 3, p=[0.3, 0.3, 0.3, 0.05, 0.05]), half_a, along_a)])
            overlap = np.minimum(half_a, offset + along_a) - np.maximum(-half_a, offset - along_a)
            b = Box3D(center=tuple(np.asarray(a.center) + rot_a @ offset), dims=dims,
                      orientation=euler_from_rotation(rot_a @ turn))
            out.append((a, b, float(np.prod(np.maximum(overlap, 0.0)))))
    return out


class TestKernelAgainstReference:
    """The kernel against the plane-triple kernel and the half-space clipper,
    both in tests/helpers.py."""

    def test_random_pairs(self):
        pairs = _random_pairs()
        reference = np.array([reference_intersection_volume(a, b) for a, b in pairs])
        single = np.array([intersection_volume(a, b) for a, b in pairs])
        assert np.max(np.abs(single - reference)) <= 1e-12
        # The set holds disjoint pairs and many overlapping ones.
        assert 0 < np.count_nonzero(reference == 0.0) < 1000
        a = _box_arrays([a for a, _ in pairs])
        b = _box_arrays([b for _, b in pairs])
        triple = triple_intersection_volumes(a, b)
        assert np.max(np.abs(_intersection_volumes(a, b) - triple)) <= 1e-12
        volumes = np.array([x.volume + y.volume for x, y in pairs])
        triple = np.minimum(np.maximum(triple, 0.0), [min(x.volume, y.volume) for x, y in pairs])
        iou = single / (volumes - single)
        assert np.max(np.abs(iou - reference / (volumes - reference))) <= 1e-12
        assert np.max(np.abs(iou - triple / (volumes - triple))) <= 1e-12

    def test_one_call_equals_one_pair_calls_by_bytes(self):
        # Each pair gets the bits of its own call in a call of 2,000 pairs,
        # whose widest face is wider than most pairs' own.
        pairs = _random_pairs()
        a = _box_arrays([a for a, _ in pairs])
        b = _box_arrays([b for _, b in pairs])
        batch = _intersection_volumes(a, b)
        single = [_intersection_volumes(tuple(p[k : k + 1] for p in a), tuple(p[k : k + 1] for p in b))
                  for k in range(len(pairs))]
        assert np.concatenate(single).tobytes() == batch.tobytes()
        bounds = [min(x.volume, y.volume) for x, y in pairs]
        assert np.array_equal(np.minimum(np.maximum(batch, 0.0), bounds),
                              [intersection_volume(x, y) for x, y in pairs])

    def test_compacted_faces_equal_padded_kernel(self):
        pairs = _random_pairs()
        a = _box_arrays([a for a, _ in pairs])
        b = _box_arrays([b for _, b in pairs])
        assert triple_intersection_volumes(a, b).tobytes() == padded_intersection_volumes(a, b).tobytes()

    @pytest.mark.parametrize("seed", (43, 47))
    def test_matrix_box_sets(self, seed):
        a, b = _matrix_box_sets(seed)
        out = iou3d_matrix(a, b)
        rows, cols = np.divmod(np.arange(len(a) * len(b)), len(b))
        triple = triple_intersection_volumes(_box_arrays([a[i] for i in rows]), _box_arrays([b[j] for j in cols]))
        for k, (i, j) in enumerate(zip(rows, cols)):
            box_a, box_b = a[i], b[j]
            inter = reference_intersection_volume(box_a, box_b)
            assert abs(intersection_volume(box_a, box_b) - inter) <= 1e-12, (i, j)
            union = box_a.volume + box_b.volume - inter
            assert abs(out[i, j] - inter / union) <= 1e-12, (i, j)
            clamped = min(max(float(triple[k]), 0.0), box_a.volume, box_b.volume)
            assert abs(out[i, j] - clamped / (box_a.volume + box_b.volume - clamped)) <= 1e-12, (i, j)

    def test_parallel_pairs(self):
        # Identical boxes, yaw at multiples of pi/2, pitch +/- pi/2: the
        # redundant-plane rule and the parallel-edge guard both act here.
        pairs = _parallel_pairs()
        a = _box_arrays([a for a, _, _ in pairs])
        b = _box_arrays([b for _, b, _ in pairs])
        m = np.matmul(a[1].swapaxes(1, 2), b[1])
        assert np.count_nonzero(np.abs(m) <= _PARALLEL_EPS) >= 6 * len(pairs)
        with np.errstate(all="raise"):  # no pivot near 0 is ever divided by
            batch = _intersection_volumes(a, b)
        triple = triple_intersection_volumes(a, b)
        expected = np.array([v for _, _, v in pairs])
        assert 0 < np.count_nonzero(expected == 0.0) < len(pairs) // 2
        assert np.max(np.abs(batch - expected)) <= 1e-12
        assert np.max(np.abs(batch - triple)) <= 1e-12
        for (box_a, box_b, volume), inter in zip(pairs, batch):
            assert intersection_volume(box_a, box_b) == min(max(float(inter), 0.0), box_a.volume, box_b.volume)
            assert abs(reference_intersection_volume(box_a, box_b) - volume) <= 1e-12
            assert iou3d(box_a, box_b) == iou3d(box_b, box_a)


_ANGLE = st.floats(-math.pi, math.pi)
# Where b's center sits along one shared local axis, as a function of the two
# half extents: centered, a face flush with a's face on either side, or a face
# touching a's face from outside.
_PLACEMENTS = (
    lambda ea, eb: 0.0,
    lambda ea, eb: ea - eb,
    lambda ea, eb: eb - ea,
    lambda ea, eb: ea + eb,
    lambda ea, eb: -ea - eb,
)


@st.composite
def _near_degenerate_pairs(draw):
    """Two boxes of one rotation with touching or coplanar faces, moved apart
    by at most 1e-9 along each shared axis; returns (a, b, closed-form volume)."""
    pitch = draw(st.sampled_from((math.pi / 2, -math.pi / 2, 0.0)) | _ANGLE)
    orientation = EulerOrientation(draw(_ANGLE), pitch, draw(_ANGLE))
    rot = rotation_from_euler(orientation)
    dims_a = [draw(st.floats(0.5, 1.5)) for _ in range(3)]
    dims_b = [draw(st.sampled_from((d, draw(st.floats(0.5, 1.5))))) for d in dims_a]
    half_a = np.array([dims_a[1], dims_a[0], dims_a[2]]) / 2.0  # local x, y, z
    half_b = np.array([dims_b[1], dims_b[0], dims_b[2]]) / 2.0
    offset = np.array([
        draw(st.sampled_from(_PLACEMENTS))(ea, eb) + draw(st.floats(-1e-9, 1e-9))
        for ea, eb in zip(half_a, half_b)
    ])
    overlap = np.minimum(half_a, offset + half_b) - np.maximum(-half_a, offset - half_b)
    center_a = np.array([draw(st.floats(-30.0, 30.0)) for _ in range(3)])
    # At pitch +/- pi/2 the decomposition folds roll into yaw, so b may carry
    # a different Euler triple for the same rotation.
    orientation_b = draw(st.sampled_from((orientation, euler_from_rotation(rot))))
    a = Box3D(center=tuple(center_a), dims=tuple(dims_a), orientation=orientation)
    b = Box3D(center=tuple(center_a + rot @ offset), dims=tuple(dims_b), orientation=orientation_b)
    return a, b, float(np.prod(np.maximum(overlap, 0.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_near_degenerate_pairs())
def test_near_degenerate_pairs_match_closed_form(pair):
    # The reference snaps points within 1e-9 of a plane onto it, so the two
    # routes may differ by about 1e-9 here; each stays within 1e-8 of exact.
    a, b, expected = pair
    for first, second in ((a, b), (b, a)):
        assert intersection_volume(first, second) == pytest.approx(expected, abs=1e-8)
        assert reference_intersection_volume(first, second) == pytest.approx(expected, abs=1e-8)


class TestConvexPolytope:
    def test_from_box_validates(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            ConvexPolytope.from_box(random_box(rng)).validate()

    def test_box_volume(self):
        box = Box3D(center=(3, -1, 2), dims=(1.5, 2.5, 3.5),
                    orientation=EulerOrientation(0.9, -0.4, 0.2))
        assert ConvexPolytope.from_box(box).volume() == pytest.approx(box.volume, rel=1e-9)

    def test_clip_keeps_half(self):
        poly = ConvexPolytope.from_box(Box3D(center=(0, 0, 0), dims=(2, 2, 2)))
        clipped = poly.clip_halfspace(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        clipped.validate()
        assert clipped.volume() == pytest.approx(4.0, abs=1e-9)

    def test_clip_to_empty(self):
        poly = ConvexPolytope.from_box(Box3D(center=(0, 0, 0), dims=(2, 2, 2)))
        assert poly.clip_halfspace(np.array([5.0, 0, 0]), np.array([-1.0, 0, 0])) is None

    def test_clip_on_supporting_plane_is_noop(self):
        poly = ConvexPolytope.from_box(Box3D(center=(0, 0, 0), dims=(2, 2, 2)))
        clipped = poly.clip_halfspace(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
        clipped.validate()
        assert clipped.volume() == pytest.approx(8.0, abs=1e-9)
