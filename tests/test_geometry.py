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
    rot_x,
    rot_y,
    rot_z,
    rotation_from_euler,
    validate_rotation,
)
from roadkit.geometry import _box_arrays, _intersection_volumes

from helpers import (
    ConvexPolytope,
    euler_matrix_oracle,
    monte_carlo_intersection,
    random_box,
    reference_intersection_volume,
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

    def test_orientation_normalizes_on_construction(self):
        o = EulerOrientation(yaw=3 * math.pi, pitch=-math.pi, roll=2 * math.pi)
        assert o.yaw == pytest.approx(math.pi)
        assert o.pitch == pytest.approx(math.pi)
        assert o.roll == pytest.approx(0.0)


class TestRotations:
    def test_factor_matrices(self):
        a = 0.37
        c, s = math.cos(a), math.sin(a)
        np.testing.assert_allclose(rot_x(a), [[1, 0, 0], [0, c, -s], [0, s, c]], atol=1e-15)
        np.testing.assert_allclose(rot_y(a), [[c, 0, s], [0, 1, 0], [-s, 0, c]], atol=1e-15)
        np.testing.assert_allclose(rot_z(a), [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-15)

    def test_composition_matches_factor_product_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
            got = rotation_from_euler(EulerOrientation(yaw, pitch, roll))
            np.testing.assert_allclose(got, euler_matrix_oracle(yaw, pitch, roll), atol=1e-12)

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


class TestKernelAgainstReference:
    """The batched kernel against the half-space clipper in tests/helpers.py."""

    def test_random_pairs(self):
        rng = np.random.default_rng(59)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(2000)]
        reference = np.array([reference_intersection_volume(a, b) for a, b in pairs])
        single = np.array([intersection_volume(a, b) for a, b in pairs])
        assert np.max(np.abs(single - reference)) <= 1e-12
        # The set holds disjoint pairs and many overlapping ones.
        assert 0 < np.count_nonzero(reference == 0.0) < 1000
        # One kernel call over all pairs gives each pair the bits of its own call.
        batch = _intersection_volumes(_box_arrays([a for a, _ in pairs]),
                                      _box_arrays([b for _, b in pairs]))
        bounds = [min(a.volume, b.volume) for a, b in pairs]
        assert np.array_equal(np.minimum(np.maximum(batch, 0.0), bounds), single)

    @pytest.mark.parametrize("seed", (43, 47))
    def test_matrix_box_sets(self, seed):
        a, b = _matrix_box_sets(seed)
        out = iou3d_matrix(a, b)
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                inter = reference_intersection_volume(box_a, box_b)
                assert abs(intersection_volume(box_a, box_b) - inter) <= 1e-12, (i, j)
                union = box_a.volume + box_b.volume - inter
                assert abs(out[i, j] - inter / union) <= 1e-12, (i, j)


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
