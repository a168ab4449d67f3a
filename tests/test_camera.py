import math

import numpy as np
import pytest

from roadkit.camera import (
    Intrinsics,
    ProjectedBox,
    RigidTransform,
    backproject_point,
    project_box,
    project_point,
    transform_box,
)
from roadkit.camera import BEHIND_CAMERA_EPS, _project_boxes, _transform_boxes
from roadkit.errors import BehindCameraError, FrameMismatchError, ValidationError
from roadkit.geometry import (
    Box3D,
    EulerOrientation,
    _first_invalid_rotation,
    box_corners,
    rotation_from_euler,
)

from helpers import (
    random_box,
    reference_box_corners,
    reference_project_box,
    reference_transform_box,
    reference_validate_rotation,
    rot_y,
)


def make_intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0):
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, image_width=1920, image_height=1080)


def make_rigid(seed=0, source="lidar", target="camera"):
    rng = np.random.default_rng(seed)
    rot = rotation_from_euler(EulerOrientation(*rng.uniform(-math.pi, math.pi, 3)))
    return RigidTransform(
        rotation=rot,
        translation=rng.uniform(-3, 3, 3),
        source_frame=source,
        target_frame=target,
    )


class TestIntrinsics:
    def test_matrix_layout(self):
        intr = make_intrinsics()
        np.testing.assert_allclose(
            intr.matrix, [[1000, 0, 960], [0, 1000, 540], [0, 0, 1]], atol=0
        )

    def test_matrix_round_trip(self):
        intr = make_intrinsics(fx=554.3, fy=553.1, cx=959.5, cy=539.5)
        again = Intrinsics.from_matrix(intr.matrix, (1920, 1080))
        assert again == intr

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            make_intrinsics(fx=0.0)
        with pytest.raises(ValidationError):
            make_intrinsics(fy=-1.0)
        with pytest.raises(ValidationError):
            make_intrinsics(cx=1920.0)
        with pytest.raises(ValidationError):
            make_intrinsics(cy=-1.0)

    def test_from_matrix_rejects_non_pinhole(self):
        bad = np.array([[1000, 0, 960], [5, 1000, 540], [0, 0, 1]], dtype=float)
        with pytest.raises(ValidationError):
            Intrinsics.from_matrix(bad, (1920, 1080))
        # NaN compares false, so it must not slip past the pinhole check.
        for row, col in ((2, 0), (2, 2), (1, 0), (0, 1)):
            k = make_intrinsics().matrix
            k[row, col] = math.nan
            with pytest.raises(ValidationError, match="non-finite"):
                Intrinsics.from_matrix(k, (1920, 1080))
        with pytest.raises(ValidationError):
            Intrinsics.from_matrix(np.eye(4), (1920, 1080))


class TestRigidTransform:
    def test_apply_single_and_batch(self):
        t = make_rigid(1)
        p = np.array([1.0, 2.0, 3.0])
        expected = t.rotation @ p + t.translation
        np.testing.assert_allclose(t.apply(p), expected, atol=1e-12)
        batch = np.array([p, 2 * p, -p])
        np.testing.assert_allclose(t.apply(batch)[1], t.rotation @ (2 * p) + t.translation)

    def test_inverse_round_trip(self):
        t = make_rigid(2)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, (50, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-9)
        assert t.inverse().source_frame == "camera"
        assert t.inverse().target_frame == "lidar"

    def test_compose_matches_sequential_application(self):
        ab = make_rigid(4, source="lidar", target="camera")
        bc = make_rigid(5, source="camera", target="world")
        p = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(
            bc.compose(ab).apply(p), bc.apply(ab.apply(p)), atol=1e-12
        )
        assert bc.compose(ab).source_frame == "lidar"
        assert bc.compose(ab).target_frame == "world"

    def test_compose_frame_mismatch(self):
        ab = make_rigid(6, source="lidar", target="camera")
        with pytest.raises(FrameMismatchError):
            ab.compose(ab)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 2, np.zeros(3), "a", "b")
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3), np.zeros(3), "a", "a")
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3), np.array([np.nan, 0, 0]), "a", "b")
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3), np.zeros(3), "", "b")

    def test_matrix_3x4(self):
        t = make_rigid(7)
        m = t.matrix_3x4
        assert m.shape == (3, 4)
        np.testing.assert_array_equal(m[:, :3], t.rotation)
        np.testing.assert_array_equal(m[:, 3], t.translation)

    def test_arrays_are_read_only(self):
        t = make_rigid(8)
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 5.0


class TestProjection:
    def test_principal_ray_hits_principal_point_exactly(self):
        intr = make_intrinsics()
        for depth in (0.5, 1.0, 37.5):
            pt = project_point(intr, None, np.array([0.0, 0.0, depth]))
            assert (pt.u, pt.v) == (intr.cx, intr.cy)
            assert pt.w == depth

    def test_scale_factor_is_depth(self):
        intr = make_intrinsics()
        pt = project_point(intr, None, np.array([3.0, -2.0, 25.0]))
        assert pt.w == 25.0
        assert pt.u == pytest.approx(960.0 + 1000.0 * 3.0 / 25.0)
        assert pt.v == pytest.approx(540.0 - 1000.0 * 2.0 / 25.0)

    def test_behind_camera_raises(self):
        intr = make_intrinsics()
        with pytest.raises(BehindCameraError):
            project_point(intr, None, np.array([0.0, 0.0, -1.0]))
        with pytest.raises(BehindCameraError):
            project_point(intr, None, np.array([1.0, 1.0, 0.0]))

    def test_projection_with_extrinsics(self):
        intr = make_intrinsics()
        rig = make_rigid(9)
        p_lidar = np.array([2.0, 1.0, 0.5])
        p_cam = rig.apply(p_lidar)
        if p_cam[2] <= 0:
            p_lidar = rig.inverse().apply(np.array([0.5, 0.2, 10.0]))
            p_cam = rig.apply(p_lidar)
        direct = project_point(intr, None, p_cam)
        via = project_point(intr, rig, p_lidar)
        assert via.u == pytest.approx(direct.u, abs=1e-9)
        assert via.v == pytest.approx(direct.v, abs=1e-9)

    def test_backprojection_round_trip(self):
        intr = make_intrinsics(fx=554.3, fy=554.3)
        rig = make_rigid(10)
        rng = np.random.default_rng(12)
        for _ in range(200):
            cam = np.array([rng.uniform(-20, 20), rng.uniform(-10, 10), rng.uniform(1, 120)])
            src = rig.inverse().apply(cam)
            pt = project_point(intr, rig, src)
            back = backproject_point(intr, rig, pt.u, pt.v, pt.w)
            np.testing.assert_allclose(back, src, atol=1e-8)

    def test_backproject_rejects_bad_depth(self):
        with pytest.raises(ValidationError):
            backproject_point(make_intrinsics(), None, 960.0, 540.0, 0.0)


class TestTransformBox:
    def test_moves_corners_consistently(self):
        rig = make_rigid(13)
        rng = np.random.default_rng(14)
        for _ in range(100):
            box = random_box(rng)
            moved = transform_box(rig, box)
            np.testing.assert_allclose(
                np.sort(box_corners(moved), axis=0),
                np.sort(rig.apply(box_corners(box)), axis=0),
                atol=1e-9,
            )
            assert moved.dims == box.dims

    def test_frame_check(self):
        rig = make_rigid(15)
        box = Box3D(center=(0, 0, 10), dims=(1, 1, 1))
        transform_box(rig, box, box_frame="lidar")  # matching frame passes
        with pytest.raises(FrameMismatchError):
            transform_box(rig, box, box_frame="camera")


def box_bytes(box: Box3D) -> bytes:
    """Every float of a box, by its bytes, so signed zeros count."""
    return np.array([*box.center, *box.dims, *box.orientation.as_tuple()]).tobytes()


def assert_batch_equals_reference(rigid, boxes):
    moved = _transform_boxes(rigid, boxes)
    assert len(moved) == len(boxes)
    for got, box in zip(moved, boxes):
        assert box_bytes(got) == box_bytes(reference_transform_box(rigid, box))
        assert box_bytes(transform_box(rigid, box)) == box_bytes(got)


class TestTransformBoxes:
    """The batched frame change against the per-box reference, bit for bit."""

    def test_random_boxes_and_transforms(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            rigid = make_rigid(seed)
            boxes = [random_box(rng) for _ in range(int(rng.integers(1, 40)))]
            assert_batch_equals_reference(rigid, boxes)

    def test_far_boxes_and_large_translations(self):
        rng = np.random.default_rng(22)
        rot = rotation_from_euler(EulerOrientation(*rng.uniform(-math.pi, math.pi, 3)))
        rigid = RigidTransform(rot, rng.uniform(-1e4, 1e4, 3), "lidar", "camera")
        boxes = [
            Box3D(tuple(rng.uniform(-1e5, 1e5, 3)), (1.5, 1.8, 4.2), EulerOrientation(*rng.uniform(-9, 9, 3)))
            for _ in range(200)
        ]
        assert_batch_equals_reference(rigid, boxes)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pitch_near_quarter_turn_folds_like_reference(self, sign):
        # Within 1e-6 of +-pi/2 the decomposition folds roll into yaw; just
        # outside it does not. A rotation about y keeps the pitch.
        offsets = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 5e-7, -5e-7, 2e-6, -2e-6, 1e-5)
        boxes = [
            Box3D((1.0, -2.0, 15.0), (1.5, 1.6, 3.9), EulerOrientation(yaw, sign * (math.pi / 2 + d), roll))
            for d in offsets
            for yaw in (0.0, 0.3, -2.9)
            for roll in (0.0, 0.7, -1.1)
        ]
        for angle in (0.0, 0.4, -1.3, math.pi):
            rigid = RigidTransform(rot_y(angle), np.array([0.5, -0.25, 3.0]), "lidar", "camera")
            assert_batch_equals_reference(rigid, boxes)
        moved = _transform_boxes(RigidTransform(np.eye(3), np.zeros(3), "lidar", "camera"), boxes)
        rolls = [(b.orientation.roll, m.orientation.roll) for b, m in zip(boxes, moved)]
        assert any(before != 0.0 and after == 0.0 for before, after in rolls)  # folded
        assert any(before != 0.0 and after != 0.0 for before, after in rolls)  # not folded

    def test_signed_zero_angles_and_centers(self):
        zeros = (0.0, -0.0)
        boxes = [
            Box3D((cx, -0.0, 0.0), (1.0, 2.0, 3.0), EulerOrientation(yaw, pitch, roll))
            for cx in zeros
            for yaw in zeros
            for pitch in zeros
            for roll in zeros
        ]
        for rigid in (
            RigidTransform(np.eye(3), np.array([0.0, -0.0, 0.0]), "lidar", "camera"),
            RigidTransform(rot_y(math.pi), np.array([-0.0, 0.0, -0.0]), "lidar", "camera"),
            make_rigid(23),
        ):
            assert_batch_equals_reference(rigid, boxes)

    def test_empty(self):
        assert _transform_boxes(make_rigid(24), []) == []

    def test_batch_equals_one_box_calls(self):
        rng = np.random.default_rng(25)
        rigid = make_rigid(25)
        boxes = [random_box(rng) for _ in range(300)]
        batch = [box_bytes(b) for b in _transform_boxes(rigid, boxes)]
        assert batch == [box_bytes(_transform_boxes(rigid, [b])[0]) for b in boxes]

    def test_non_rotation_in_batch_raises_like_reference(self):
        # R = I + e(J - I)/2 passes the 1e-6 checks (|R^T R - I| <= ~e, det
        # ~ 1 + O(e^2)), but R^T R - I has eigenvalue 2e along (1, 1, 1). A
        # box whose local z points that way makes the product fail them.
        eps = 0.9e-6
        rot = np.eye(3) + 0.5 * eps * (np.ones((3, 3)) - np.eye(3))
        rigid = RigidTransform(rot, np.zeros(3), "lidar", "camera")
        tilted = EulerOrientation(math.pi / 4, -math.asin(1.0 / math.sqrt(3.0)), 0.2)
        good = Box3D((1.0, 2.0, 20.0), (1.5, 1.8, 4.2))
        bad = Box3D((3.0, 1.0, 25.0), (1.5, 1.8, 4.2), tilted)
        reference_transform_box(rigid, good)
        with pytest.raises(ValidationError) as expected:
            reference_transform_box(rigid, bad)
        for boxes in ([bad], [good, bad, good], [good, good, bad]):
            with pytest.raises(ValidationError) as got:
                _transform_boxes(rigid, boxes)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value) == "rotation matrix is not orthonormal"

    def test_first_invalid_rotation_matches_validate_rotation(self):
        good = rotation_from_euler(EulerOrientation(0.3, -0.2, 1.1))
        non_finite = good.copy()
        non_finite[1, 2] = np.nan
        skewed = good * 1.01
        reflected = good @ np.diag([1.0, 1.0, -1.0])
        for faulty in (non_finite, skewed, reflected, np.full((3, 3), np.inf)):
            with pytest.raises(ValidationError) as expected:
                reference_validate_rotation(faulty)
            stack = np.stack([good, good, faulty, skewed, good])
            assert _first_invalid_rotation(stack) == (2, str(expected.value))
        assert _first_invalid_rotation(np.stack([good, good])) == (2, None)
        assert _first_invalid_rotation(np.zeros((0, 3, 3))) == (0, None)


class TestProjectBox:
    def test_box_ahead_is_visible(self):
        intr = make_intrinsics()
        box = Box3D(center=(0, 0, 30), dims=(2, 2, 4))
        projected = project_box(intr, box)
        assert projected.visible
        x1, y1, x2, y2 = projected.rect
        assert 0 <= x1 < x2 <= 1920
        assert 0 <= y1 < y2 <= 1080
        # Near-centered box projects around the principal point.
        assert x1 < 960 < x2
        assert y1 < 540 < y2

    def test_box_behind_is_invisible(self):
        projected = project_box(make_intrinsics(), Box3D(center=(0, 0, -30), dims=(2, 2, 4)))
        assert projected == ProjectedBox(rect=None, visible=False)

    def test_box_outside_image_is_invisible(self):
        projected = project_box(make_intrinsics(), Box3D(center=(500, 0, 10), dims=(2, 2, 4)))
        assert not projected.visible

    def test_partially_clipped_box(self):
        # Wide box in front of the camera spills past the left image edge.
        projected = project_box(make_intrinsics(), Box3D(center=(-9, 0, 10), dims=(2, 2, 4)))
        assert projected.visible
        assert projected.rect[0] == 0.0

    def test_unclipped_rect(self):
        intr = make_intrinsics()
        inside = project_box(intr, Box3D(center=(0, 0, 30), dims=(2, 2, 4)))
        assert inside.unclipped == inside.rect
        clipped = project_box(intr, Box3D(center=(-9, 0, 10), dims=(2, 2, 4)))
        assert clipped.unclipped[0] < clipped.rect[0] == 0.0
        assert clipped.unclipped[1:] == clipped.rect[1:]
        outside = project_box(intr, Box3D(center=(500, 0, 10), dims=(2, 2, 4)))
        assert outside.unclipped[0] > intr.image_width

    def test_known_projected_height(self):
        # 2 m tall box at 50 m with f = 1000 spans 40 px vertically.
        intr = make_intrinsics()
        box = Box3D(center=(0, 0, 50), dims=(2.0, 2.0, 0.001))
        projected = project_box(intr, box)
        assert projected.rect[3] - projected.rect[1] == pytest.approx(40.0, abs=0.5)


class TestProjectBoxes:
    """project_box and its batch form against the one-box reference, by bytes."""

    # A 100 x 100 image whose edges the boxes of test_image_edges reach exactly.
    SQUARE = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, image_width=100, image_height=100)
    SKEWED = Intrinsics(fx=812.5, fy=901.25, cx=311.0, cy=203.5, image_width=640, image_height=480, skew=3.5)

    @staticmethod
    def _check(intrinsics, boxes, extrinsics=None):
        expected = [repr(reference_project_box(intrinsics, box, extrinsics)) for box in boxes]
        assert [repr(project_box(intrinsics, box, extrinsics)) for box in boxes] == expected
        assert [repr(p) for p in _project_boxes(intrinsics, boxes, extrinsics)] == expected

    @pytest.mark.parametrize("intrinsics", [make_intrinsics(), SKEWED])
    def test_boxes_across_the_camera_plane(self, intrinsics):
        # Boxes straddling z = 0 leave every count of corners, 0 to 8, ahead.
        rng = np.random.default_rng(23)
        boxes = [
            Box3D(center=(*rng.uniform(-12.0, 12.0, 2), rng.uniform(-3.0, 3.0)),
                  dims=tuple(rng.uniform(0.3, 6.0, 3)),
                  orientation=EulerOrientation(*rng.uniform(-math.pi, math.pi, 3)))
            for _ in range(3000)
        ]
        ahead = {int((reference_box_corners(b)[:, 2] > BEHIND_CAMERA_EPS).sum()) for b in boxes}
        assert ahead == set(range(9))
        self._check(intrinsics, boxes)
        tilt = RigidTransform(
            rotation=rot_y(0.3), translation=(0.5, -0.2, 0.1), source_frame="lidar", target_frame="camera"
        )
        self._check(intrinsics, boxes, tilt)

    def test_boxes_ahead_behind_and_outside(self):
        rng = np.random.default_rng(29)
        boxes = [random_box(rng, center_spread=40.0, dim_range=(0.5, 12.0)) for _ in range(1000)]
        boxes += [
            Box3D(center=(0, 0, -30), dims=(2, 2, 4)),
            Box3D(center=(500, 0, 10), dims=(2, 2, 4)),
            Box3D(center=(0, -900, 10), dims=(2, 2, 4)),
            Box3D(center=(0, 0, 2e-6), dims=(1e-6, 1e-6, 1e-6)),
        ]
        projected = [reference_project_box(make_intrinsics(), box) for box in boxes]
        assert {(p.visible, p.unclipped is None) for p in projected} == {
            (True, False), (False, False), (False, True),
        }
        self._check(make_intrinsics(), boxes)
        self._check(self.SKEWED, boxes, make_rigid(seed=4, source="lidar"))

    def test_image_edges(self):
        # The nearest face sits at depth 10, so the extreme corners land on
        # whole pixels: u = 100 x / z + 50 and v = 100 y / z + 50 exactly.
        touching_left = Box3D(center=(-4.0, 0.0, 11.0), dims=(2.0, 2.0, 2.0))
        touching_bottom = Box3D(center=(0.0, 4.0, 11.0), dims=(2.0, 2.0, 2.0))
        beyond_left = Box3D(center=(-7.0, 0.0, 11.0), dims=(2.0, 2.0, 2.0))
        left = project_box(self.SQUARE, touching_left)
        assert left.visible and left.unclipped[0] == 0.0 == left.rect[0]
        bottom = project_box(self.SQUARE, touching_bottom)
        assert bottom.visible and bottom.unclipped[3] == 100.0 == bottom.rect[3]
        beyond = project_box(self.SQUARE, beyond_left)
        assert not beyond.visible and beyond.rect is None and beyond.unclipped[2] == 0.0
        self._check(self.SQUARE, [touching_left, touching_bottom, beyond_left])

    def test_empty(self):
        assert _project_boxes(make_intrinsics(), []) == []
