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
from roadkit.errors import BehindCameraError, FrameMismatchError, ValidationError
from roadkit.geometry import (
    Box3D,
    EulerOrientation,
    box_corners,
    rotation_from_euler,
)

from helpers import random_box


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
