import itertools
import math

import numpy as np
import pytest

import helpers
from roadkit import synth
from roadkit.camera import ProjectedBox, project_box
from roadkit.errors import GenerationError, ValidationError
from roadkit.evaluation import evaluate
from roadkit.formats import DatasetManifest, Occlusion, dump_calibration, dump_manifest
from roadkit.geometry import box_corners, rotation_from_euler
from roadkit.synth import (
    NOMINAL_DIMS,
    TIME_TAGS,
    WEATHER_TAGS,
    NoiseSpec,
    SceneConfig,
    _class_sampler,
    _pick_class,
    _world_box_rotations,
    corrupt_detections,
    generate_corpus,
    generate_scene,
)

from helpers import reference_generate_scene, rot_z


SMALL = SceneConfig(objects_per_frame=(3, 8))


class TestSceneConfig:
    def test_defaults_match_roadside_setup(self):
        config = SceneConfig()
        assert config.image_size == (1920, 1080)
        assert config.horizontal_fov_deg == 120.0
        assert config.max_range == 150.0
        assert config.pitch_range_deg == (-45.0, -25.0)

    def test_intrinsics_from_fov(self):
        intr = SceneConfig().intrinsics()
        # fx = (W/2) / tan(fov/2) for a 120 degree horizontal field of view.
        assert intr.fx == pytest.approx(960.0 / math.tan(math.radians(60.0)))
        assert (intr.cx, intr.cy) == (960.0, 540.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SceneConfig(horizontal_fov_deg=0.0)
        with pytest.raises(ValidationError):
            SceneConfig(max_range=-1.0)
        for max_range in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                SceneConfig(max_range=max_range)
        with pytest.raises(ValidationError):
            SceneConfig(pitch_range_deg=(10.0, 20.0))
        with pytest.raises(ValidationError):
            SceneConfig(objects_per_frame=(5, 2))
        with pytest.raises(ValidationError):
            SceneConfig(class_mix=(("Bike", 1.0),))
        # Objects are placed at [min_range, 0.95 max_range] and false
        # positives at [min_range, 0.9 max_range].
        for min_range, max_range in ((8.0, 5.0), (9.5, 10.0), (0.0, 150.0), (-1.0, 150.0)):
            with pytest.raises(ValidationError):
                SceneConfig(min_range=min_range, max_range=max_range)
        SceneConfig(min_range=9.0, max_range=10.0)
        for mix in ((), (("Car", 0.0),), (("Car", 0.0), ("Bus", 0.0)), (("Car", math.nan),),
                    (("Car", math.inf),), (("Car", -0.5), ("Bus", 1.0)), (("Car", 1e308), ("Bus", 1e308))):
            with pytest.raises(ValidationError):
                SceneConfig(class_mix=mix)
        SceneConfig(class_mix=(("Car", 0.0), ("Bus", 2.0)))

    def test_noise_validation(self):
        with pytest.raises(ValidationError):
            NoiseSpec(drop_rate=1.5)
        with pytest.raises(ValidationError):
            NoiseSpec(fp_rate=-1.0)
        with pytest.raises(ValidationError):
            NoiseSpec(score_scale=0.0)
        for name in ("drop_rate", "fp_rate", "center_sigma", "dim_sigma", "angle_sigma", "score_scale"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValidationError, match=name):
                    NoiseSpec(**{name: value})


class TestSceneHelpers:
    @pytest.mark.parametrize(
        "mix",
        [
            (("Car", 0.7), ("Truck", 0.15), ("Bus", 0.15)),
            (("Bus", 3.0), ("Car", 0.0), ("Truck", 1.0)),
            (("Truck", 1e-3), ("Car", 2.5), ("Bus", 0.1), ("Car", 0.4)),
        ],
    )
    def test_class_sampler_matches_rng_choice(self, mix):
        names, cdf = _class_sampler(mix)
        weights = np.array([w for _, w in mix])
        ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(10_000):
            expected = mix[int(theirs.choice(len(mix), p=weights / weights.sum()))][0]
            assert _pick_class(ours, names, cdf) == expected
        assert ours.random() == theirs.random()

    def test_zero_weight_class_not_drawn_on_a_cdf_step(self):
        class FixedDraw:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        names, cdf = _class_sampler((("Car", 0.0), ("Bus", 3.0), ("Truck", 0.0), ("Bus", 1.0)))
        for u in (0.0, 0.75, 0.999):
            assert _pick_class(FixedDraw(u), names, cdf) == "Bus"

    def test_world_box_rotation_matches_cross_product(self):
        yaws = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 1e-300, -1e-300]
        yaws += list(np.random.default_rng(5).uniform(-math.pi, math.pi, 500))
        down = np.array([0.0, 0.0, -1.0])
        for yaw, got in zip(yaws, _world_box_rotations(yaws)):
            heading = rot_z(yaw) @ np.array([1.0, 0.0, 0.0])
            expected = np.column_stack([np.cross(down, heading), down, heading])
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(SMALL, seed=7)
        b = generate_scene(SMALL, seed=7)
        assert a.frame == b.frame
        assert a.pitch_deg == b.pitch_deg

    def test_seed_changes_content(self):
        a = generate_scene(SMALL, seed=7)
        b = generate_scene(SMALL, seed=8)
        assert a.frame.annotations != b.frame.annotations

    def test_object_count_in_range(self):
        for seed in range(10):
            sample = generate_scene(SMALL, seed=seed)
            assert 3 <= len(sample.frame.annotations) <= 8

    def test_pitch_within_configured_range(self):
        for seed in range(20):
            sample = generate_scene(SMALL, seed=seed)
            assert -45.0 <= sample.pitch_deg <= -25.0

    def test_boxes_visible_and_annotated(self):
        sample = generate_scene(SMALL, seed=3)
        intr = sample.calibration.intrinsics
        for ann in sample.frame.annotations:
            assert ann.class_name in NOMINAL_DIMS
            assert ann.occlusion is Occlusion.FULLY_VISIBLE
            assert 0.0 <= ann.truncation <= 1.0
            projected = project_box(intr, ann.box3d)
            assert projected.visible
            assert ann.box2d == projected.rect

    def test_objects_sit_on_ground_plane(self):
        # Transforming camera-frame boxes back to the world frame must put
        # every box bottom at z = 0 and its height axis vertical.
        sample = generate_scene(SMALL, seed=5)
        cam_to_world = sample.calibration.transform("camera", "world")
        for ann in sample.frame.annotations:
            corners_world = cam_to_world.apply(box_corners(ann.box3d))
            assert corners_world[:, 2].min() == pytest.approx(0.0, abs=1e-9)
            assert corners_world[:, 2].max() == pytest.approx(ann.box3d.height, abs=1e-9)

    def test_dims_near_nominal(self):
        sample = generate_scene(SMALL, seed=11)
        for ann in sample.frame.annotations:
            h0, w0, l0 = NOMINAL_DIMS[ann.class_name]
            for got, nominal in zip(ann.box3d.dims, (h0, w0, l0)):
                assert 0.9 * nominal <= got <= 1.1 * nominal

    def test_tags_from_vocabulary(self):
        sample = generate_scene(SMALL, seed=13)
        tags = dict(sample.frame.tags)
        assert tags["weather"] in WEATHER_TAGS
        assert tags["time"] in TIME_TAGS

    def test_unreachable_frustum_raises(self):
        # A letterbox image whose narrow vertical field of view misses the
        # whole configured range band leaves nothing to place.
        config = SceneConfig(
            image_size=(1920, 100), min_range=30.0, objects_per_frame=(1, 1)
        )
        with pytest.raises(GenerationError):
            generate_scene(config, seed=1)


def _outcome(generate, config, seed):
    """Every byte a scene writes, tags and pitch included, or its error."""
    try:
        sample = generate(config, seed)
    except GenerationError as exc:
        return f"GenerationError: {exc}"
    manifest = DatasetManifest(name="scene", class_taxonomy=tuple(sorted(NOMINAL_DIMS)), frames=(sample.frame,))
    return dump_manifest(manifest) + dump_calibration(sample.calibration) + repr(sample.pitch_deg)


# A letterbox image that misses much of the range band: some frames fill up,
# others stop at their 200th consecutive miss on a first or a later object.
SPARSE = SceneConfig(image_size=(1920, 160), min_range=20.0, objects_per_frame=(2, 6))


class TestBlockPlacement:
    """generate_scene against the one-attempt-at-a-time reference, by bytes."""

    @pytest.mark.parametrize(
        "config, seeds",
        [
            (SceneConfig(), range(40)),
            (SceneConfig(horizontal_fov_deg=20.0), range(8)),
            (SceneConfig(image_size=(64, 48)), range(30)),
            (SceneConfig(objects_per_frame=(40, 80)), range(8)),
            (SceneConfig(objects_per_frame=(0, 0)), range(5)),
        ],
        ids=["default", "narrow-fov", "tiny-image", "dense", "empty"],
    )
    def test_scenes_match_reference(self, config, seeds):
        for seed in seeds:
            assert _outcome(generate_scene, config, seed) == _outcome(reference_generate_scene, config, seed)

    def test_generation_errors_match_reference(self):
        outcomes = [_outcome(generate_scene, SPARSE, seed) for seed in range(14)]
        assert outcomes == [_outcome(reference_generate_scene, SPARSE, seed) for seed in range(14)]
        errors = [text for text in outcomes if text.startswith("GenerationError")]
        assert "GenerationError: could not place object 1 of 5; config frustum too small " \
               "for the requested density" in errors
        assert "GenerationError: could not place object 6 of 6; config frustum too small " \
               "for the requested density" in errors
        assert len(errors) < len(outcomes)

    @pytest.mark.parametrize(
        "hidden, error",
        [
            (range(1, 200), None),
            (range(1, 201), "object 1 of 2"),
            ({*range(1, 200), *range(201, 401)}, "object 2 of 2"),
        ],
        ids=["placed-on-200th", "200-misses", "second-object-200-misses"],
    )
    def test_two_hundred_attempts_per_object(self, monkeypatch, hidden, error):
        # Attempts numbered in `hidden` project outside the image: an object
        # still placed on its 200th attempt is kept, a 200th miss in a row fails.
        def hide_listed():
            attempts = itertools.count(1)
            return lambda projected: ProjectedBox(None, False) if next(attempts) in hidden else projected

        hide_new, hide_ref = hide_listed(), hide_listed()
        project_boxes, reference_project_box = synth._project_boxes, helpers.reference_project_box
        monkeypatch.setattr(synth, "_project_boxes", lambda i, boxes: list(map(hide_new, project_boxes(i, boxes))))
        monkeypatch.setattr(helpers, "reference_project_box", lambda i, box: hide_ref(reference_project_box(i, box)))
        config = SceneConfig(objects_per_frame=(2, 2))
        outcome = _outcome(generate_scene, config, 5)
        assert outcome == _outcome(reference_generate_scene, config, 5)
        if error is None:
            assert outcome.count('"class_name"') == 2
        else:
            assert outcome == f"GenerationError: could not place {error}; " \
                              "config frustum too small for the requested density"

    @pytest.mark.parametrize(
        "distort, message",
        [
            (lambda r: r * 1.01, "not orthonormal"),
            (lambda r: r * np.array([[1.0], [1.0], [-1.0]]), "determinant"),
        ],
        ids=["scaled", "reflected"],
    )
    def test_rotation_check_kept(self, monkeypatch, distort, message):
        camera_pose = synth._camera_pose

        def bad_pose(pitch_deg, camera_height):
            extrinsics = camera_pose(pitch_deg, camera_height)
            object.__setattr__(extrinsics, "rotation", distort(extrinsics.rotation))
            return extrinsics

        monkeypatch.setattr(synth, "_camera_pose", bad_pose)
        for generate in (generate_scene, reference_generate_scene):
            with pytest.raises(ValidationError, match=message):
                generate(SMALL, seed=3)


class TestGenerateCorpus:
    def test_manifest_structure(self):
        manifest, calibrations = generate_corpus(SMALL, n_frames=6, seed=21)
        assert len(manifest.frames) == 6
        assert manifest.class_taxonomy == ("Bus", "Car", "Truck")
        assert manifest.frame_ids == tuple(f"synth-21-{i:06d}" for i in range(6))
        for frame in manifest.frames:
            assert frame.calibration_ref in calibrations

    def test_deterministic(self):
        a, _ = generate_corpus(SMALL, n_frames=4, seed=33)
        b, _ = generate_corpus(SMALL, n_frames=4, seed=33)
        assert a == b

    def test_frames_vary(self):
        manifest, _ = generate_corpus(SMALL, n_frames=4, seed=33)
        assert len({f.annotations for f in manifest.frames}) == 4

    def test_frame_count_must_not_be_negative(self):
        with pytest.raises(ValidationError):
            generate_corpus(SMALL, n_frames=-3, seed=33)
        manifest, calibrations = generate_corpus(SMALL, n_frames=0, seed=33)
        assert manifest.frames == () and calibrations == {}


class TestCorruptDetections:
    def test_zero_noise_copies_ground_truth(self):
        sample = generate_scene(SMALL, seed=41)
        detections = corrupt_detections(sample.frame, NoiseSpec(), seed=1, config=SMALL)
        assert len(detections) == len(sample.frame.annotations)
        for ann, det in zip(sample.frame.annotations, detections):
            assert det.score == 1.0
            assert det.class_name == ann.class_name
            assert det.box3d == ann.box3d

    def test_drop_all(self):
        sample = generate_scene(SMALL, seed=41)
        detections = corrupt_detections(
            sample.frame, NoiseSpec(drop_rate=1.0), seed=1, config=SMALL
        )
        assert detections == []

    def test_deterministic(self):
        sample = generate_scene(SMALL, seed=41)
        noise = NoiseSpec(drop_rate=0.3, center_sigma=0.2, fp_rate=1.0)
        a = corrupt_detections(sample.frame, noise, seed=5, config=SMALL)
        b = corrupt_detections(sample.frame, noise, seed=5, config=SMALL)
        assert a == b

    def test_score_decreases_with_perturbation(self):
        sample = generate_scene(SMALL, seed=43)
        noise = NoiseSpec(center_sigma=0.5, dim_sigma=0.1, angle_sigma=0.05)
        detections = corrupt_detections(sample.frame, noise, seed=2, config=SMALL)
        for ann, det in zip(sample.frame.annotations, detections):
            shift = float(
                np.linalg.norm(np.asarray(det.box3d.center) - np.asarray(ann.box3d.center))
            )
            assert det.score <= math.exp(-shift)  # other noise terms only lower it
            assert 0.0 < det.score < 1.0

    def test_false_positive_rate(self):
        sample = generate_scene(SceneConfig(objects_per_frame=(0, 0)), seed=47)
        total = 0
        for seed in range(200):
            total += len(
                corrupt_detections(sample.frame, NoiseSpec(fp_rate=2.0), seed=seed)
            )
        assert total / 200 == pytest.approx(2.0, abs=0.4)

    def test_negative_seed_rejected(self):
        sample = generate_scene(SMALL, seed=41)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            corrupt_detections(sample.frame, NoiseSpec(), seed=-1, config=SMALL)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            generate_scene(SMALL, seed=-1)

    def test_false_positives_have_low_scores(self):
        sample = generate_scene(SceneConfig(objects_per_frame=(0, 0)), seed=47)
        for det in corrupt_detections(sample.frame, NoiseSpec(fp_rate=5.0), seed=3):
            assert det.score <= 0.3


class TestEndToEnd:
    def test_zero_noise_scores_perfectly(self):
        manifest, _ = generate_corpus(SMALL, n_frames=5, seed=55)
        detections = {
            f.frame_id: corrupt_detections(f, NoiseSpec(), seed=i, config=SMALL)
            for i, f in enumerate(manifest.frames)
        }
        report = evaluate(manifest, detections)
        for level in ("easy", "moderate", "hard"):
            for cls_name, by_level in report.cells.items():
                if by_level[level].gt > 0:
                    assert by_level[level].ap == 100.0
