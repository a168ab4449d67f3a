import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import helpers
from roadkit import cli, synth
from roadkit.camera import ProjectedBox, project_box
from roadkit.datasets import splitmix64
from roadkit.errors import GenerationError, RoadkitError, ValidationError
from roadkit.evaluation import evaluate
from roadkit.formats import (
    AnnotationRecord,
    DatasetManifest,
    FrameRecord,
    Occlusion,
    _record,
    _record_row,
    dump_calibration,
    dump_manifest,
)
from roadkit.geometry import Box3D, EulerOrientation, box_corners, rotation_from_euler
from roadkit.synth import (
    NOMINAL_DIMS,
    TIME_TAGS,
    WEATHER_TAGS,
    NoiseSpec,
    SceneConfig,
    _class_sampler,
    _pick_classes,
    _world_box_rotations,
    corrupt_detections,
    generate_corpus,
    generate_scene,
)

from helpers import reference_corrupt_detections, reference_generate_scene, rot_z, typed


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
            assert names[int(_pick_classes(cdf, ours.random()))] == expected
        assert ours.random() == theirs.random()

    def test_zero_weight_class_not_drawn_on_a_cdf_step(self):
        names, cdf = _class_sampler((("Car", 0.0), ("Bus", 3.0), ("Truck", 0.0), ("Bus", 1.0)))
        for u in (0.0, 0.75, 0.999):
            assert names[int(_pick_classes(cdf, u))] == "Bus"
        assert [names[k] for k in _pick_classes(cdf, np.array([0.0, 0.75, 0.999]))] == ["Bus"] * 3

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
            return lambda: next(attempts) in hidden

        hide_new, hide_ref = hide_listed(), hide_listed()
        project_boxes, reference_project_box = synth._project_boxes, helpers.reference_project_box

        def project_hiding(*arrays):
            seen, visible, unclipped, rect = project_boxes(*arrays)
            shown = ~np.array([hide_new() for _ in visible], dtype=bool)
            return seen & shown, visible & shown, unclipped, rect

        monkeypatch.setattr(synth, "_project_boxes", project_hiding)
        monkeypatch.setattr(
            helpers, "reference_project_box",
            lambda i, box: ProjectedBox(None, False) if hide_ref() else reference_project_box(i, box),
        )
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


def frame_seed(seed: int, i: int) -> int:
    """The scene seed of frame i of generate_corpus(..., seed)."""
    return splitmix64((seed ^ i) & ((1 << 64) - 1))[1]


def reference_corpus_frames(config, n_frames, seed):
    """generate_corpus's frames made one at a time by the reference scene."""
    return tuple(
        reference_generate_scene(config, frame_seed(seed, i), frame_id=f"synth-{seed}-{i:06d}").frame
        for i in range(n_frames)
    )


# Up to 60 objects a frame, the empty frame included.
WIDE = SceneConfig(objects_per_frame=(0, 60))


class TestCorpusParity:
    """generate_scene and generate_corpus against the reference scene: equal
    records, with the same field types and float bits."""

    @pytest.mark.parametrize(
        "config, n_frames",
        [(WIDE, 6), (SceneConfig(objects_per_frame=(0, 0)), 3), (SMALL, 0), (SceneConfig(), 5),
         (SceneConfig(image_size=(64, 48)), 8)],
        ids=["0-60", "0-0", "no-frames", "default", "tiny-image"],
    )
    def test_corpus_matches_reference(self, config, n_frames):
        manifest, calibrations = generate_corpus(config, n_frames, seed=77)
        expected = reference_corpus_frames(config, n_frames, 77)
        assert manifest.frames == expected
        assert typed(manifest.frames) == typed(expected)
        assert sorted(calibrations) == sorted(frame.calibration_ref for frame in expected)

    def test_scenes_match_reference(self):
        for seed in range(12):
            got, expected = generate_scene(WIDE, seed), reference_generate_scene(WIDE, seed)
            assert typed(got) == typed(expected)

    def test_small_groups_match_reference(self, monkeypatch):
        # Groups closing every 40 objects split the corpus at many frames.
        monkeypatch.setattr(synth, "_GROUP_OBJECTS", 40)
        manifest, _ = generate_corpus(WIDE, 9, seed=78)
        assert typed(manifest.frames) == typed(reference_corpus_frames(WIDE, 9, 78))
        with pytest.raises(GenerationError) as got:
            generate_corpus(SPARSE, 6, seed=4)
        with pytest.raises(GenerationError) as expected:
            reference_corpus_frames(SPARSE, 6, 4)
        assert str(got.value) == str(expected.value)


# Every sigma zero and nonzero, each drop rate at 0, between and 1, with and
# without false positives.
NOISE_CASES = [
    NoiseSpec(drop_rate=drop, fp_rate=fp, center_sigma=center, dim_sigma=dim, angle_sigma=angle)
    for center, dim, angle in itertools.product((0.0, 0.4), (0.0, 0.1), (0.0, 0.05))
    for drop, fp in ((0.0, 0.0), (0.3, 2.0), (1.0, 0.0), (1.0, 3.0))
]


class TestDetectionParity:
    """corrupt_detections against the one-box-at-a-time reference: equal
    records, with the same field types and float bits."""

    @pytest.fixture(scope="class")
    def frames(self):
        manifest, _ = generate_corpus(WIDE, 5, seed=81)
        return manifest.frames

    @pytest.mark.parametrize("noise", NOISE_CASES, ids=lambda n: f"{n.center_sigma}-{n.dim_sigma}-{n.angle_sigma}"
                             f"-drop{n.drop_rate}-fp{n.fp_rate}")
    def test_records_match_reference(self, frames, noise):
        for i, frame in enumerate(frames):
            got = corrupt_detections(frame, noise, seed=100 + i, config=WIDE)
            expected = reference_corrupt_detections(frame, noise, seed=100 + i, config=WIDE)
            assert got == expected
            assert typed(got) == typed(expected)

    def test_signed_zero_boxes_take_offsets_as_rng_normal_adds_them(self):
        # 5e-324 times a standard normal below 0.5 in size is a zero of its
        # sign; rng.normal adds it to 0.0, so a -0.0 center or angle comes
        # out +0.0, not -0.0.
        box = Box3D(center=(-0.0, -0.0, 12.0), dims=(1.5, 1.8, 4.2), orientation=EulerOrientation(-0.0, -0.0, -0.0))
        frame = FrameRecord("zeros", annotations=[AnnotationRecord("Car", box, frame_id="zeros")] * 40)
        noise = NoiseSpec(center_sigma=5e-324, dim_sigma=5e-324, angle_sigma=5e-324)
        got = corrupt_detections(frame, noise, seed=3)
        assert typed(got) == typed(reference_corrupt_detections(frame, noise, seed=3))
        assert any(math.copysign(1.0, det.box3d.center[0]) > 0 for det in got)

    @pytest.mark.parametrize(
        "noise, fault",
        [
            (NoiseSpec(fp_rate=3.0), "box center must be 3 finite values, got ("),
            # A frame's boxes fault before its false positives do.
            (NoiseSpec(fp_rate=3.0, dim_sigma=1e200), "box volume h * w * l must be finite"),
        ],
        ids=["false-positives", "boxes-first"],
    )
    def test_overflowing_false_positive_raises_like_reference(self, frames, noise, fault):
        # A field of view near 180 degrees puts some false positives far
        # enough out to the side that their lateral offset overflows.
        config = SceneConfig(horizontal_fov_deg=179.0, max_range=1.7e308)
        outcomes = []
        for seed in range(20):
            frame = frames[seed % 2] if noise.dim_sigma else FrameRecord("empty")
            try:
                with np.errstate(over="ignore"):
                    expected = typed(reference_corrupt_detections(frame, noise, seed, config))
            except ValidationError as exc:
                expected = str(exc)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = typed(corrupt_detections(frame, noise, seed, config))
            except ValidationError as exc:
                got = str(exc)
            assert got == expected
            outcomes.append(got)
        faults = [o for o in outcomes if isinstance(o, str)]
        assert faults and all(f.startswith(fault) for f in faults)
        assert len(faults) < len(outcomes) or noise.dim_sigma


class TestNoiseFaultOrder:
    """The noise stage over several frames against reference_corrupt_detections
    run one frame at a time: the earlier frame's fault is raised, whether it
    is a false positive's and the later one a box's, or the reverse."""

    # Some false positives overflow their lateral offset, and every box its volume.
    CONFIG = SceneConfig(horizontal_fov_deg=179.0, max_range=1.7e308)
    NOISE = NoiseSpec(fp_rate=3.0, dim_sigma=1e200)

    def _reference(self, frames, seeds):
        records = []
        for frame, seed in zip(frames, seeds):
            try:
                with np.errstate(over="ignore"):
                    records.append(reference_corrupt_detections(frame, self.NOISE, seed, self.CONFIG))
            except ValidationError as exc:
                return str(exc)
        return typed(records)

    def _stage(self, frames, seeds):
        labels = [[_record_row(ann) for ann in frame.annotations] for frame in frames]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = synth._detection_rows(labels, self.NOISE, seeds, self.CONFIG)
        except ValidationError as exc:
            return str(exc)
        return typed([[_record(row, frame.frame_id) for row in frame_rows] for frame, frame_rows in zip(frames, rows)])

    @pytest.fixture(scope="class")
    def frames(self):
        """A frame holding no box, with the first seed whose false positives
        overflow, and a frame of boxes."""
        empty = FrameRecord("empty")
        seed = next(s for s in range(50) if isinstance(self._reference([empty], [s]), str))
        manifest, _ = generate_corpus(WIDE, 1, seed=81)
        return (empty, seed), (manifest.frames[0], 7)

    @pytest.mark.parametrize("order, fault", [((0, 1), "box center must be 3 finite"), ((1, 0), "box volume")])
    def test_earlier_frame_fault_is_raised(self, frames, order, fault):
        picked = [frames[i] for i in order]
        frame_list, seeds = [frame for frame, _ in picked], [seed for _, seed in picked]
        expected = self._reference(frame_list, seeds)
        assert isinstance(expected, str) and expected.startswith(fault)
        assert self._stage(frame_list, seeds) == expected
        # Each frame alone faults too, so the order of the frames decides.
        assert all(isinstance(self._reference([frame], [seed]), str) for frame, seed in picked)


class TestMagnitudeBits:
    """The noise stage's magnitude against np.linalg.norm and np.sum, row by row, by bits."""

    @staticmethod
    def _rows(scale: str, rng: np.random.Generator, count: int = 4000) -> np.ndarray:
        exponents = {
            "random": rng.uniform(-3.0, 3.0, (count, 3)),
            "huge": rng.uniform(120.0, 160.0, (count, 3)),
            "subnormal": rng.uniform(-323.0, -308.0, (count, 3)),
            "mixed": rng.choice([-320.0, -160.0, -1.0, 0.0, 2.0, 160.0, 307.0], (count, 3)),
        }[scale]
        return rng.standard_normal((count, 3)) * 10.0 ** exponents

    @pytest.mark.parametrize("scale", ["random", "huge", "subnormal", "mixed"])
    def test_matches_per_row_norm_and_sums(self, scale):
        rng = np.random.default_rng(["random", "huge", "subnormal", "mixed"].index(scale))
        center, dims, angles = (self._rows(scale, rng) for _ in range(3))
        with np.errstate(over="ignore"):
            norms = [float(np.linalg.norm(c)) for c in center]
            expected = np.array([
                float(np.linalg.norm(c)) + float(np.sum(np.abs(d))) + float(np.sum(np.abs(a)))
                for c, d, a in zip(center, dims, angles)
            ])
        zeros = np.zeros_like(center)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = synth._magnitudes(center, dims, angles)
            alone = synth._magnitudes(center, zeros, zeros)
        assert got.tobytes() == expected.tobytes()
        assert alone.tobytes() == np.array(norms).tobytes()
        if scale == "huge":
            assert np.isinf(got).any() and np.isfinite(got).any()


def rounds_per_frame(monkeypatch, config, n_frames, seed):
    """Each frame of generate_corpus(config, n_frames, seed) made alone, in
    order, by generate_scene: its fault as (type, message), or None, and the
    placement rounds it ran."""
    move = synth._move_arrays
    calls = []
    monkeypatch.setattr(synth, "_move_arrays", lambda *arrays: calls.append(None) or move(*arrays))
    outcomes = []
    for i in range(n_frames):
        calls.clear()
        try:
            generate_scene(config, frame_seed(seed, i), frame_id=f"synth-{seed}-{i:06d}")
            fault = None
        except RoadkitError as exc:
            fault = (type(exc), str(exc))
        outcomes.append((fault, len(calls)))
    monkeypatch.setattr(synth, "_move_arrays", move)
    return outcomes


def poison_attempts(monkeypatch, attempts: dict[float, float]):
    """Scale the world rotation of each attempt whose yaw draw is a key by
    its value (NaN for a non-finite rotation, 2 for a skewed one)."""
    rotations = synth._world_box_rotations

    def poisoned(yaws):
        out = rotations(yaws)
        for k, yaw in enumerate(yaws):
            if yaw in attempts:
                out[k] *= attempts[yaw]
        return out

    monkeypatch.setattr(synth, "_world_box_rotations", poisoned)


def yaws_by_round(monkeypatch, config, seed, frame_id):
    """The yaw draws of each placement round of one scene."""
    rotations = synth._world_box_rotations
    rounds = []
    monkeypatch.setattr(synth, "_world_box_rotations", lambda yaws: rounds.append(list(yaws)) or rotations(yaws))
    generate_scene(config, seed, frame_id=frame_id)
    monkeypatch.setattr(synth, "_world_box_rotations", rotations)
    return rounds


# A letterbox image 100 px tall with up to 260 objects a frame: of seed 3's
# five frames, frames 1 and 3 miss 200 times in their first block of over
# 200 attempts, and frame 0 places 219 objects over 93 rounds.
LETTERBOX = SceneConfig(image_size=(1920, 100), min_range=20.0, objects_per_frame=(3, 260))


class TestCorpusFaultOrder:
    """generate_corpus places all its frames together, round by round, yet
    raises the fault that making its frames one at a time meets first."""

    def test_earlier_frame_failing_in_a_later_round_comes_first(self, monkeypatch):
        outcomes = rounds_per_frame(monkeypatch, SPARSE, 6, seed=4)
        failed = [(fault, rounds) for fault, rounds in outcomes if fault is not None]
        assert len(failed) >= 2 and failed[-1][1] < failed[0][1]
        with pytest.raises(GenerationError) as got:
            generate_corpus(SPARSE, 6, seed=4)
        assert (type(got.value), str(got.value)) == failed[0][0]

    def test_rotation_fault_in_round_50_comes_before_first_round_misses(self, monkeypatch):
        rounds = yaws_by_round(monkeypatch, LETTERBOX, frame_seed(3, 0), "synth-3-000000")
        assert len(rounds) == 93
        poison_attempts(monkeypatch, {rounds[49][-1]: math.nan})
        outcomes = rounds_per_frame(monkeypatch, LETTERBOX, 5, seed=3)
        assert outcomes[0] == ((ValidationError, "rotation matrix holds non-finite entries"), 50)
        assert [(fault[0], rounds) for fault, rounds in outcomes[1:4:2]] == [(GenerationError, 1)] * 2
        with pytest.raises(ValidationError) as got:
            generate_corpus(LETTERBOX, 5, seed=3)
        assert str(got.value) == "rotation matrix holds non-finite entries"

    def test_first_frame_to_fault_by_round_is_not_raised(self, monkeypatch):
        # Frame 2 faults in its first round, frame 0 only in its 60th; frame
        # 1's 200th miss in a row comes in round 1.
        first = yaws_by_round(monkeypatch, LETTERBOX, frame_seed(3, 0), "synth-3-000000")
        third = yaws_by_round(monkeypatch, LETTERBOX, frame_seed(3, 2), "synth-3-000002")
        poison_attempts(monkeypatch, {first[59][0]: 2.0, third[0][5]: math.nan})
        outcomes = rounds_per_frame(monkeypatch, LETTERBOX, 5, seed=3)
        assert outcomes[0] == ((ValidationError, "rotation matrix is not orthonormal"), 60)
        assert outcomes[2] == ((ValidationError, "rotation matrix holds non-finite entries"), 1)
        with pytest.raises(ValidationError, match="^rotation matrix is not orthonormal$"):
            generate_corpus(LETTERBOX, 5, seed=3)

    def test_cli_raises_first_frame_fault_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        # roadkit synth on the letterbox config: frames 1 and 3 fail in
        # round 1, frame 0 is poisoned in round 30, and frame 2 in round 1.
        @dataclasses.dataclass(frozen=True)
        class Letterbox(SceneConfig):
            image_size: tuple[int, int] = LETTERBOX.image_size
            min_range: float = LETTERBOX.min_range

        monkeypatch.setattr(cli, "SceneConfig", Letterbox)
        first = yaws_by_round(monkeypatch, LETTERBOX, frame_seed(3, 0), "synth-3-000000")
        third = yaws_by_round(monkeypatch, LETTERBOX, frame_seed(3, 2), "synth-3-000002")
        poison_attempts(monkeypatch, {first[29][1]: 2.0, third[0][0]: math.nan})
        outcomes = rounds_per_frame(monkeypatch, LETTERBOX, 5, seed=3)
        assert [rounds for _, rounds in outcomes[:4]] == [30, 1, 1, 1]
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["synth", "--out", str(out), "--frames", "5", "--seed", "3", "--objects", "3,260"])
        assert code == 1
        assert capsys.readouterr() == ("", f"roadkit synth: error: {outcomes[0][0][1]}\n")
        assert outcomes[0][0][1] == "rotation matrix is not orthonormal"
        assert not out.exists()
