import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadkit.camera import Intrinsics, RigidTransform
from roadkit.errors import (
    CalibrationError,
    ParseError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from roadkit.formats import (
    AnnotationRecord,
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    Occlusion,
    dataset_stats,
    dump_calibration,
    dump_manifest,
    load_manifest,
    parse_calibration,
    parse_labels,
    remap_classes,
    write_labels,
)
from roadkit.geometry import Box3D, EulerOrientation, rotation_from_euler

from helpers import make_annotation, make_detection


BASE_LINE = "Car 0 0 0.1 100 200 300 400 1.5 1.8 4.2 2 1 20 0.5"


def random_record(rng: np.random.Generator, with_score: bool, frame_id: str = ""):
    kwargs = dict(
        class_name=rng.choice(["Car", "Truck", "Bus", "Pedestrian"]),
        center=tuple(rng.uniform(-40, 40, 3)),
        dims=tuple(rng.uniform(0.3, 6.0, 3)),
        yaw=rng.uniform(-math.pi, math.pi),
        pitch=rng.uniform(-1.2, 1.2),
        roll=rng.uniform(-1.2, 1.2),
        truncation=float(rng.uniform(0, 1)),
        occlusion=Occlusion(int(rng.integers(0, 4))),
        box2d=tuple(sorted(rng.uniform(0, 1920, 2))) + tuple(sorted(rng.uniform(0, 1080, 2)))
        if rng.random() < 0.7
        else None,
        frame_id=frame_id,
    )
    if kwargs["box2d"] is not None:
        x1, x2, y1, y2 = kwargs["box2d"]
        kwargs["box2d"] = (x1, y1, x2, y2)
    if with_score:
        return make_detection(score=float(rng.uniform(0, 1)), **kwargs)
    return make_annotation(**kwargs)


class TestRecords:
    def test_truncation_bounds(self):
        with pytest.raises(ValidationError):
            make_annotation(truncation=1.5)
        with pytest.raises(ValidationError):
            make_annotation(truncation=-0.1)

    def test_score_bounds(self):
        with pytest.raises(ValidationError):
            make_detection(score=1.5)
        with pytest.raises(ValidationError):
            make_detection(score=-0.1)

    def test_occlusion_coerced(self):
        ann = AnnotationRecord(class_name="Car", box3d=Box3D((0, 0, 10), (1, 1, 1)), occlusion=2)
        assert ann.occlusion is Occlusion.HEAVILY

    def test_manifest_rejects_duplicate_frames(self):
        frame = FrameRecord(frame_id="f0")
        with pytest.raises(ValidationError):
            DatasetManifest(name="d", class_taxonomy=("Car",), frames=(frame, frame))

    def test_manifest_rejects_unknown_class(self):
        frame = FrameRecord(frame_id="f0", annotations=(make_annotation(class_name="Bike"),))
        with pytest.raises(ValidationError):
            DatasetManifest(name="d", class_taxonomy=("Car",), frames=(frame,))

    def test_frame_tags_sorted(self):
        frame = FrameRecord(frame_id="f0", tags={"weather": "sunny", "time": "day"})
        assert frame.tags == (("time", "day"), ("weather", "sunny"))


class TestKittiParsing:
    def test_base_15_columns(self):
        (rec,) = parse_labels(BASE_LINE + "\n")
        assert type(rec) is AnnotationRecord
        assert rec.class_name == "Car"
        assert rec.box2d == (100.0, 200.0, 300.0, 400.0)
        assert rec.box3d.dims == (1.5, 1.8, 4.2)
        assert rec.box3d.center == (2.0, 1.0, 20.0)
        assert rec.box3d.orientation == EulerOrientation(0.5, 0.0, 0.0)

    def test_16_columns_is_score(self):
        (rec,) = parse_labels(BASE_LINE + " 0.9\n")
        assert isinstance(rec, DetectionRecord)
        assert rec.score == 0.9
        assert rec.box3d.orientation.pitch == 0.0

    def test_17_columns_is_pitch_roll(self):
        (rec,) = parse_labels(BASE_LINE + " 0.1 -0.2\n")
        assert type(rec) is AnnotationRecord
        assert rec.box3d.orientation == EulerOrientation(0.5, 0.1, -0.2)

    def test_18_columns_is_pitch_roll_score(self):
        (rec,) = parse_labels(BASE_LINE + " 0.1 -0.2 0.75\n")
        assert isinstance(rec, DetectionRecord)
        assert rec.box3d.orientation == EulerOrientation(0.5, 0.1, -0.2)
        assert rec.score == 0.75

    def test_missing_box2d_sentinel(self):
        line = "Car 0 0 0.1 -1 -1 -1 -1 1.5 1.8 4.2 2 1 20 0.5"
        (rec,) = parse_labels(line)
        assert rec.box2d is None

    def test_blank_lines_skipped(self):
        assert len(parse_labels("\n" + BASE_LINE + "\n\n" + BASE_LINE + "\n")) == 2

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as exc:
            parse_labels("Car 0 0\n")
        assert exc.value.line == 1

    def test_bad_number_reports_line_and_field(self):
        bad = BASE_LINE.replace("4.2", "abc")
        with pytest.raises(ParseError) as exc:
            parse_labels(BASE_LINE + "\n" + bad + "\n")
        assert exc.value.line == 2
        assert exc.value.field == "l"

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            parse_labels(BASE_LINE.replace("20", "nan"))

    def test_out_of_range_occlusion(self):
        with pytest.raises(ValidationError):
            parse_labels(BASE_LINE.replace("Car 0 0", "Car 0 7"))

    def test_fractional_occlusion_rejected(self):
        bad = BASE_LINE.replace("Car 0 0", "Car 0 1.7")
        with pytest.raises(ParseError) as exc:
            parse_labels(BASE_LINE + "\n" + bad + "\n")
        assert exc.value.line == 2
        assert exc.value.field == "occlusion"

    @pytest.mark.parametrize("token", ["1", "1.0"])
    def test_integral_occlusion_accepted(self, token):
        (record,) = parse_labels(BASE_LINE.replace("Car 0 0", f"Car 0 {token}"))
        assert record.occlusion is Occlusion.PARTLY

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            parse_labels(BASE_LINE, fmt="csv")


class TestKittiWriting:
    def test_round_trip_values(self):
        rng = np.random.default_rng(5)
        records = [random_record(rng, with_score=(i % 2 == 0)) for i in range(100)]
        parsed = parse_labels(write_labels(records))
        for orig, back in zip(records, parsed):
            assert back.class_name == orig.class_name
            assert isinstance(back, DetectionRecord) == isinstance(orig, DetectionRecord)
            np.testing.assert_allclose(back.box3d.center, orig.box3d.center, rtol=1e-5)
            np.testing.assert_allclose(back.box3d.dims, orig.box3d.dims, rtol=1e-5)
            assert back.truncation == pytest.approx(orig.truncation, abs=1e-5)

    def test_write_parse_write_is_byte_stable(self):
        rng = np.random.default_rng(6)
        records = [random_record(rng, with_score=bool(rng.integers(0, 2))) for _ in range(200)]
        text1 = write_labels(records)
        text2 = write_labels(parse_labels(text1))
        assert text1 == text2

    def test_alpha_column_consistency(self):
        rec = make_annotation(center=(3.0, 1.0, 10.0), yaw=0.8)
        line = write_labels([rec]).split()
        assert float(line[3]) == pytest.approx(0.8 - math.atan2(3.0, 10.0), abs=1e-5)

    def test_empty_input(self):
        assert write_labels([]) == ""
        assert parse_labels("") == []

    def test_rejects_whitespace_class(self):
        with pytest.raises(SerializationError):
            write_labels([make_annotation(class_name="My Car")])

    @settings(max_examples=60, deadline=None)
    @given(
        yaw=st.floats(-math.pi, math.pi),
        pitch=st.floats(-1.5, 1.5),
        roll=st.floats(-1.5, 1.5),
        x=st.floats(-100, 100),
        z=st.floats(0.1, 200),
        trunc=st.floats(0, 1),
    )
    def test_byte_stability_property(self, yaw, pitch, roll, x, z, trunc):
        rec = make_annotation(center=(x, 1.0, z), yaw=yaw, pitch=pitch, roll=roll, truncation=trunc)
        text1 = write_labels([rec])
        text2 = write_labels(parse_labels(text1))
        assert text1 == text2


class TestManifestJson:
    def make_manifest(self, seed=7, n_frames=5):
        rng = np.random.default_rng(seed)
        frames = []
        for i in range(n_frames):
            fid = f"f{i:03d}"
            anns = tuple(
                random_record(rng, with_score=False, frame_id=fid)
                for _ in range(int(rng.integers(0, 6)))
            )
            frames.append(
                FrameRecord(
                    frame_id=fid,
                    image_path=f"images/{fid}.png",
                    image_size=(1920, 1080),
                    calibration_ref=f"cam{i % 2}",
                    annotations=anns,
                    tags={"weather": "sunny"},
                )
            )
        return DatasetManifest(
            name="demo",
            class_taxonomy=("Bus", "Car", "Pedestrian", "Truck"),
            frames=tuple(frames),
        )

    def test_round_trip_exact(self):
        manifest = self.make_manifest()
        again = load_manifest(dump_manifest(manifest))
        assert again == manifest

    def test_dump_is_byte_stable(self):
        manifest = self.make_manifest()
        text = dump_manifest(manifest)
        assert dump_manifest(load_manifest(text)) == text

    def test_label_format_flattens_by_frame(self):
        manifest = self.make_manifest()
        records = parse_labels(dump_manifest(manifest), fmt="manifest_json")
        assert len(records) == sum(len(f.annotations) for f in manifest.frames)
        assert all(r.frame_id for r in records)

    def test_write_labels_groups_by_frame(self):
        rng = np.random.default_rng(8)
        records = [
            random_record(rng, with_score=True, frame_id=f"f{i % 3}") for i in range(12)
        ]
        manifest = load_manifest(write_labels(records, fmt="manifest_json"))
        assert set(manifest.frame_ids) == {"f0", "f1", "f2"}
        flat = parse_labels(write_labels(records, fmt="manifest_json"), fmt="manifest_json")
        assert sorted(r.score for r in flat) == sorted(r.score for r in records)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_manifest("{not json")

    def test_missing_frames_key(self):
        with pytest.raises(SchemaError):
            load_manifest('{"name": "x"}')

    def test_malformed_frame(self):
        with pytest.raises(SchemaError):
            load_manifest('{"frames": [{"image_path": "a.png"}]}')


class TestCalibration:
    def make_calibration(self):
        intr = Intrinsics(fx=1000, fy=1000, cx=960, cy=540, image_width=1920, image_height=1080)
        rig = RigidTransform(
            rotation=rotation_from_euler(EulerOrientation(0.3, -0.1, 0.05)),
            translation=np.array([0.1, -0.2, 0.5]),
            source_frame="lidar",
            target_frame="camera",
        )
        return CalibrationSet(intrinsics=intr, transforms=(rig,))

    def test_round_trip(self):
        calib = self.make_calibration()
        again = parse_calibration(dump_calibration(calib))
        assert again.intrinsics == calib.intrinsics
        np.testing.assert_allclose(again.transforms[0].rotation, calib.transforms[0].rotation)
        np.testing.assert_allclose(again.transforms[0].translation, calib.transforms[0].translation)

    def test_transform_lookup_with_inverse_fallback(self):
        calib = self.make_calibration()
        forward = calib.transform("lidar", "camera")
        backward = calib.transform("camera", "lidar")
        np.testing.assert_allclose(backward.rotation, forward.rotation.T, atol=1e-12)
        with pytest.raises(CalibrationError):
            calib.transform("lidar", "radar")

    def test_missing_k(self):
        with pytest.raises(SchemaError):
            parse_calibration('{"image_size": [10, 10]}')

    def test_bad_k_size(self):
        with pytest.raises(SchemaError):
            parse_calibration('{"K": [1, 2, 3], "image_size": [10, 10]}')

    def test_bad_image_size(self):
        doc = dump_calibration(self.make_calibration()).replace("1920", "0", 1)
        with pytest.raises(SchemaError):
            parse_calibration(doc)

    def test_non_rotation_transform(self):
        calib = self.make_calibration()
        doc = dump_calibration(calib)
        import json

        obj = json.loads(doc)
        obj["transforms"][0]["R"] = [2, 0, 0, 0, 2, 0, 0, 0, 2]
        with pytest.raises(CalibrationError):
            parse_calibration(json.dumps(obj))


class TestStatsAndRemap:
    def make_manifest(self):
        frames = (
            FrameRecord(
                frame_id="a",
                image_size=(1920, 1080),
                annotations=(
                    make_annotation(class_name="Car", frame_id="a"),
                    make_annotation(class_name="Truck", frame_id="a"),
                ),
            ),
            FrameRecord(
                frame_id="b",
                image_size=(1280, 720),
                annotations=(make_annotation(class_name="Car", frame_id="b"),),
            ),
        )
        return DatasetManifest(name="d", class_taxonomy=("Car", "Truck"), frames=frames)

    def test_stats_counts(self):
        stats = dataset_stats(self.make_manifest())
        assert stats.frames == 2
        assert stats.boxes == 3
        assert dict(stats.per_class) == {"Car": 2, "Truck": 1}
        assert stats.resolutions == ((1280, 720), (1920, 1080))

    def test_remap_renames_and_drops(self):
        remapped, dropped = remap_classes(self.make_manifest(), {"Car": "Vehicle"})
        assert dropped == 1
        assert remapped.class_taxonomy == ("Vehicle",)
        stats = dataset_stats(remapped)
        assert dict(stats.per_class) == {"Vehicle": 2}
        # Frame structure survives even when all its annotations are dropped.
        assert remapped.frame_ids == ("a", "b")
