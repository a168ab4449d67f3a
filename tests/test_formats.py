import json
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
from roadkit import formats
from roadkit.formats import _kitti_row, _record
from roadkit.geometry import Box3D, EulerOrientation, rotation_from_euler

from helpers import (
    make_annotation,
    make_detection,
    reference_copy_record,
    reference_dump_manifest,
    reference_kitti_line,
    reference_load_manifest,
    reference_parse_kitti_line,
    reference_parse_kitti_text,
    typed,
)


BASE_LINE = "Car 0 0 0.1 100 200 300 400 1.5 1.8 4.2 2 1 20 0.5"


def _parse_kitti_line(line: str, line_no: int):
    """The record of one kitti_ext line, as parse_labels builds it."""
    return _record(_kitti_row(line, line_no), "")


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

    @pytest.mark.parametrize("box2d", [(), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)])
    def test_box2d_needs_four_values(self, box2d):
        with pytest.raises(ValidationError):
            make_annotation(box2d=box2d)
        frame = FrameRecord("f0", annotations=(make_annotation(),))
        text = dump_manifest(DatasetManifest(name="m", class_taxonomy=("Car",), frames=(frame,)))
        with pytest.raises(ValidationError):
            load_manifest(text.replace('"box2d": null', '"box2d": %s' % list(box2d)))

    def test_occlusion_coerced(self):
        ann = AnnotationRecord(class_name="Car", box3d=Box3D((0, 0, 10), (1, 1, 1)), occlusion=2)
        assert ann.occlusion is Occlusion.HEAVILY

    def test_manifest_rejects_duplicate_frames(self):
        frame = FrameRecord(frame_id="f0")
        with pytest.raises(ValidationError):
            DatasetManifest(name="d", class_taxonomy=("Car",), frames=(frame, frame))

    def test_manifest_rejects_repeated_class(self):
        with pytest.raises(ValidationError, match="duplicate class 'Car'"):
            DatasetManifest(name="d", class_taxonomy=("Car", "Bus", "Car"))

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


def record_bytes(record: AnnotationRecord) -> tuple:
    """A record's type, strings and occlusion, and every float by its bytes."""
    box = record.box3d
    floats = [record.truncation, *box.center, *box.dims, *box.orientation.as_tuple()]
    floats += list(record.box2d or ()) + [getattr(record, "score", 0.0)]
    return (
        type(record),
        record.class_name,
        type(record.occlusion),
        int(record.occlusion),
        record.box2d is None,
        np.array(floats).tobytes(),
    )


def _number(values) -> st.SearchStrategy[str]:
    """Tokens float() reads as one of `values`, written in several styles."""
    return st.tuples(values, st.sampled_from(["{!r}", "{:.6g}", "{:e}", "{:.17g}"])).map(
        lambda pair: pair[1].format(pair[0])
    )


_finite = st.floats(allow_nan=False, allow_infinity=False)
_KITTI_TOKENS = st.tuples(
    st.sampled_from(["Car", "Pedestrian", "Truck", "DontCare"]),
    _number(st.floats(0.0, 1.0)),
    st.sampled_from(["0", "1", "2.0", "3", "1e0", "-0"]),
    _number(_finite),
    st.one_of(st.just(["-1", "-1", "-1", "-1"]), st.lists(_number(_finite), min_size=4, max_size=4)),
    st.lists(_number(st.one_of(_finite, st.floats(0.1, 10.0))), min_size=3, max_size=3),
    st.lists(_number(_finite), min_size=4, max_size=4),
    st.sampled_from([0, 1, 2, 3]),
    st.lists(_number(st.floats(-1e3, 1e3)), min_size=3, max_size=3),
)


@st.composite
def kitti_lines(draw) -> str:
    """A 15-18-column kitti_ext line; its records may still fail range checks."""
    name, trunc, occl, alpha, rect, dims, center_yaw, tail, extra = draw(_KITTI_TOKENS)
    tokens = [name, trunc, occl, alpha, *rect, *dims, *center_yaw, *extra[:tail]]
    if tail == 1:
        tokens[-1] = draw(_number(st.floats(0.0, 1.0)))  # a score
    if tail == 3:
        tokens[-1] = draw(_number(st.floats(-0.5, 1.5)))
    return draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


def _outcome(parse, line: str, line_no: int):
    try:
        return record_bytes(parse(line, line_no))
    except ParseError as exc:
        return (ParseError, exc.line, exc.field)
    except ValidationError as exc:
        return (type(exc), str(exc))


def _reference_outcome(line: str, line_no: int):
    """The reference's outcome, with the line appended to a score fault's
    message as the parser appends it to every range fault of a record."""
    outcome = _outcome(reference_parse_kitti_line, line, line_no)
    if outcome[0] is ValidationError and outcome[1].startswith("score "):
        return (ValidationError, f"{outcome[1]} (line {line_no})")
    return outcome


class TestKittiParserAgainstReference:
    """The one-pass parser against the column-by-column reference."""

    @settings(max_examples=400, deadline=None)
    @given(kitti_lines(), st.integers(1, 10_000))
    def test_records_equal_reference(self, line, line_no):
        assert _outcome(_parse_kitti_line, line, line_no) == _reference_outcome(line, line_no)

    @settings(max_examples=400, deadline=None)
    @given(
        kitti_lines(),
        st.integers(1, 17),
        st.sampled_from(["nan", "-inf", "inf", "1e999", "abc", "1.2.3", "0x10", "1,5", "--1"]),
    )
    def test_one_bad_column_reports_the_same_field(self, line, column, token):
        tokens = line.split()
        column = min(column, len(tokens) - 1)
        line = " ".join(tokens[:column] + [token] + tokens[column + 1:])
        with pytest.raises(ParseError) as expected:
            reference_parse_kitti_line(line, 7)
        with pytest.raises(ParseError) as got:
            _parse_kitti_line(line, 7)
        assert (got.value.line, got.value.field, str(got.value)) == (
            expected.value.line, expected.value.field, str(expected.value)
        )

    @pytest.mark.parametrize(
        "line",
        [
            BASE_LINE + " 0.1 -0.2 0.75",
            BASE_LINE + " -0.0 0.0 1",
            "Car 1 3 -0.0 -1 -1 -1 -1 1e-300 1e300 5e-324 -0.0 0.0 1e308 3.141592653589793",
            "Car 0 0 0 -1 -1 -1 -1.0 1 1 1 0 0 1 -3.141592653589793 0 0",
            "Car 0 0 0 -1 -1 -1 -1 1 1 1 0 0 1 -3.1415926535897936 0 0",
            "Car 0 0 0 1 2 3 4 1 1 1 0 0 1 1e300 -1e300 7",
        ],
    )
    def test_edge_lines_equal_reference(self, line):
        assert _outcome(_parse_kitti_line, line, 1) == _reference_outcome(line, 1)

    @pytest.mark.parametrize("score", ["1.5", "-0.25", "1e300"])
    def test_score_fault_names_line(self, score):
        with pytest.raises(ValidationError, match=rf"^score must be in \[0, 1\], got .* \(line 4\)$"):
            _parse_kitti_line(f"{BASE_LINE} {score}", 4)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("Car 2.5 0 0 1 2 3 4 1 1 1 0 0 1 0 0 abc", "roll"),  # truncation out of range too
            ("Car 0 1.5 0 1 2 3 4 1 1 1 0 0 nan 0", "z"),  # fractional occlusion too
            ("Car 0 9 0 1 2 3 4 1 1 1 0 0 1 x", "yaw"),  # occlusion out of range too
        ],
    )
    def test_parse_errors_come_before_range_checks(self, line, field):
        # The reference stops at the first range fault; the one-pass parser
        # converts every column first, so a bad number anywhere wins.
        with pytest.raises(ValidationError) as expected:
            reference_parse_kitti_line(line, 3)
        assert not isinstance(expected.value, ParseError) or expected.value.field == "occlusion"
        with pytest.raises(ParseError) as got:
            _parse_kitti_line(line, 3)
        assert (got.value.line, got.value.field) == (3, field)


def _read_outcome(read, text: str):
    """The records read, with every field's type, or the fault's type and message."""
    try:
        return typed(read(text))
    except ValidationError as exc:
        return (type(exc), str(exc))


# Values that a reader must take as the constructors take them, or reject
# with the constructors' message: bools, strings and null; NaN, infinities and
# an int too large for a float; an int that rounds as a float; ints where
# floats belong; -0.0; angles outside (-pi, pi] and on its ends; truncation,
# occlusion, dims and score outside their ranges; box2d of the wrong length.
_EDGE_VALUES = (
    True, False, "1.0", None, math.nan, math.inf, -math.inf, 10**400, 2**53 + 1, 3, 0, 1, -0.0,
    4.0, -math.pi, math.pi, 7 * math.pi, 1.5, 1.0, 2, 4, 0.0, [1.0, 2.0, 3.0], [1, 2, 3, 4], {},
)
_ANNOTATION_PATHS = (
    ("box3d", "center", 0), ("box3d", "center", 2), ("box3d", "dims", 1), ("box3d", "center"),
    ("box3d", "dims"), ("box3d", "yaw"), ("box3d", "pitch"), ("box3d", "roll"), ("box3d",),
    ("truncation",), ("occlusion",), ("score",), ("box2d",), ("box2d", 3), ("class_name",),
)
# kitti_ext tokens: the same cases as text, plus tokens float() refuses.
_EDGE_TOKENS = (
    "True", "abc", "nan", "-inf", "inf", "1e400", "9007199254740993", "3", "0", "1", "-0.0",
    "4.0", repr(-math.pi), repr(math.pi), repr(7 * math.pi), "1.5", "1.0", "2", "4", "-1",
)


def _manifest_doc(rng: np.random.Generator) -> dict:
    frames = []
    for f in range(3):
        records = [random_record(rng, with_score=bool(rng.random() < 0.5)) for _ in range(3)]
        frames.append(FrameRecord(f"f{f}", image_size=(1920, 1080), annotations=tuple(records)))
    manifest = DatasetManifest(name="m", class_taxonomy=("Bus", "Car", "Pedestrian", "Truck"), frames=tuple(frames))
    return json.loads(dump_manifest(manifest))


_MISSING = object()


def _set_path(obj, path, value):
    """Set the value at a key path, or delete its last key for _MISSING."""
    for key in path[:-1]:
        obj = obj[key]
    if value is _MISSING:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


class TestBulkReadersAgainstReference:
    """load_manifest and kitti_ext parse_labels against the walks they replace:
    the same records with the same field types, or the same fault."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The frame ids of the annotations load_manifest sends through the
        constructor walk, in call order."""
        calls = []
        walk = formats._annotation_walk
        monkeypatch.setattr(
            formats, "_annotation_walk", lambda obj, frame_id: calls.append(frame_id) or walk(obj, frame_id)
        )
        return calls

    def test_manifest_values(self, walks):
        rng = np.random.default_rng(17)
        for path in _ANNOTATION_PATHS:
            for value in (*_EDGE_VALUES, _MISSING):
                doc = _manifest_doc(rng)
                frame, index = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                annotation = doc["frames"][frame]["annotations"][index]
                if path[0] == "box2d" and len(path) > 1 and annotation["box2d"] is None:
                    annotation["box2d"] = [1.0, 2.0, 3.0, 4.0]
                if path == ("score",) and "score" not in annotation:
                    annotation["score"] = 0.5
                _set_path(annotation, path, value)
                text = json.dumps(doc)
                expected = _read_outcome(reference_load_manifest, text)
                walks.clear()
                assert _read_outcome(load_manifest, text) == expected, (path, value)
                # The walk runs once, on the faulty annotation, and never on a valid one.
                assert walks == ([f"f{frame}"] if expected[0] is SchemaError else []), (path, value)

    def test_manifest_ints_and_defaults(self, walks):
        # Ints everywhere a number belongs, and every optional key left out.
        doc = _manifest_doc(np.random.default_rng(3))
        for frame in doc["frames"]:
            for annotation in frame["annotations"]:
                box = annotation["box3d"]
                box["center"] = [int(v) for v in box["center"]]
                box["dims"] = [int(v) + 1 for v in box["dims"]]
                box["yaw"] = 5
                annotation["box2d"] = [1, 2, 3, 4] if annotation["box2d"] else None
                annotation["truncation"] = 1
        doc["frames"][0]["annotations"][0] = {"class_name": "Car", "box3d": {"center": [1, 2, 3], "dims": [1, 1, 1]}}
        text = json.dumps(doc)
        assert _read_outcome(load_manifest, text) == _read_outcome(reference_load_manifest, text)
        assert walks == []

    def test_manifest_structure(self):
        doc = _manifest_doc(np.random.default_rng(5))
        cases = [
            ("annotations", "not a list"), ("annotations", {"box3d": 1}), ("annotations", [[]]),
            ("annotations", None), ("frame_id", 5), ("image_size", [1.5, 2]),
        ]
        for key, value in cases:
            bad = json.loads(json.dumps(doc))
            bad["frames"][1][key] = value
            text = json.dumps(bad)
            assert _read_outcome(load_manifest, text) == _read_outcome(reference_load_manifest, text), (key, value)
        for frame in (5, [], "f", None):
            bad = json.loads(json.dumps(doc))
            bad["frames"][2] = frame
            text = json.dumps(bad)
            assert _read_outcome(load_manifest, text) == _read_outcome(reference_load_manifest, text), frame

    def test_manifest_walk_names_the_first_fault(self):
        # Faults in two frames: the document order decides which is named.
        doc = _manifest_doc(np.random.default_rng(7))
        doc["frames"][1]["annotations"][2]["truncation"] = 1.5
        doc["frames"][2]["annotations"][0]["box3d"]["dims"][0] = 0
        text = json.dumps(doc)
        with pytest.raises(SchemaError, match=r"frame 'f1'.*truncation must be in \[0, 1\], got 1.5"):
            load_manifest(text)
        assert _read_outcome(load_manifest, text) == _read_outcome(reference_load_manifest, text)

    def test_kitti_tokens(self):
        rng = np.random.default_rng(23)
        records = [random_record(rng, with_score=bool(rng.random() < 0.5)) for _ in range(8)]
        lines = write_labels(records).splitlines()
        # Mixed column counts in one file: 15, 16, 17 and 18 columns.
        lines[0] = " ".join(lines[0].split()[:15])
        lines[1] = " ".join(lines[1].split()[:15] + ["0.5"])
        lines[2] = " ".join(lines[2].split()[:17])
        lines.insert(3, "")
        for column in range(1, 18):
            for token in _EDGE_TOKENS:
                index = int(rng.integers(0, len(lines)))
                tokens = lines[index].split()
                if not tokens:
                    continue
                mutated = list(lines)
                mutated[index] = " ".join(tokens[:column] + [token] + tokens[column + 1:])
                text = "\n".join(mutated) + "\n"
                expected = _read_outcome(reference_parse_kitti_text, text)
                assert _read_outcome(parse_labels, text) == expected, (index, column, token)

    def test_valid_input_builds_no_record_through_a_constructor(self, monkeypatch):
        rng = np.random.default_rng(29)
        doc = _manifest_doc(rng)
        doc["frames"][0]["annotations"][0]["box3d"]["yaw"] = 7 * math.pi
        manifest_text = json.dumps(doc)
        kitti_text = write_labels([random_record(rng, with_score=i % 2 == 0) for i in range(6)])
        expected = (_read_outcome(reference_load_manifest, manifest_text),
                    _read_outcome(reference_parse_kitti_text, kitti_text))
        checks = []
        for cls in (EulerOrientation, Box3D, AnnotationRecord, DetectionRecord):
            monkeypatch.setattr(cls, "__post_init__", checks.append)
        monkeypatch.setattr(formats, "_annotation_walk", checks.append)
        got = (_read_outcome(load_manifest, manifest_text), _read_outcome(parse_labels, kitti_text))
        assert checks == []
        assert got == expected
        assert load_manifest(manifest_text).frames[0].annotations[0].box3d.orientation.yaw == math.pi


class TestGateAgreesWithConstructors:
    """_valid_row, the gate every label row passes, against _constructed_row,
    the constructors that name a row's fault: the gate takes a row exactly
    when the constructors do, makes the same row of it, and raises their
    fault for a non-finite angle."""

    SPECIALS = (0.0, -0.0, 5e-324, 0.5, 1e154, 1e308, math.inf, -math.inf, math.nan)

    @staticmethod
    def _outcome(check, row):
        try:
            made = check(row)
        except ValidationError as exc:
            return "fault", str(exc)
        return ("row", typed(made)) if made is not None else ("rejected", None)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(20_000):
            # Each of the 9 box values, truncation and score is a special
            # value, or half the time an ordinary one.
            ordinary = [*rng.uniform(-1.0, 8.0, 9).tolist(), *rng.uniform(-0.5, 1.5, 2).tolist()]
            picks = rng.integers(0, 2 * len(self.SPECIALS), 11).tolist()
            values = [self.SPECIALS[p] if p < len(self.SPECIALS) else o for p, o in zip(picks, ordinary)]
            box, truncation, score = tuple(values[:9]), values[9], values[10]
            occlusion = float(rng.integers(0, 4))
            box2d = (1.0, 2.0, 3.0, 4.0) if rng.random() < 0.5 else None
            row = ("Car", truncation, occlusion, box2d, score if rng.random() < 0.75 else None, box)
            gate = self._outcome(lambda row: formats._valid_row(*row[:5], *row[5]), row)
            constructed = self._outcome(formats._constructed_row, row)
            if gate[0] == "rejected":
                assert constructed[0] == "fault", row
            else:
                assert gate == constructed, row
            seen.add(gate[0])
        assert seen == {"row", "rejected", "fault"}


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("occlusion", 7),
            ("occlusion", "x"),
            ("occlusion", math.inf),
            ("truncation", "abc"),
            ("score", "abc"),
            ("box2d", ["a", 1, 2, 3]),
            ("center", ["a", 0, 1]),
            ("dims", [1, "b", 3]),
            ("truncation", 1.5),
            ("dims", [0, 2, 3]),
            ("box2d", [1, 2, 3]),
            ("score", 2),
            ("center", [math.nan, 0, 1]),
            ("box2d", [math.nan, 0, 1, 2]),
            ("truncation", math.inf),
        ],
    )
    def test_bad_annotation_value_names_frame(self, field, value):
        annotation = {"class_name": "Car", "box3d": {"center": [0, 0, 10], "dims": [1, 2, 3]}}
        if field in ("center", "dims"):
            annotation["box3d"][field] = value
        else:
            annotation[field] = value
        doc = {"frames": [{"frame_id": "f0"}, {"frame_id": "f7", "annotations": [annotation]}]}
        with pytest.raises(SchemaError, match="malformed annotation object in frame 'f7'"):
            load_manifest(json.dumps(doc))

    @pytest.mark.parametrize(
        "frame",
        [
            {"frame_id": "f", "image_size": ["a", 1]},
            {"frame_id": "f", "tags": [1]},
            "f",
            {"annotations": []},
            {"frame_id": "f", "tags": {"weather": 5}},
        ],
    )
    def test_bad_frame_value_names_index(self, frame):
        with pytest.raises(SchemaError, match="malformed frame object at index 1"):
            load_manifest(json.dumps({"frames": [{"frame_id": "e"}, frame]}))

    @pytest.mark.parametrize("size", [[1920.7, 1080], [1920, 1080.5], [math.nan, 1080], [math.inf, 1]])
    def test_fractional_image_size_names_frame(self, size):
        doc = {"frames": [{"frame_id": "f0"}, {"frame_id": "f7", "image_size": size}]}
        with pytest.raises(SchemaError, match="image_size .* of frame 'f7' must hold whole numbers"):
            load_manifest(json.dumps(doc))

    @pytest.mark.parametrize("size", [[1920], [1920, 1080, 3], [-1920, 1080], [1920, -1.0], []])
    def test_image_size_of_other_than_two_non_negative_numbers_names_frame(self, size):
        doc = {"frames": [{"frame_id": "f0"}, {"frame_id": "f7", "image_size": size}]}
        with pytest.raises(SchemaError, match="image_size .* of frame 'f7' must hold whole numbers, two of them, none negative"):
            load_manifest(json.dumps(doc))

    def test_zero_image_size_loads(self):
        # write_labels(..., "manifest_json") writes frames without an image size as [0, 0].
        text = write_labels([make_annotation(frame_id="f0")], "manifest_json")
        assert json.loads(text)["frames"][0]["image_size"] == [0, 0]
        assert load_manifest(text).frames[0].image_size == (0, 0)

    @pytest.mark.parametrize("value", [5, None, ["Car"], {"n": 1}, True])
    @pytest.mark.parametrize("where", ["class_name", "frame_id", "calibration_ref", "image_path"])
    def test_non_string_name_names_frame(self, where, value):
        annotation = {"class_name": "Car", "box3d": {"center": [0, 0, 10], "dims": [1, 2, 3]}}
        frame = {"frame_id": "f7", "annotations": [annotation]}
        if where == "class_name":
            annotation[where] = value
            expected = f"malformed annotation object in frame 'f7': class_name {value!r} is not a string"
        else:
            frame[where] = value
            expected = f"malformed frame object at index 1: {where} {value!r} is not a string"
        doc = {"class_taxonomy": ["Car"], "frames": [{"frame_id": "f0"}, frame]}
        with pytest.raises(SchemaError) as got:
            load_manifest(json.dumps(doc))
        assert str(got.value) == expected

    @pytest.mark.parametrize("name", [5, None, ["labels"]])
    def test_non_string_manifest_name(self, name):
        with pytest.raises(SchemaError, match="manifest name .* is not a string"):
            load_manifest(json.dumps({"name": name, "frames": []}))

    @pytest.mark.parametrize("taxonomy", [[5], ["Car", None], "Car", {"Car": 1}])
    def test_taxonomy_must_be_a_list_of_strings(self, taxonomy):
        doc = {"class_taxonomy": taxonomy, "frames": [{"frame_id": "f0"}]}
        with pytest.raises(SchemaError, match="class_taxonomy .* must be a list of strings"):
            load_manifest(json.dumps(doc))

    @pytest.mark.parametrize("value", [1.5, 0.25, -0.5])
    def test_fractional_occlusion_names_frame(self, value):
        annotation = {"class_name": "Car", "box3d": {"center": [0, 0, 10], "dims": [1, 2, 3]}, "occlusion": value}
        doc = {"frames": [{"frame_id": "f0"}, {"frame_id": "f7", "annotations": [annotation]}]}
        with pytest.raises(SchemaError, match=f"frame 'f7': occlusion {value!r} is not a whole number"):
            load_manifest(json.dumps(doc))

    def test_whole_float_values_load(self):
        annotation = {"class_name": "Car", "box3d": {"center": [0, 0, 10], "dims": [1, 2, 3]}, "occlusion": 1.0}
        doc = {"class_taxonomy": ["Car"],
               "frames": [{"frame_id": "f7", "image_size": [1920.0, 1080.0], "annotations": [annotation]}]}
        (frame,) = load_manifest(json.dumps(doc)).frames
        assert frame.image_size == (1920, 1080) and all(type(v) is int for v in frame.image_size)
        assert frame.annotations[0].occlusion is Occlusion.PARTLY

    @pytest.mark.parametrize(
        "path, value",
        [
            (("image_size",), ["1920", True]),
            (("image_size",), [True, 1080]),
            (("image_size",), "12"),
            (("annotations", 0, "occlusion"), "2"),
            (("annotations", 0, "occlusion"), True),
            (("annotations", 0, "truncation"), "0.5"),
            (("annotations", 0, "truncation"), True),
            (("annotations", 0, "score"), "0.5"),
            (("annotations", 0, "score"), False),
            (("annotations", 0, "box2d"), [1, 2, 3, "4"]),
            (("annotations", 0, "box2d"), "1234"),
            (("annotations", 0, "box3d", "yaw"), "0.3"),
            (("annotations", 0, "box3d", "pitch"), True),
            (("annotations", 0, "box3d", "dims"), [True, 1, 1]),
            (("annotations", 0, "box3d", "center"), "123"),
            (("annotations", 0, "box3d", "center"), [0, None, 10]),
        ],
        ids=lambda x: json.dumps(x[-1] if isinstance(x, tuple) else x),
    )
    def test_non_number_names_frame(self, path, value):
        annotation = {"class_name": "Car", "box3d": {"center": [0, 0, 10], "dims": [1, 2, 3]}, "score": 0.5}
        frame = {"frame_id": "f7", "image_size": [1920, 1080], "annotations": [annotation]}
        *parents, key = path
        target = frame
        for step in parents:
            target = target[step]
        target[key] = value
        doc = {"class_taxonomy": ["Car"], "frames": [{"frame_id": "f0"}, frame]}
        with pytest.raises(SchemaError, match="frame 'f7'"):
            load_manifest(json.dumps(doc))

    def test_annotation_naming_another_frame_copies_like_round_trip(self):
        rng = np.random.default_rng(41)
        records = [random_record(rng, with_score=i % 2 == 0, frame_id=f"f{i % 4}") for i in range(40)]
        doc = json.loads(write_labels(records, "manifest_json"))
        for frame in doc["frames"]:
            for k, annotation in enumerate(frame["annotations"]):
                if k % 3 != 2:
                    annotation["frame_id"] = [f"elsewhere-{k}", 7, None][k % 3]
        text = json.dumps(doc)
        expected = [
            reference_copy_record(ann, frame.frame_id) if ann.frame_id != frame.frame_id else ann
            for frame in load_manifest(text).frames
            for ann in frame.annotations
        ]
        got = parse_labels(text, "manifest_json")
        assert got == expected
        assert [type(r) for r in got] == [type(r) for r in expected]
        assert {r.frame_id for r in got} == {"f0", "f1", "f2", "f3"}

    @pytest.mark.parametrize("frames", [5, "abc", {"frame_id": "f"}])
    def test_frames_must_be_a_list(self, frames):
        with pytest.raises(SchemaError):
            load_manifest(json.dumps({"frames": frames}))


# Strings that JSON must escape or that only ensure_ascii keeps in ASCII.
json_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f697'), st.characters()),
    max_size=8,
)


class TestManifestWriter:
    """dump_manifest is byte-equal to json.dumps(doc, indent=2, sort_keys=True)."""

    @staticmethod
    def assert_matches_reference(manifest):
        assert dump_manifest(manifest) == reference_dump_manifest(manifest)

    @settings(max_examples=150, deadline=None)
    @given(
        name=json_text,
        classes=st.lists(json_text, min_size=1, max_size=3, unique=True),
        frame_ids=st.lists(json_text, max_size=3, unique=True),
        paths=st.tuples(json_text, json_text),
        tags=st.dictionaries(json_text, json_text, max_size=3),
    )
    def test_strings_property(self, name, classes, frame_ids, paths, tags):
        frames = [
            FrameRecord(
                frame_id=fid,
                image_path=paths[0],
                calibration_ref=paths[1],
                annotations=tuple(
                    make_annotation(class_name=c, frame_id=fid) for c in classes[: i + 1]
                ),
                tags=tags,
            )
            for i, fid in enumerate(frame_ids)
        ]
        self.assert_matches_reference(
            DatasetManifest(name=name, class_taxonomy=tuple(classes), frames=tuple(frames))
        )

    def test_empty_manifest(self):
        self.assert_matches_reference(DatasetManifest(name="", class_taxonomy=()))
        self.assert_matches_reference(
            DatasetManifest(name="empty", class_taxonomy=(), frames=(FrameRecord(frame_id="f0"),))
        )

    @pytest.mark.parametrize(
        "box2d",
        [
            None,
            (1.0, 2.5, 300.25, 400.0),
            (math.nan, 0.0, 1.0, 2.0),
            (-math.inf, 0.0, math.inf, -0.0),
        ],
    )
    def test_box2d(self, box2d):
        record = make_annotation(box2d=box2d)
        self.assert_matches_reference(
            DatasetManifest(
                name="m", class_taxonomy=("Car",), frames=(FrameRecord("f0", annotations=(record,)),)
            )
        )

    @pytest.mark.parametrize("value", [0, 1, True, False, np.float64(0.25), 0.125, 1e-7])
    def test_number_types(self, value):
        records = (
            make_annotation(truncation=value),
            make_detection(truncation=value, score=value),
        )
        self.assert_matches_reference(
            DatasetManifest(
                name="m", class_taxonomy=("Car",), frames=(FrameRecord("f0", annotations=records),)
            )
        )

    def test_mixed_records_with_and_without_tags(self):
        rng = np.random.default_rng(17)
        frames = tuple(
            FrameRecord(
                frame_id=f"f{i}",
                image_path=f"images/f{i}.png",
                image_size=(1920, 1080),
                calibration_ref="cam0",
                annotations=tuple(
                    random_record(rng, with_score=bool(rng.integers(0, 2)), frame_id=f"f{i}")
                    for _ in range(4)
                ),
                tags={"time": "day", "weather": "foggy"} if i % 2 else {},
            )
            for i in range(4)
        )
        manifest = DatasetManifest(
            name="mixed", class_taxonomy=("Bus", "Car", "Pedestrian", "Truck"), frames=frames
        )
        self.assert_matches_reference(manifest)
        records = [ann for frame in frames for ann in frame.annotations]
        by_frame = {}
        for r in records:
            by_frame.setdefault(r.frame_id, []).append(r)
        expected = DatasetManifest(
            name="labels",
            class_taxonomy=sorted({r.class_name for r in records}),
            frames=[FrameRecord(frame_id=fid, annotations=anns) for fid, anns in by_frame.items()],
        )
        assert write_labels(records, "manifest_json") == reference_dump_manifest(expected)

    def test_write_labels_of_code_built_records(self):
        # Ints, np.float64 and -0.0 where the constructors keep them as given,
        # and a missing box2d, in three frames with one of them split: both
        # formats write each record's values as the reference writers do.
        records = [
            make_annotation(truncation=1, occlusion=2, box2d=None, frame_id="b"),
            make_detection(truncation=np.float64(0.25), score=1, center=(0, -0.0, 7), yaw=-0.0, frame_id="a"),
            make_detection(truncation=-0.0, score=np.float64(0.5), dims=(1, 2, 3), box2d=(0, -0.0, 5, 6),
                           pitch=np.float64(-0.0), roll=np.float64(1e-7), frame_id="b"),
            make_annotation(class_name="Bus", truncation=0, center=(np.float64(1.5), 2, 3), frame_id="c"),
            make_detection(class_name="Bus", truncation=np.float64(-0.0), score=0, frame_id="a"),
        ]
        assert write_labels(records, "kitti_ext") == "".join(reference_kitti_line(r) + "\n" for r in records)
        by_frame = {}
        for r in records:
            by_frame.setdefault(r.frame_id, []).append(r)
        expected = DatasetManifest(
            name="labels",
            class_taxonomy=("Bus", "Car"),
            frames=[FrameRecord(frame_id=fid, annotations=anns) for fid, anns in by_frame.items()],
        )
        assert write_labels(records, "manifest_json") == reference_dump_manifest(expected)
        assert write_labels([], "manifest_json") == reference_dump_manifest(DatasetManifest("labels", ()))
        # Records are read once, so an iterator writes as its list does.
        for fmt in ("kitti_ext", "manifest_json"):
            assert write_labels(iter(records), fmt) == write_labels(records, fmt)

    def test_non_string_tag_values(self):
        frame = FrameRecord("f0", tags={"count": 3, "nested": [1, {"b": None, "a": 2.5}], "x": "y"})
        self.assert_matches_reference(DatasetManifest(name="m", class_taxonomy=(), frames=(frame,)))

    def test_kitti_lines_match_per_token_reference(self):
        extremes = (-0.0, 1e-7, 1e21, 3, -2.5e-9)
        records = [
            make_annotation(center=(x, 1.0, 20.0), dims=(1.5, 1.8, 4.2), yaw=-0.0)
            for x in extremes
        ] + [
            make_annotation(center=(1.0, y, 1e21), dims=(1e-7, 1e21, 2), box2d=(0, -0.0, 1e21, 1e-7))
            for y in extremes
        ] + [
            make_detection(truncation=t, score=s, occlusion=o, yaw=a, pitch=-0.0, roll=1e-7)
            for t, s, o, a in [(0, 1, 0, -0.0), (1, 0, 3, 1e-7), (True, np.float64(0.5), 2, 3)]
        ]
        rng = np.random.default_rng(23)
        records += [random_record(rng, with_score=bool(rng.integers(0, 2))) for _ in range(50)]
        expected = "".join(reference_kitti_line(r) + "\n" for r in records)
        assert write_labels(records, "kitti_ext") == expected


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

    @pytest.mark.parametrize(
        "k",
        [
            [1000, 0, 960, 0, 1000, 540, math.nan, 0, 1],
            [1000, 0, 960, 0, 1000, 540, 0, 0, math.nan],
            [1000, 0, 960, math.nan, 1000, 540, 0, 0, 1],
            [1000, math.inf, 960, 0, 1000, 540, 0, 0, 1],
            ["a"] * 9,
            [[1000, 0, 960], [0, 1000], [0, 0, 1]],
            {"fx": 1000},
            ["1000", "0", "960", "0", "1000", "540", "0", "0", "1"],
            [1000, False, 960, 0, 1000, 540, 0, 0, True],
            [[1000, 0, 960], [0, 1000, 540], [0, 0, 1]],
            [10**400, 0, 960, 0, 1000, 540, 0, 0, 1],
            5,
        ],
    )
    def test_bad_k_values(self, k):
        obj = json.loads(dump_calibration(self.make_calibration()))
        obj["K"] = k
        with pytest.raises(SchemaError):
            parse_calibration(json.dumps(obj))

    @pytest.mark.parametrize(
        "size",
        ["1920x1080", "10", 5, [1920.5, 1080], [1920, True], [1920, -1080.0], [1920, math.inf], [1920], [0, 1080], [1920, 0]],
    )
    def test_bad_image_size_values(self, size):
        obj = json.loads(dump_calibration(self.make_calibration()))
        obj["image_size"] = size
        with pytest.raises(SchemaError, match="image_size must be two positive integers"):
            parse_calibration(json.dumps(obj))

    def test_integral_float_image_size_and_bits_kept(self):
        calib = self.make_calibration()
        obj = json.loads(dump_calibration(calib))
        assert parse_calibration(json.dumps(obj)).intrinsics == calib.intrinsics
        obj["image_size"] = [1920.0, 1080.0]
        again = parse_calibration(json.dumps(obj))
        assert again.intrinsics == calib.intrinsics
        assert dump_calibration(again) == dump_calibration(calib)

    def test_integer_k_gives_the_bits_of_float_k(self):
        calib = self.make_calibration()
        obj = json.loads(dump_calibration(calib))
        obj["K"] = [int(v) for v in obj["K"]]
        assert parse_calibration(json.dumps(obj)).intrinsics == calib.intrinsics
        assert dump_calibration(parse_calibration(json.dumps(obj))) == dump_calibration(calib)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("source", 5),
            ("target", None),
            ("t", [0.1, True, 0.5]),
            ("t", ["0.1", "0", "0"]),
            ("t", [0.1, 0.2]),
            ("R", [1, 0, 0, 0, 1, 0, 0, 0, math.nan]),
            ("R", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("R", [10**400, 0, 0, 0, 1, 0, 0, 0, 1]),
        ],
    )
    def test_bad_transform_values(self, field, value):
        obj = json.loads(dump_calibration(self.make_calibration()))
        obj["transforms"][0][field] = value
        with pytest.raises(SchemaError, match="malformed transform object"):
            parse_calibration(json.dumps(obj))

    @pytest.mark.parametrize("transforms", [5, None, {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1]}])
    def test_transforms_must_be_a_list(self, transforms):
        obj = json.loads(dump_calibration(self.make_calibration()))
        obj["transforms"] = transforms
        with pytest.raises(SchemaError, match="transforms .* must be a list"):
            parse_calibration(json.dumps(obj))

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

    def test_remap_copies_like_round_trip(self):
        rng = np.random.default_rng(42)
        frames = [
            FrameRecord(
                frame_id=f"f{i}",
                annotations=tuple(
                    random_record(rng, with_score=(i + k) % 2 == 0, frame_id=f"f{i}" if k % 3 else "other")
                    for k in range(6)
                ),
            )
            for i in range(40)
        ]
        manifest = DatasetManifest(name="d", class_taxonomy=("Bus", "Car", "Pedestrian", "Truck"), frames=frames)
        mapping = {"Car": "Vehicle", "Truck": "Vehicle", "Bus": "Large"}
        remapped, dropped = remap_classes(manifest, mapping)
        expected = [
            reference_copy_record(ann, frame.frame_id, mapping[ann.class_name])
            for frame in manifest.frames
            for ann in frame.annotations
            if ann.class_name in mapping
        ]
        got = [ann for frame in remapped.frames for ann in frame.annotations]
        assert dropped == 240 - len(expected) > 0
        assert got == expected
        assert [type(r) for r in got] == [type(r) for r in expected]
        assert {type(r) for r in got} == {AnnotationRecord, DetectionRecord}

    def test_remap_keeps_frame_fields(self):
        frame = FrameRecord(
            frame_id="a",
            image_path="img/a.png",
            image_size=(1920, 1080),
            calibration_ref="calib-a",
            annotations=(make_annotation(class_name="Car", frame_id="a"),),
            tags={"weather": "foggy", "time": "night"},
        )
        manifest = DatasetManifest(name="d", class_taxonomy=("Car",), frames=(frame,))
        (got,) = remap_classes(manifest, {"Car": "Vehicle"})[0].frames
        assert (got.frame_id, got.image_path, got.image_size, got.calibration_ref, got.tags) == (
            "a", "img/a.png", (1920, 1080), "calib-a", (("time", "night"), ("weather", "foggy"))
        )
        assert [ann.class_name for ann in got.annotations] == ["Vehicle"]

    def test_remap_renames_and_drops(self):
        remapped, dropped = remap_classes(self.make_manifest(), {"Car": "Vehicle"})
        assert dropped == 1
        assert remapped.class_taxonomy == ("Vehicle",)
        stats = dataset_stats(remapped)
        assert dict(stats.per_class) == {"Vehicle": 2}
        # Frame structure survives even when all its annotations are dropped.
        assert remapped.frame_ids == ("a", "b")
