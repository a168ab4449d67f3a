"""Parsing and writing of label, calibration, and manifest files.

Supported formats:

* kitti_ext label lines: the 15 standard KITTI columns, then two optional
  columns pitch and roll (radians), then an optional detection score::

      class trunc occl alpha x1 y1 x2 y2 h w l x y z yaw [pitch roll] [score]

  A 2D box of ``-1 -1 -1 -1`` denotes a missing 2D box. Numbers are written
  with 6 significant digits so that write -> parse -> write is byte-stable.

* manifest JSON: ``{name, class_taxonomy[], frames[{frame_id, image_path,
  image_size[2], calibration_ref, annotations[], tags{}?}]}``.

* calibration JSON: ``{K: 9 numbers row-major, image_size[2],
  transforms[{source, target, R: 9 numbers row-major, t: 3 numbers}]}``.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

from .camera import Intrinsics, RigidTransform, _move_poses
from .errors import (
    CalibrationError,
    ParseError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from .geometry import Box3D, EulerOrientation, _param_arrays, normalize_angle


class Occlusion(enum.IntEnum):
    FULLY_VISIBLE = 0
    PARTLY = 1
    HEAVILY = 2
    UNKNOWN = 3


@dataclass(frozen=True)
class AnnotationRecord:
    """A single ground-truth object annotation in the camera frame."""

    class_name: str
    box3d: Box3D
    truncation: float = 0.0
    occlusion: Occlusion = Occlusion.FULLY_VISIBLE
    box2d: tuple[float, float, float, float] | None = None
    frame_id: str = ""

    def __post_init__(self):
        if not (0.0 <= self.truncation <= 1.0):
            raise ValidationError(f"truncation must be in [0, 1], got {self.truncation}")
        if type(self.occlusion) is not Occlusion:
            object.__setattr__(self, "occlusion", Occlusion(self.occlusion))
        if self.box2d is not None:
            box2d = tuple(map(float, self.box2d))
            if len(box2d) != 4:
                raise ValidationError(f"box2d must hold 4 values (x1, y1, x2, y2), got {box2d}")
            object.__setattr__(self, "box2d", box2d)


@dataclass(frozen=True)
class DetectionRecord(AnnotationRecord):
    """An annotation plus a detector confidence score."""

    score: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score must be in [0, 1], got {self.score}")


# A label row is what both readers produce and both writers consume:
# (class_name, truncation, occlusion, box2d, score, box), with box the 9
# values of _box_params' layout (x, y, z, h, w, l, yaw, pitch, roll) and
# score None for an annotation. Every row, read or made, is checked through
# _valid_row; one that fails it goes through the constructors, which name
# the fault (_constructed_row, or _annotation_walk for a manifest object).
# A record is built from a checked row with _record.
_OCCLUSIONS = tuple(Occlusion)
_set = object.__setattr__


def _valid_row(
    class_name: str, truncation: float, occlusion: float, box2d, score: float | None,
    x: float, y: float, z: float, h: float, w: float, l: float, yaw: float, pitch: float, roll: float,
) -> tuple | None:
    """The row of Python floats, or None when one fails a record rule:
    truncation in [0, 1], occlusion a level 0-3, a finite center, h, w and l
    positive with a finite, positive volume, and score, when given, in
    [0, 1]. Each angle goes through normalize_angle, which raises the
    constructors' fault of a non-finite one, and occlusion becomes an
    Occlusion. It takes the rows that _constructed_row takes."""
    if not (
        0.0 <= truncation <= 1.0
        and occlusion in _OCCLUSIONS
        and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
        and h > 0.0 and w > 0.0 and l > 0.0 and 0.0 < h * w * l < math.inf
        and (score is None or 0.0 <= score <= 1.0)
    ):
        return None
    box = (x, y, z, h, w, l, normalize_angle(yaw), normalize_angle(pitch), normalize_angle(roll))
    return class_name, truncation, _OCCLUSIONS[int(occlusion)], box2d, score, box


def _constructed_row(row: tuple) -> tuple:
    """The row of the record that the constructors build of row's values,
    the orientation, then the box, then the record; a value that fails one
    of their checks raises its ValidationError."""
    class_name, truncation, occlusion, box2d, score, box = row
    box3d = Box3D(center=box[:3], dims=box[3:6], orientation=EulerOrientation(*box[6:]))
    if score is None:
        return _record_row(AnnotationRecord(class_name, box3d, truncation, occlusion, box2d))
    return _record_row(DetectionRecord(class_name, box3d, truncation, occlusion, box2d, score=score))


def _record(row: tuple, frame_id: str) -> AnnotationRecord:
    """The record of a checked row, built as the dataclass __init__ sets it,
    one object.__setattr__ a field, so that it takes no more memory than a
    constructed one; only __post_init__, the checks and conversions, is not
    run."""
    class_name, truncation, occlusion, box2d, score, (x, y, z, h, w, l, yaw, pitch, roll) = row
    orientation = object.__new__(EulerOrientation)
    _set(orientation, "yaw", yaw)
    _set(orientation, "pitch", pitch)
    _set(orientation, "roll", roll)
    box = object.__new__(Box3D)
    _set(box, "center", (x, y, z))
    _set(box, "dims", (h, w, l))
    _set(box, "orientation", orientation)
    record = object.__new__(AnnotationRecord if score is None else DetectionRecord)
    _set(record, "class_name", class_name)
    _set(record, "box3d", box)
    _set(record, "truncation", truncation)
    _set(record, "occlusion", occlusion)
    _set(record, "box2d", box2d)
    _set(record, "frame_id", frame_id)
    if score is not None:
        _set(record, "score", score)
    return record


def _record_row(record: AnnotationRecord) -> tuple:
    """The row of a record, its values as the record holds them."""
    box = record.box3d
    return (
        record.class_name, record.truncation, record.occlusion, record.box2d,
        record.score if isinstance(record, DetectionRecord) else None,
        (*box.center, *box.dims, *box.orientation.as_tuple()),
    )


def _move_rows(rigid: RigidTransform, rows: Sequence[tuple]) -> tuple[list[tuple], str | None]:
    """The rows with their boxes moved by rigid in one array step, up to the
    first row at fault, and that fault's message, or None (camera._move_poses)."""
    centers, rotations, _ = _param_arrays(np.array([row[5] for row in rows]).reshape(-1, 9))
    poses, fault = _move_poses(rigid, centers, rotations)
    moved = [
        (*row[:5], (x, y, z, *row[5][3:6], yaw, pitch, roll))
        for row, (x, y, z, yaw, pitch, roll) in zip(rows, poses)
    ]
    return moved, fault


@dataclass(frozen=True)
class FrameRecord:
    """One image frame with its annotations and calibration reference."""

    frame_id: str
    image_path: str = ""
    image_size: tuple[int, int] = (0, 0)
    calibration_ref: str = ""
    annotations: tuple[AnnotationRecord, ...] = ()
    tags: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        object.__setattr__(self, "image_size", tuple(int(v) for v in self.image_size))
        tags = self.tags.items() if isinstance(self.tags, dict) else self.tags
        object.__setattr__(self, "tags", tuple(sorted(tags)))


@dataclass(frozen=True)
class DatasetManifest:
    """A named collection of frames with a closed class taxonomy."""

    name: str
    class_taxonomy: tuple[str, ...]
    frames: tuple[FrameRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "class_taxonomy", tuple(self.class_taxonomy))
        object.__setattr__(self, "frames", tuple(self.frames))
        seen: set[str] = set()
        taxonomy = set(self.class_taxonomy)
        if len(taxonomy) < len(self.class_taxonomy):
            repeated = next(c for c, n in Counter(self.class_taxonomy).items() if n > 1)
            raise ValidationError(f"duplicate class {repeated!r} in the taxonomy")
        for frame in self.frames:
            if frame.frame_id in seen:
                raise ValidationError(f"duplicate frame_id {frame.frame_id!r}")
            seen.add(frame.frame_id)
            for ann in frame.annotations:
                if ann.class_name not in taxonomy:
                    raise ValidationError(
                        f"class {ann.class_name!r} in frame {frame.frame_id!r} "
                        f"is not in the taxonomy"
                    )

    @property
    def frame_ids(self) -> tuple[str, ...]:
        return tuple(f.frame_id for f in self.frames)


# --------------------------------------------------------------------------
# kitti_ext labels

_KITTI_FIELDS = (
    "class", "truncation", "occlusion", "alpha",
    "x1", "y1", "x2", "y2",
    "h", "w", "l", "x", "y", "z", "yaw",
)
_NO_BOX2D = (-1.0, -1.0, -1.0, -1.0)


# Field names of the columns after the class, by column count.
_KITTI_COLUMNS = {
    n: _KITTI_FIELDS[1:] + tail
    for n, tail in (
        (15, ()),
        (16, ("score",)),
        (17, ("pitch", "roll")),
        (18, ("pitch", "roll", "score")),
    )
}


def _kitti_row(line: str, line_no: int) -> tuple:
    """The checked row of one kitti_ext line."""
    tokens = line.split()
    names = _KITTI_COLUMNS.get(len(tokens))
    if names is None:
        raise ParseError(
            f"expected 15-18 columns, got {len(tokens)}", line=line_no, field=None
        )
    try:
        values = [float(token) for token in tokens[1:]]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        for token, name in zip(tokens[1:], names):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"cannot parse {token!r} as a number", line=line_no, field=name)
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {token!r}", line=line_no, field=name)
    truncation, occlusion_value, _alpha, x1, y1, x2, y2, h, w, l, x, y, z, yaw = values[:14]
    rect = (x1, y1, x2, y2)
    box2d = None if rect == _NO_BOX2D else rect
    rest = values[14:]
    pitch, roll = rest[:2] if len(rest) >= 2 else (0.0, 0.0)
    score = rest[-1] if len(rest) % 2 else None
    row = _valid_row(tokens[0], truncation, occlusion_value, box2d, score, x, y, z, h, w, l, yaw, pitch, roll)
    if row is not None:
        return row
    # A value fails a check: the checks below, and the constructors, name it.
    if not (0.0 <= truncation <= 1.0):
        raise ValidationError(f"truncation {truncation} out of [0, 1] (line {line_no})")
    if not occlusion_value.is_integer():
        raise ParseError(
            f"occlusion {tokens[2]!r} is not an integer", line=line_no, field="occlusion"
        )
    try:
        occlusion = Occlusion(int(occlusion_value))
    except ValueError:
        raise ValidationError(f"occlusion {tokens[2]!r} out of range 0-3 (line {line_no})")
    try:
        return _constructed_row((tokens[0], truncation, occlusion, box2d, score, (x, y, z, h, w, l, yaw, pitch, roll)))
    except ValidationError as exc:
        raise ValidationError(f"{exc} (line {line_no})") from exc


def _kitti_rows(text: str) -> list[tuple]:
    """The checked rows of kitti_ext text."""
    return [
        _kitti_row(line, line_no)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _parse_kitti(text: str, frame_id: str = "") -> list[AnnotationRecord]:
    """The records of kitti_ext text, each carrying frame_id."""
    return [_record(row, frame_id) for row in _kitti_rows(text)]


# "%.6g" % v gives the bytes of format(float(v), ".6g") for any real v.
_KITTI_LINE = "%s %.6g %d" + " %.6g" * 14


def _kitti_line(row: tuple) -> str:
    name, truncation, occlusion, box2d, score, (x, y, z, h, w, l, yaw, pitch, roll) = row
    if name.split() != [name]:
        raise SerializationError(f"class name {name!r} is empty or holds whitespace")
    # Derive alpha from the rounded values being written so that
    # write -> parse -> write is byte-stable.
    alpha = float("%.6g" % yaw) - math.atan2(float("%.6g" % x), float("%.6g" % z))
    rect = box2d if box2d is not None else _NO_BOX2D
    line = _KITTI_LINE % (name, truncation, occlusion, alpha, *rect, h, w, l, x, y, z, yaw, pitch, roll)
    if score is not None:
        line += " %.6g" % score
    return line


def _kitti_text(rows: Iterable[tuple]) -> str:
    """The kitti_ext text of rows, one line each; no line is empty."""
    text = "\n".join(map(_kitti_line, rows))
    return text + "\n" if text else ""


# --------------------------------------------------------------------------
# JSON record schema (shared by manifests and the manifest_json label format)

def _is_number(value) -> bool:
    """A finite JSON number: an int, or a float that is neither NaN nor
    infinite; never a bool or a string. An int is tested first: it is always
    finite, and math.isfinite overflows on one too large for a float."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _is_whole(value) -> bool:
    """A JSON number with no fractional part."""
    return _is_number(value) and (type(value) is int or value.is_integer())


def _is_image_size(value, smallest: int) -> bool:
    """A JSON list of two whole numbers, each at least smallest."""
    return isinstance(value, list) and len(value) == 2 and all(_is_whole(v) and v >= smallest for v in value)


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} {value!r} is not a string")
    return value


def _number(value, field: str):
    if not _is_number(value):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return value


def _numbers(values, field: str) -> tuple:
    values = tuple(values)
    if not all(map(_is_number, values)):
        raise ValueError(f"{field} must hold finite numbers, got {list(values)!r}")
    return values


_NUMBER_TYPES = frozenset((int, float))  # a JSON number: never a bool, a string or None


def _annotation_row(obj: dict, frame_id: str) -> tuple:
    """The checked row of one manifest annotation object.

    Center, dims and box2d lists of 3, 3 and 4 values, a string class name,
    and JSON numbers wherever numbers belong, each finite as a float, go
    through _valid_row. An annotation that fails any of that, or a record
    rule, goes through _annotation_walk, which names the fault.
    """
    row = None
    try:
        box = obj["box3d"]
        center, dims, box2d, class_name = box["center"], box["dims"], obj.get("box2d"), obj["class_name"]
        numbers = [
            *center, *dims, box.get("yaw", 0.0), box.get("pitch", 0.0), box.get("roll", 0.0),
            obj.get("truncation", 0.0), obj.get("occlusion", 0), obj.get("score", 0.0), *(box2d or ()),
        ]
        if (
            type(center) is list and len(center) == 3
            and type(dims) is list and len(dims) == 3
            and (box2d is None or type(box2d) is list and len(box2d) == 4)
            and type(class_name) is str
            and _NUMBER_TYPES.issuperset(map(type, numbers))
        ):
            numbers = list(map(float, numbers))  # an int too large for a float overflows
            if all(map(math.isfinite, numbers)):
                x, y, z, h, w, l, yaw, pitch, roll, truncation, occlusion, score = numbers[:12]
                row = _valid_row(
                    class_name, truncation, occlusion, None if box2d is None else tuple(numbers[12:]),
                    score if "score" in obj else None, x, y, z, h, w, l, yaw, pitch, roll,
                )
    except (KeyError, TypeError, OverflowError):
        pass
    return _annotation_walk(obj, frame_id) if row is None else row


def _annotation_walk(obj: dict, frame_id: str) -> tuple:
    """One manifest annotation object built through the constructors, each
    value checked in turn; a fault is a SchemaError that names it. Should
    the constructors take it, the row is their record's."""
    # A value of the wrong kind is a KeyError, TypeError, ValueError or
    # OverflowError: a missing key, a string, bool or non-finite value where a
    # number belongs, an unknown or fractional occlusion level, or an int too
    # large to be a float. A value out of its range is a ValidationError.
    try:
        box = obj["box3d"]
        box3d = Box3D(
            center=_numbers(box["center"], "center"),
            dims=_numbers(box["dims"], "dims"),
            orientation=EulerOrientation(
                *_numbers((box.get("yaw", 0.0), box.get("pitch", 0.0), box.get("roll", 0.0)), "yaw, pitch, roll")
            ),
        )
        occlusion = obj.get("occlusion", 0)
        if not _is_whole(occlusion):
            raise ValueError(f"occlusion {occlusion!r} is not a whole number")
        box2d = obj.get("box2d")
        kwargs = dict(
            class_name=_string(obj["class_name"], "class_name"),
            truncation=float(_number(obj.get("truncation", 0.0), "truncation")),
            occlusion=Occlusion(int(occlusion)),
            box2d=_numbers(box2d, "box2d") if box2d is not None else None,
            box3d=box3d,
            frame_id=frame_id,
        )
        if "score" in obj:
            return _record_row(DetectionRecord(score=float(_number(obj["score"], "score")), **kwargs))
        return _record_row(AnnotationRecord(**kwargs))
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"malformed annotation object in frame {frame_id!r}: {exc}") from exc


_LABEL_FORMATS = ("kitti_ext", "manifest_json")


def parse_labels(text: str, fmt: str = "kitti_ext") -> list[AnnotationRecord]:
    """Parse label text into annotation (or detection) records.

    For manifest_json input the frames' annotations are returned flattened,
    each carrying the frame_id of the frame that holds it.
    """
    if fmt == "kitti_ext":
        return _parse_kitti(text)
    if fmt == "manifest_json":
        return [ann for frame in load_manifest(text).frames for ann in frame.annotations]
    raise ValidationError(f"unknown label format {fmt!r}")


def _label_rows(text: str, fmt: str) -> Iterable[tuple[tuple, str]]:
    """parse_labels(text, fmt) as (row, frame_id) pairs, each row of
    manifest_json made as it is written."""
    if fmt == "kitti_ext":
        return ((row, "") for row in _kitti_rows(text))
    return ((_record_row(r), r.frame_id) for r in parse_labels(text, fmt))


def write_labels(records: Sequence[AnnotationRecord], fmt: str = "kitti_ext") -> str:
    """Serialize records; inverse of parse_labels for both formats."""
    if fmt not in _LABEL_FORMATS:
        raise ValidationError(f"unknown label format {fmt!r}")
    return _write_rows(((_record_row(r), r.frame_id) for r in records), fmt)


def _write_rows(labels: Iterable[tuple[tuple, str]], fmt: str) -> str:
    """write_labels of the records with these (row, frame_id) pairs."""
    if fmt == "kitti_ext":
        return _kitti_text(row for row, _ in labels)
    # Rows grouped by frame, in a taxonomy of their classes, keep the rules
    # of a DatasetManifest.
    by_frame: dict[str, list[tuple]] = {}
    for row, frame_id in labels:
        by_frame.setdefault(frame_id, []).append(row)
    taxonomy = sorted({row[0] for rows in by_frame.values() for row in rows})
    frames = [(FrameRecord(frame_id=frame_id), rows) for frame_id, rows in by_frame.items()]
    return _dump_document("labels", taxonomy, frames)


# --------------------------------------------------------------------------
# Manifest JSON

def load_manifest(text: str) -> DatasetManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("frames"), list):
        raise SchemaError("manifest document must be an object with a 'frames' list")
    frames = []
    for index, fobj in enumerate(doc["frames"]):
        try:
            frame_id = _string(fobj["frame_id"], "frame_id")
            image_size = fobj.get("image_size", [0, 0])
            if not _is_image_size(image_size, 0):
                raise ValueError(
                    f"image_size {image_size!r} of frame {frame_id!r} must hold whole numbers, two of them, none negative"
                )
            annotations = tuple(_record(_annotation_row(a, frame_id), frame_id) for a in fobj.get("annotations", []))
            frames.append(
                FrameRecord(
                    frame_id=frame_id,
                    image_path=_string(fobj.get("image_path", ""), "image_path"),
                    image_size=image_size,
                    calibration_ref=_string(fobj.get("calibration_ref", ""), "calibration_ref"),
                    annotations=annotations,
                    tags=tuple((k, _string(v, f"tag {k!r}")) for k, v in fobj.get("tags", {}).items()),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed frame object at index {index}: {exc}") from exc
    name, taxonomy = doc.get("name", ""), doc.get("class_taxonomy", [])
    if not isinstance(name, str):
        raise SchemaError(f"manifest name {name!r} is not a string")
    if not (isinstance(taxonomy, list) and all(isinstance(c, str) for c in taxonomy)):
        raise SchemaError(f"class_taxonomy {taxonomy!r} must be a list of strings")
    return DatasetManifest(
        name=name,
        class_taxonomy=tuple(taxonomy),
        frames=tuple(frames),
    )


# The manifest document as json.dumps(doc, indent=2, sort_keys=True) lays it
# out: one template per object, its keys sorted, at its fixed nesting depth.
_MANIFEST = """{
  "class_taxonomy": %s,
  "frames": %s,
  "name": %s
}"""
_FRAME = """{
      "annotations": %s,
      "calibration_ref": %s,
      "frame_id": %s,
      "image_path": %s,
      "image_size": %s%s
    }"""
_TAGS = """,
      "tags": %s"""
_ANNOTATION = """{
          "box2d": %s,
          "box3d": {
            "center": [
              %s,
              %s,
              %s
            ],
            "dims": [
              %s,
              %s,
              %s
            ],
            "pitch": %s,
            "roll": %s,
            "yaw": %s
          },
          "class_name": %s,
          "occlusion": %d,%s
          "truncation": %s
        }"""
_SCORE = """
          "score": %s,"""


def _json(value, depth: int) -> str:
    """One JSON value at nesting depth `depth`, as json.dumps(indent=2) writes it.

    Strings and finite floats are written directly; every other value goes
    through json.dumps: NaN and infinities, ints, bools, None, float
    subclasses such as np.float64, and containers, re-indented to the depth.
    """
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_list(items: list[str], depth: int) -> str:
    """A JSON array at nesting depth `depth` of already written items."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _dump_annotation(row: tuple) -> str:
    class_name, truncation, occlusion, box2d, score, (x, y, z, h, w, l, yaw, pitch, roll) = row
    box2d = "null" if box2d is None else _json_list([_json(v, 6) for v in box2d], 5)
    score = "" if score is None else _SCORE % _json(score, 5)
    return _ANNOTATION % (
        box2d,
        *[_json(v, 7) for v in (x, y, z, h, w, l)],
        *[_json(v, 6) for v in (pitch, roll, yaw)],
        _json(class_name, 5), int(occlusion), score, _json(truncation, 5),
    )


def _dump_frame(frame: FrameRecord, rows) -> str:
    """A frame's JSON object with the annotations of rows."""
    tags = _TAGS % _json(dict(frame.tags), 3) if frame.tags else ""
    return _FRAME % (
        _json_list([_dump_annotation(row) for row in rows], 3),
        _json(frame.calibration_ref, 3),
        _json(frame.frame_id, 3),
        _json(frame.image_path, 3),
        _json_list([_json(v, 4) for v in frame.image_size], 3),
        tags,
    )


def _dump_document(name: str, taxonomy: Sequence[str], frames) -> str:
    """The manifest document of (frame, annotation rows) pairs."""
    return _MANIFEST % (
        _json_list([_json(c, 2) for c in taxonomy], 1),
        _json_list([_dump_frame(frame, rows) for frame, rows in frames], 1),
        _json(name, 1),
    )


def dump_manifest(manifest: DatasetManifest) -> str:
    """Manifest JSON text, byte for byte what json.dumps(indent=2, sort_keys=True) writes."""
    frames = [(frame, map(_record_row, frame.annotations)) for frame in manifest.frames]
    return _dump_document(manifest.name, manifest.class_taxonomy, frames)


# --------------------------------------------------------------------------
# Calibration JSON

@dataclass(frozen=True)
class CalibrationSet:
    """Camera intrinsics plus the frame-labeled rigid transforms."""

    intrinsics: Intrinsics
    transforms: tuple[RigidTransform, ...] = ()

    def transform(self, source: str, target: str) -> RigidTransform:
        for t in self.transforms:
            if t.source_frame == source and t.target_frame == target:
                return t
        for t in self.transforms:
            if t.source_frame == target and t.target_frame == source:
                return t.inverse()
        raise CalibrationError(f"no transform from {source!r} to {target!r}")


def parse_calibration(text: str) -> CalibrationSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(doc, dict) or "K" not in doc:
        raise SchemaError("calibration document must be an object holding 'K'")
    image_size = doc.get("image_size", (0, 0))
    if not _is_image_size(image_size, 1):
        raise SchemaError(f"image_size must be two positive integers, got {image_size!r}")
    # An int too large to be a float ends in an OverflowError.
    try:
        intrinsics = Intrinsics.from_matrix(np.reshape(_numbers(doc["K"], "K"), (3, 3)), image_size)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed K: {exc}") from exc
    tobjs = doc.get("transforms", [])
    if not isinstance(tobjs, list):
        raise SchemaError(f"transforms {tobjs!r} must be a list")
    transforms = []
    for tobj in tobjs:
        try:
            rigid = RigidTransform(
                rotation=np.reshape(_numbers(tobj["R"], "R"), (3, 3)),
                translation=np.reshape(_numbers(tobj["t"], "t"), 3),
                source_frame=_string(tobj["source"], "source"),
                target_frame=_string(tobj["target"], "target"),
            )
        except ValidationError as exc:
            raise CalibrationError(f"transform {tobj['source']!r}->{tobj['target']!r}: {exc}") from exc
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed transform object: {exc}") from exc
        transforms.append(rigid)
    return CalibrationSet(intrinsics=intrinsics, transforms=tuple(transforms))


def dump_calibration(calibration: CalibrationSet) -> str:
    intr = calibration.intrinsics
    doc = {
        "K": [float(v) for v in intr.matrix.ravel()],
        "image_size": [intr.image_width, intr.image_height],
        "transforms": [
            {
                "source": t.source_frame,
                "target": t.target_frame,
                "R": [float(v) for v in t.rotation.ravel()],
                "t": [float(v) for v in t.translation],
            }
            for t in calibration.transforms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Dataset statistics and class remapping

@dataclass(frozen=True)
class DatasetStats:
    frames: int
    boxes: int
    per_class: tuple[tuple[str, int], ...]
    resolutions: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "frames": self.frames,
            "boxes": self.boxes,
            "per_class": dict(self.per_class),
            "resolutions": [list(r) for r in self.resolutions],
        }


def dataset_stats(manifest: DatasetManifest) -> DatasetStats:
    """Exact frame/box counts, per-class totals, and distinct image sizes."""
    counts: Counter[str] = Counter()
    resolutions: set[tuple[int, int]] = set()
    boxes = 0
    for frame in manifest.frames:
        resolutions.add(frame.image_size)
        boxes += len(frame.annotations)
        for ann in frame.annotations:
            counts[ann.class_name] += 1
    return DatasetStats(
        frames=len(manifest.frames),
        boxes=boxes,
        per_class=tuple(sorted(counts.items())),
        resolutions=tuple(sorted(resolutions)),
    )


def remap_classes(
    manifest: DatasetManifest, mapping: dict[str, str]
) -> tuple[DatasetManifest, int]:
    """Rename classes through a mapping table; unmapped classes are dropped.

    Returns the remapped manifest and the number of dropped annotations.
    """
    dropped = 0
    frames = []
    for frame in manifest.frames:
        kept = []
        for ann in frame.annotations:
            target = mapping.get(ann.class_name)
            if target is None:
                dropped += 1
                continue
            kept.append(replace(ann, class_name=target, frame_id=frame.frame_id))
        frames.append(replace(frame, annotations=tuple(kept)))
    taxonomy = tuple(sorted(set(mapping.values())))
    return DatasetManifest(name=manifest.name, class_taxonomy=taxonomy, frames=tuple(frames)), dropped
