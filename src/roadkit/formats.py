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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .camera import Intrinsics, RigidTransform
from .errors import (
    CalibrationError,
    ParseError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from .geometry import Box3D, EulerOrientation


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


def _with_fields(record: AnnotationRecord, **changes) -> AnnotationRecord:
    """dataclasses.replace for class_name, box3d and frame_id, which
    __post_init__ does not check: the record's other fields were checked when
    it was built, and are copied without checking them again."""
    new = object.__new__(type(record))
    new.__dict__.update(record.__dict__, **changes)
    return new


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


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


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


def _parse_kitti_line(line: str, line_no: int) -> AnnotationRecord:
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
    rect = (x1, y1, x2, y2)
    box2d = None if rect == _NO_BOX2D else rect
    rest = values[14:]
    pitch, roll = rest[:2] if len(rest) >= 2 else (0.0, 0.0)
    try:
        box3d = Box3D(center=(x, y, z), dims=(h, w, l), orientation=EulerOrientation(yaw, pitch, roll))
        if len(rest) % 2 == 0:  # no score column
            return AnnotationRecord(tokens[0], box3d, truncation, occlusion, box2d)
        return DetectionRecord(tokens[0], box3d, truncation, occlusion, box2d, score=rest[-1])
    except ValidationError as exc:
        raise ValidationError(f"{exc} (line {line_no})") from exc


# "%.6g" % v gives the bytes of format(float(v), ".6g") for any real v.
_KITTI_LINE = "%s %.6g %d" + " %.6g" * 14


def _write_kitti_line(record: AnnotationRecord) -> str:
    name = record.class_name
    if name.split() != [name]:
        raise SerializationError(f"class name {name!r} is empty or holds whitespace")
    box = record.box3d
    x, y, z = box.center
    yaw, pitch, roll = box.orientation.as_tuple()
    # Derive alpha from the rounded values being written so that
    # write -> parse -> write is byte-stable.
    alpha = float(_fmt(yaw)) - math.atan2(float(_fmt(x)), float(_fmt(z)))
    rect = record.box2d if record.box2d is not None else _NO_BOX2D
    line = _KITTI_LINE % (
        name, record.truncation, record.occlusion, alpha, *rect, *box.dims, x, y, z, yaw, pitch, roll
    )
    if isinstance(record, DetectionRecord):
        line += " %.6g" % record.score
    return line


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


def _annotation_from_dict(obj: dict, frame_id: str = "") -> AnnotationRecord:
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
            return DetectionRecord(score=float(_number(obj["score"], "score")), **kwargs)
        return AnnotationRecord(**kwargs)
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise SchemaError(f"malformed annotation object in frame {frame_id!r}: {exc}") from exc


def parse_labels(text: str, fmt: str = "kitti_ext") -> list[AnnotationRecord]:
    """Parse label text into annotation (or detection) records.

    For manifest_json input the frames' annotations are returned flattened,
    each carrying the frame_id of the frame that holds it.
    """
    if fmt == "kitti_ext":
        records = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            records.append(_parse_kitti_line(line, line_no))
        return records
    if fmt == "manifest_json":
        return [ann for frame in load_manifest(text).frames for ann in frame.annotations]
    raise ValidationError(f"unknown label format {fmt!r}")


def write_labels(records: Sequence[AnnotationRecord], fmt: str = "kitti_ext") -> str:
    """Serialize records; inverse of parse_labels for both formats."""
    if fmt == "kitti_ext":
        if not records:
            return ""
        return "\n".join(_write_kitti_line(r) for r in records) + "\n"
    if fmt == "manifest_json":
        by_frame: dict[str, list[AnnotationRecord]] = {}
        for r in records:
            by_frame.setdefault(r.frame_id, []).append(r)
        taxonomy = sorted({r.class_name for r in records})
        frames = [
            FrameRecord(frame_id=fid, annotations=tuple(anns))
            for fid, anns in by_frame.items()
        ]
        return dump_manifest(DatasetManifest(name="labels", class_taxonomy=taxonomy, frames=frames))
    raise ValidationError(f"unknown label format {fmt!r}")


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
            annotations = tuple(
                _annotation_from_dict(a, frame_id) for a in fobj.get("annotations", [])
            )
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


def _dump_annotation(record: AnnotationRecord) -> str:
    box = record.box3d
    orientation = box.orientation
    box2d = "null" if record.box2d is None else _json_list([_json(v, 6) for v in record.box2d], 5)
    score = _SCORE % _json(record.score, 5) if isinstance(record, DetectionRecord) else ""
    return _ANNOTATION % (
        box2d,
        *[_json(v, 7) for v in (*box.center, *box.dims)],
        *[_json(v, 6) for v in (orientation.pitch, orientation.roll, orientation.yaw)],
        _json(record.class_name, 5), int(record.occlusion), score, _json(record.truncation, 5),
    )


def _dump_frame(frame: FrameRecord) -> str:
    tags = _TAGS % _json(dict(frame.tags), 3) if frame.tags else ""
    return _FRAME % (
        _json_list([_dump_annotation(a) for a in frame.annotations], 3),
        _json(frame.calibration_ref, 3),
        _json(frame.frame_id, 3),
        _json(frame.image_path, 3),
        _json_list([_json(v, 4) for v in frame.image_size], 3),
        tags,
    )


def dump_manifest(manifest: DatasetManifest) -> str:
    """Manifest JSON text, byte for byte what json.dumps(indent=2, sort_keys=True) writes."""
    return _MANIFEST % (
        _json_list([_json(c, 2) for c in manifest.class_taxonomy], 1),
        _json_list([_dump_frame(f) for f in manifest.frames], 1),
        _json(manifest.name, 1),
    )


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
            kept.append(_with_fields(ann, class_name=target, frame_id=frame.frame_id))
        frames.append(
            FrameRecord(
                frame_id=frame.frame_id,
                image_path=frame.image_path,
                image_size=frame.image_size,
                calibration_ref=frame.calibration_ref,
                annotations=tuple(kept),
                tags=frame.tags,
            )
        )
    taxonomy = tuple(sorted(set(mapping.values())))
    return DatasetManifest(name=manifest.name, class_taxonomy=taxonomy, frames=tuple(frames)), dropped
