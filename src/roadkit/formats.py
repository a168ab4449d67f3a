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
        object.__setattr__(self, "occlusion", Occlusion(self.occlusion))
        if self.box2d is not None:
            object.__setattr__(self, "box2d", tuple(float(v) for v in self.box2d))


@dataclass(frozen=True)
class DetectionRecord(AnnotationRecord):
    """An annotation plus a detector confidence score."""

    score: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score must be in [0, 1], got {self.score}")


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


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _parse_float(token: str, line_no: int, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token!r} as a number", line=line_no, field=name)
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line_no, field=name)
    return value


def _parse_kitti_line(line: str, line_no: int) -> AnnotationRecord:
    tokens = line.split()
    if len(tokens) not in (15, 16, 17, 18):
        raise ParseError(
            f"expected 15-18 columns, got {len(tokens)}", line=line_no, field=None
        )
    class_name = tokens[0]
    truncation = _parse_float(tokens[1], line_no, "truncation")
    if not (0.0 <= truncation <= 1.0):
        raise ValidationError(f"truncation {truncation} out of [0, 1] (line {line_no})")
    occlusion_value = _parse_float(tokens[2], line_no, "occlusion")
    if not occlusion_value.is_integer():
        raise ParseError(
            f"occlusion {tokens[2]!r} is not an integer", line=line_no, field="occlusion"
        )
    try:
        occlusion = Occlusion(int(occlusion_value))
    except ValueError:
        raise ValidationError(f"occlusion {tokens[2]!r} out of range 0-3 (line {line_no})")
    _parse_float(tokens[3], line_no, "alpha")  # observation angle; not retained
    rect = tuple(
        _parse_float(tokens[4 + i], line_no, _KITTI_FIELDS[4 + i]) for i in range(4)
    )
    box2d = None if all(v == -1.0 for v in rect) else rect
    h = _parse_float(tokens[8], line_no, "h")
    w = _parse_float(tokens[9], line_no, "w")
    l = _parse_float(tokens[10], line_no, "l")
    x = _parse_float(tokens[11], line_no, "x")
    y = _parse_float(tokens[12], line_no, "y")
    z = _parse_float(tokens[13], line_no, "z")
    yaw = _parse_float(tokens[14], line_no, "yaw")
    pitch = roll = 0.0
    score = None
    rest = tokens[15:]
    if len(rest) == 1:
        score = _parse_float(rest[0], line_no, "score")
    elif len(rest) >= 2:
        pitch = _parse_float(rest[0], line_no, "pitch")
        roll = _parse_float(rest[1], line_no, "roll")
        if len(rest) == 3:
            score = _parse_float(rest[2], line_no, "score")
    try:
        box3d = Box3D(center=(x, y, z), dims=(h, w, l), orientation=EulerOrientation(yaw, pitch, roll))
    except ValidationError as exc:
        raise ValidationError(f"{exc} (line {line_no})") from exc
    kwargs = dict(
        class_name=class_name,
        truncation=truncation,
        occlusion=occlusion,
        box2d=box2d,
        box3d=box3d,
    )
    if score is None:
        return AnnotationRecord(**kwargs)
    return DetectionRecord(score=score, **kwargs)


def _write_kitti_line(record: AnnotationRecord) -> str:
    if any(ch.isspace() for ch in record.class_name) or not record.class_name:
        raise SerializationError(f"class name {record.class_name!r} is empty or holds whitespace")
    box = record.box3d
    x, y, z = box.center
    # Derive alpha from the rounded values being written so that
    # write -> parse -> write is byte-stable.
    alpha = float(_fmt(box.orientation.yaw)) - math.atan2(float(_fmt(x)), float(_fmt(z)))
    rect = record.box2d if record.box2d is not None else (-1.0, -1.0, -1.0, -1.0)
    tokens = [
        record.class_name,
        _fmt(record.truncation),
        str(int(record.occlusion)),
        _fmt(alpha),
        *(_fmt(v) for v in rect),
        *(_fmt(v) for v in box.dims),
        *(_fmt(v) for v in box.center),
        _fmt(box.orientation.yaw),
        _fmt(box.orientation.pitch),
        _fmt(box.orientation.roll),
    ]
    if isinstance(record, DetectionRecord):
        tokens.append(_fmt(record.score))
    return " ".join(tokens)


# --------------------------------------------------------------------------
# JSON record schema (shared by manifests and the manifest_json label format)

def _annotation_to_dict(record: AnnotationRecord) -> dict:
    box = record.box3d
    out = {
        "class_name": record.class_name,
        "truncation": record.truncation,
        "occlusion": int(record.occlusion),
        "box2d": list(record.box2d) if record.box2d is not None else None,
        "box3d": {
            "center": list(box.center),
            "dims": list(box.dims),
            "yaw": box.orientation.yaw,
            "pitch": box.orientation.pitch,
            "roll": box.orientation.roll,
        },
    }
    if isinstance(record, DetectionRecord):
        out["score"] = record.score
    return out


def _annotation_from_dict(obj: dict, frame_id: str = "") -> AnnotationRecord:
    try:
        box = obj["box3d"]
        box3d = Box3D(
            center=tuple(box["center"]),
            dims=tuple(box["dims"]),
            orientation=EulerOrientation(
                box.get("yaw", 0.0), box.get("pitch", 0.0), box.get("roll", 0.0)
            ),
        )
        kwargs = dict(
            class_name=obj["class_name"],
            truncation=float(obj.get("truncation", 0.0)),
            occlusion=Occlusion(int(obj.get("occlusion", 0))),
            box2d=tuple(obj["box2d"]) if obj.get("box2d") is not None else None,
            box3d=box3d,
            frame_id=obj.get("frame_id", frame_id),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed annotation object: {exc}") from exc
    if "score" in obj:
        return DetectionRecord(score=float(obj["score"]), **kwargs)
    return AnnotationRecord(**kwargs)


def parse_labels(text: str, fmt: str = "kitti_ext") -> list[AnnotationRecord]:
    """Parse label text into annotation (or detection) records.

    For manifest_json input the frames' annotations are returned flattened,
    each carrying its frame_id.
    """
    if fmt == "kitti_ext":
        records = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            records.append(_parse_kitti_line(line, line_no))
        return records
    if fmt == "manifest_json":
        manifest = load_manifest(text)
        out: list[AnnotationRecord] = []
        for frame in manifest.frames:
            for ann in frame.annotations:
                if ann.frame_id != frame.frame_id:
                    ann = _annotation_from_dict(_annotation_to_dict(ann), frame.frame_id)
                out.append(ann)
        return out
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
    if not isinstance(doc, dict) or "frames" not in doc:
        raise SchemaError("manifest document must be an object with a 'frames' list")
    frames = []
    for fobj in doc["frames"]:
        try:
            frame_id = fobj["frame_id"]
            annotations = tuple(
                _annotation_from_dict(a, frame_id) for a in fobj.get("annotations", [])
            )
            frames.append(
                FrameRecord(
                    frame_id=frame_id,
                    image_path=fobj.get("image_path", ""),
                    image_size=tuple(fobj.get("image_size", (0, 0))),
                    calibration_ref=fobj.get("calibration_ref", ""),
                    annotations=annotations,
                    tags=tuple((k, v) for k, v in fobj.get("tags", {}).items()),
                )
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed frame object: {exc}") from exc
    return DatasetManifest(
        name=doc.get("name", ""),
        class_taxonomy=tuple(doc.get("class_taxonomy", ())),
        frames=tuple(frames),
    )


def dump_manifest(manifest: DatasetManifest) -> str:
    frames = []
    for frame in manifest.frames:
        fobj = {
            "frame_id": frame.frame_id,
            "image_path": frame.image_path,
            "image_size": list(frame.image_size),
            "calibration_ref": frame.calibration_ref,
            "annotations": [_annotation_to_dict(a) for a in frame.annotations],
        }
        if frame.tags:
            fobj["tags"] = dict(frame.tags)
        frames.append(fobj)
    doc = {
        "name": manifest.name,
        "class_taxonomy": list(manifest.class_taxonomy),
        "frames": frames,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


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
    k = np.asarray(doc["K"], dtype=float)
    if k.size != 9:
        raise SchemaError(f"K must hold 9 numbers, got {k.size}")
    image_size = tuple(doc.get("image_size", (0, 0)))
    if len(image_size) != 2 or image_size[0] <= 0 or image_size[1] <= 0:
        raise SchemaError(f"image_size must be two positive integers, got {image_size}")
    intrinsics = Intrinsics.from_matrix(k.reshape(3, 3), image_size)
    transforms = []
    for tobj in doc.get("transforms", []):
        try:
            rot = np.asarray(tobj["R"], dtype=float).reshape(3, 3)
            t = np.asarray(tobj["t"], dtype=float).reshape(3)
            source, target = tobj["source"], tobj["target"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed transform object: {exc}") from exc
        try:
            transforms.append(
                RigidTransform(rotation=rot, translation=t, source_frame=source, target_frame=target)
            )
        except ValidationError as exc:
            raise CalibrationError(f"transform {source!r}->{target!r}: {exc}") from exc
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
            obj = _annotation_to_dict(ann)
            obj["class_name"] = target
            kept.append(_annotation_from_dict(obj, frame.frame_id))
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
