"""Detection matching, interpolated average precision, and report tooling."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .datasets import DIFFICULTY_RULES, DifficultyLevel, assign_difficulty
from .errors import (
    EmptyInputError,
    FrameReferenceError,
    SchemaError,
    TaxonomyError,
    ValidationError,
)
from .formats import AnnotationRecord, DatasetManifest, DetectionRecord, _is_whole, _number
from .geometry import _iou_sweep, iou3d_matrix, rotation_from_euler


def _check_threshold(threshold: float, what: str = "iou_threshold") -> None:
    if not (0.0 < threshold < 1.0):  # NaN fails too
        raise ValidationError(f"{what} must be in (0, 1), got {threshold}")


@dataclass(frozen=True)
class MatchResult:
    """Per-frame greedy matching outcome at one IoU threshold.

    Indices refer to the input sequences. Detections in ignored_det overlap
    only out-of-level (don't-care) ground truth and count as neither TP nor
    FP.
    """

    pairs: tuple[tuple[int, int, float], ...]  # (gt_idx, det_idx, iou)
    unmatched_gt: tuple[int, ...]  # false negatives
    unmatched_det: tuple[int, ...]  # false positives
    ignored_det: tuple[int, ...] = ()


def match_frame(
    gts: Sequence[AnnotationRecord],
    dets: Sequence[DetectionRecord],
    iou_threshold: float,
    class_name: str | None = None,
    ignored_gt: frozenset[int] | set[int] | None = None,
) -> MatchResult:
    """Greedily match detections to ground truth within one frame.

    Detections are processed in descending score (ties by input order) and
    matched to the unmatched same-class GT with the highest iou3d at or above
    the threshold. GT indices in ignored_gt are don't-care: they cannot be
    matched or counted, and a detection whose only qualifying overlap is with
    such a GT is ignored rather than counted as a false positive.
    """
    ignored_gt = frozenset(ignored_gt or ())
    rows, cols = _class_indices(gts, dets, class_name)
    ious = iou3d_matrix([gts[i].box3d for i in rows], [dets[i].box3d for i in cols])
    ignored = np.array([i in ignored_gt for i in rows], dtype=bool)
    return _match_ranked(ious, rows, cols, ignored, iou_threshold)


def _class_indices(
    gts: Sequence[AnnotationRecord],
    dets: Sequence[DetectionRecord],
    class_name: str | None,
) -> tuple[list[int], list[int]]:
    """(GT indices, detection indices) of one class in one frame.

    GT rows keep input order; detection columns are in processing order,
    descending score with ties by input order. class_name None takes all.
    """
    rows = [i for i, g in enumerate(gts) if class_name is None or g.class_name == class_name]
    cols = sorted(
        (i for i, d in enumerate(dets) if class_name is None or d.class_name == class_name),
        key=lambda i: -dets[i].score,
    )
    return rows, cols


def _match_ranked(
    ious: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
    ignored: np.ndarray,
    iou_threshold: float,
) -> MatchResult:
    """Greedy matching as index work on one class's IoU matrix in one frame.

    ignored masks the don't-care rows. Each column in turn takes the open
    row of highest IoU at or above the threshold, the first such row on
    ties. Returned indices refer to the original inputs via rows and cols.
    """
    _check_threshold(iou_threshold)
    hits = ious >= iou_threshold
    dontcare_hit = np.any(hits[ignored], axis=0)
    open_rows = ~ignored
    pairs: list[tuple[int, int, float]] = []
    false_pos: list[int] = []
    ignored_det: list[int] = []
    for c, di in enumerate(cols):
        candidates = hits[:, c] & open_rows
        if candidates.any():
            r = int(np.argmax(np.where(candidates, ious[:, c], -1.0)))
            open_rows[r] = False
            pairs.append((rows[r], di, float(ious[r, c])))
        elif dontcare_hit[c]:
            ignored_det.append(di)
        else:
            false_pos.append(di)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_gt=tuple(rows[r] for r in np.flatnonzero(open_rows)),
        unmatched_det=tuple(false_pos),
        ignored_det=tuple(ignored_det),
    )


@dataclass(frozen=True)
class PRCurve:
    """Precision-recall points in descending-score detection order."""

    points: tuple[tuple[float, float], ...]  # (recall, precision)

    @classmethod
    def from_flags(cls, tp_flags: Sequence[bool], total_gt: int) -> "PRCurve":
        points = []
        tp = fp = 0
        for flag in tp_flags:
            if flag:
                tp += 1
            else:
                fp += 1
            recall = tp / total_gt if total_gt > 0 else 0.0
            precision = tp / (tp + fp)
            points.append((recall, precision))
        return cls(points=tuple(points))


_RECALL_SAMPLES = {
    "r40": [k / 40 for k in range(1, 41)],
    "r11": [k / 10 for k in range(0, 11)],
}


def _recall_samples(interpolation: str) -> list[float]:
    if interpolation not in _RECALL_SAMPLES:
        raise ValidationError(f"unknown interpolation {interpolation!r}")
    return _RECALL_SAMPLES[interpolation]


def average_precision(curve: PRCurve, interpolation: str = "r40") -> float:
    """Interpolated average precision on a 0-100 scale.

    r40 samples recall at {k/40 : k = 1..40}; r11 at {k/10 : k = 0..10}.
    Interpolated precision at r is the maximum precision at any recall >= r.
    """
    samples = _recall_samples(interpolation)
    precisions = []
    for r in samples:
        best = 0.0
        for recall, precision in curve.points:
            if recall >= r and precision > best:
                best = precision
        precisions.append(best)
    return sum(precisions) / len(samples) * 100.0


@dataclass(frozen=True)
class EvalCell:
    ap: float
    gt: int
    tp: int
    fp: int
    fn: int


@dataclass
class EvalConfig:
    iou_threshold: float = 0.5
    per_class_iou: dict[str, float] = field(default_factory=dict)
    interpolation: str = "r40"

    def __post_init__(self):
        _check_threshold(self.iou_threshold)
        _recall_samples(self.interpolation)
        for class_name, threshold in self.per_class_iou.items():
            _check_threshold(threshold, f"iou threshold of class {class_name!r}")

    def threshold_for(self, class_name: str) -> float:
        return self.per_class_iou.get(class_name, self.iou_threshold)


@dataclass
class EvalReport:
    """Per class x difficulty AP cells plus aggregate mAP per difficulty."""

    cells: dict[str, dict[str, EvalCell]]
    map3d: dict[str, float]
    iou_threshold: float = 0.5
    interpolation: str = "r40"
    per_class_iou: dict[str, float] = field(default_factory=dict)  # overrides of iou_threshold

    @classmethod
    def from_map_values(
        cls,
        easy: float,
        moderate: float,
        hard: float,
        class_name: str = "all",
        iou_threshold: float = 0.5,
        interpolation: str = "r40",
    ) -> "EvalReport":
        """Build a fixture report from aggregate per-difficulty values."""
        values = dict(zip([level.name.lower() for level in DIFFICULTY_RULES], (easy, moderate, hard)))
        cells = {class_name: {lvl: EvalCell(ap=v, gt=0, tp=0, fp=0, fn=0) for lvl, v in values.items()}}
        return cls(cells=cells, map3d=dict(values), iou_threshold=iou_threshold, interpolation=interpolation)

    def to_json(self) -> str:
        doc = {
            "iou_threshold": self.iou_threshold,
            "interpolation": self.interpolation,
            "classes": {
                cls_name: {
                    lvl: {"ap": c.ap, "gt": c.gt, "tp": c.tp, "fp": c.fp, "fn": c.fn}
                    for lvl, c in by_level.items()
                }
                for cls_name, by_level in self.cells.items()
            },
            "map": self.map3d,
        }
        if self.per_class_iou:
            doc["per_class_iou"] = self.per_class_iou
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        try:
            doc = json.loads(text)
            config = EvalConfig(
                iou_threshold=_number(doc["iou_threshold"], "iou_threshold"),
                per_class_iou={k: _number(v, f"iou of {k!r}") for k, v in doc.get("per_class_iou", {}).items()},
                interpolation=doc["interpolation"],
            )
            map3d = {lvl: _number(v, f"map {lvl!r}") for lvl, v in doc["map"].items()}
            cells = {}
            for cls_name, by_level in doc["classes"].items():
                if set(by_level) != set(map3d):
                    raise ValueError(f"levels {sorted(by_level)} of {cls_name!r} are not the map's {sorted(map3d)}")
                cells[cls_name] = {lvl: _cell(c, f"{cls_name!r} {lvl!r}") for lvl, c in by_level.items()}
        except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
            raise SchemaError(f"malformed report document: {exc}") from exc
        return cls(cells, map3d, config.iou_threshold, config.interpolation, config.per_class_iou)


def _cell(obj: dict, where: str) -> EvalCell:
    counts = {key: obj[key] for key in ("gt", "tp", "fp", "fn")}
    if not all(_is_whole(n) and n >= 0 for n in counts.values()):
        raise ValueError(f"{where} counts {counts} must be whole numbers, none negative")
    return EvalCell(ap=_number(obj["ap"], f"{where} ap"), **counts)


def _gt_difficulty(annotation: AnnotationRecord) -> DifficultyLevel:
    # Projected height comes from the annotation's 2D box when present;
    # without one, height-based gating is disabled for that object.
    if annotation.box2d is not None:
        height = annotation.box2d[3] - annotation.box2d[1]
    else:
        height = math.inf
    return assign_difficulty(annotation, max(height, 0.0))


def _group_detections(
    manifest: DatasetManifest,
    detections: Mapping[str, Sequence[DetectionRecord]] | Sequence[DetectionRecord],
) -> dict[str, list[DetectionRecord]]:
    if isinstance(detections, Mapping):
        grouped = {fid: list(dets) for fid, dets in detections.items()}
    else:
        grouped = {}
        for det in detections:
            grouped.setdefault(det.frame_id, []).append(det)
    known = set(manifest.frame_ids)
    taxonomy = set(manifest.class_taxonomy)
    for fid, dets in grouped.items():
        if fid not in known:
            raise FrameReferenceError(f"detections reference unknown frame {fid!r}")
        for det in dets:
            if det.class_name not in taxonomy:
                raise TaxonomyError(f"detection class {det.class_name!r} not in taxonomy")
    return grouped


def evaluate(
    manifest: DatasetManifest,
    detections: Mapping[str, Sequence[DetectionRecord]] | Sequence[DetectionRecord],
    config: EvalConfig | None = None,
) -> EvalReport:
    """Per class x difficulty AP over a manifest, pooled across frames.

    Frames are merged in sorted frame-id order. mAP per difficulty is the
    unweighted mean over classes that have at least one in-level GT box.
    """
    config = config or EvalConfig()
    grouped = _group_detections(manifest, detections)
    frames = sorted(manifest.frames, key=lambda f: f.frame_id)
    # Per (class, level): (score, is_tp) flags pooled over frames, and the
    # in-level GT count.
    flags: dict[tuple[str, DifficultyLevel], list[tuple[float, bool]]] = {
        (name, level): [] for name in manifest.class_taxonomy for level in DIFFICULTY_RULES
    }
    npos = dict.fromkeys(flags, 0)
    # Gather every (frame, class) group, take all their IoU matrices from one
    # kernel sweep, then match each group at every level.
    groups = []
    for frame in frames:
        gts = frame.annotations
        dets = grouped.get(frame.frame_id, [])
        difficulties = [_gt_difficulty(g) for g in gts]
        for cls_name in manifest.class_taxonomy:
            rows, cols = _class_indices(gts, dets, cls_name)
            boxes = ([gts[i].box3d for i in rows], [dets[i].box3d for i in cols])
            groups.append((dets, difficulties, cls_name, rows, cols, boxes))
    matrices = _iou_sweep([group[-1] for group in groups])
    for (dets, difficulties, cls_name, rows, cols, _), ious in zip(groups, matrices):
        for level in DIFFICULTY_RULES:
            # IGNORED ranks above every level, so it is always don't-care.
            ignored = np.array([difficulties[i] > level for i in rows], dtype=bool)
            result = _match_ranked(ious, rows, cols, ignored, config.threshold_for(cls_name))
            cell = flags[(cls_name, level)]
            npos[(cls_name, level)] += len(rows) - int(np.count_nonzero(ignored))
            for _, di, _ in result.pairs:
                cell.append((dets[di].score, True))
            for di in result.unmatched_det:
                cell.append((dets[di].score, False))
    cells: dict[str, dict[str, EvalCell]] = {}
    for cls_name in manifest.class_taxonomy:
        by_level: dict[str, EvalCell] = {}
        for level in DIFFICULTY_RULES:
            # A stable sort keeps equal scores in pooling order.
            cell = sorted(flags[(cls_name, level)], key=lambda item: -item[0])
            total = npos[(cls_name, level)]
            curve = PRCurve.from_flags([f[1] for f in cell], total)
            ap = average_precision(curve, config.interpolation) if total > 0 else 0.0
            tp = sum(1 for f in cell if f[1])
            fp = len(cell) - tp
            by_level[level.name.lower()] = EvalCell(ap=ap, gt=total, tp=tp, fp=fp, fn=total - tp)
        cells[cls_name] = by_level
    map3d = {}
    for level in DIFFICULTY_RULES:
        name = level.name.lower()
        aps = [by_level[name].ap for by_level in cells.values() if by_level[name].gt > 0]
        map3d[name] = sum(aps) / len(aps) if aps else 0.0
    return EvalReport(
        cells=cells,
        map3d=map3d,
        iou_threshold=config.iou_threshold,
        interpolation=config.interpolation,
        per_class_iou=dict(config.per_class_iou),
    )


@dataclass(frozen=True)
class ErrorBreakdown:
    """Post-hoc error metrics over matched GT/detection pairs."""

    cls_error: float  # misclassification rate
    pos_error: float  # mean center distance, meters
    dim_error: float  # mean absolute (h, w, l) deviation, meters
    ori_error: float  # mean geodesic rotation angle, radians


def error_breakdown(
    pairs: Sequence[tuple[AnnotationRecord, DetectionRecord]],
) -> ErrorBreakdown:
    """Classification/position/dimension/orientation errors over matches."""
    if not pairs:
        raise EmptyInputError("error_breakdown requires at least one matched pair")
    cls_errors = []
    pos_errors = []
    dim_errors = []
    ori_errors = []
    for gt, det in pairs:
        cls_errors.append(0.0 if gt.class_name == det.class_name else 1.0)
        pos_errors.append(
            float(np.linalg.norm(np.asarray(gt.box3d.center) - np.asarray(det.box3d.center)))
        )
        dim_errors.append(
            float(np.mean(np.abs(np.asarray(gt.box3d.dims) - np.asarray(det.box3d.dims))))
        )
        rel = rotation_from_euler(gt.box3d.orientation).T @ rotation_from_euler(det.box3d.orientation)
        cos_angle = (np.trace(rel) - 1.0) / 2.0
        ori_errors.append(math.acos(min(1.0, max(-1.0, cos_angle))))
    n = len(pairs)
    return ErrorBreakdown(
        cls_error=sum(cls_errors) / n,
        pos_error=sum(pos_errors) / n,
        dim_error=sum(dim_errors) / n,
        ori_error=sum(ori_errors) / n,
    )


@dataclass(frozen=True)
class ImprovementTable:
    """Percent change per report cell; None marks an undefined (zero) baseline."""

    cells: tuple[tuple[str, tuple[tuple[str, float | None], ...]], ...]
    map_change: tuple[tuple[str, float | None], ...]

    def cell(self, class_name: str, level: str) -> float | None:
        return dict(dict(self.cells)[class_name])[level]

    def render(self) -> str:
        rows = [["Class"] + [lvl for lvl, _ in self.map_change]]
        for name, changes in (*self.cells, ("mAP", self.map_change)):
            rows.append([name] + ["undefined" if c is None else f"{c:+.1f}%" for _, c in changes])
        return _layout(rows)


def _percent_change(baseline: float, treatment: float) -> float | None:
    if baseline == 0.0:
        return None
    return round((treatment - baseline) / baseline * 100.0, 1)


def compare_reports(baseline: EvalReport, treatment: EvalReport) -> ImprovementTable:
    """Percent change per cell, (treatment - baseline) / baseline * 100.

    Cells with a zero baseline are reported as undefined (None) rather than
    raising.
    """
    if set(baseline.cells) != set(treatment.cells):
        raise ValidationError("reports cover different class sets")
    if set(baseline.map3d) != set(treatment.map3d):
        raise ValidationError("reports cover different difficulty levels")
    # Every row is read in the map's level order, the order of the header.
    levels = tuple(baseline.map3d)
    cells = []
    for cls_name in baseline.cells:
        if not set(baseline.cells[cls_name]) == set(treatment.cells[cls_name]) == set(levels):
            raise ValidationError(f"levels of {cls_name!r} differ between the reports or from their map")
        by_level = tuple(
            (lvl, _percent_change(baseline.cells[cls_name][lvl].ap, treatment.cells[cls_name][lvl].ap))
            for lvl in levels
        )
        cells.append((cls_name, by_level))
    map_change = tuple((lvl, _percent_change(baseline.map3d[lvl], treatment.map3d[lvl])) for lvl in levels)
    return ImprovementTable(cells=tuple(cells), map_change=map_change)


@dataclass(frozen=True)
class ReportRow:
    """One rendered result row: schedule labels plus the evaluated report."""

    report: EvalReport
    architecture: str = "Cube R-CNN"
    pretrain_set: str | None = None
    finetune_chain: tuple[str, ...] = ()
    eval_set: str = ""


def render_report(rows: Sequence[ReportRow]) -> str:
    """Render reports as a fixed-column text table, AP values at 2 decimals."""
    if not rows:
        raise EmptyInputError("render_report requires at least one row")
    names = [level.name.lower() for level in DIFFICULTY_RULES]
    table = [["Architecture", "Pre-Train Set", "Fine-Tuning Set", "Evaluation Set", *map(str.title, names)]]
    for row in rows:
        table.append(
            [
                row.architecture,
                row.pretrain_set or "-",
                " -> ".join(row.finetune_chain) if row.finetune_chain else "-",
                row.eval_set or "-",
            ]
            + [f"{row.report.map3d[name]:.2f}" for name in names]
        )
    return _layout(table, rule=True)


def _layout(rows: list[list[str]], rule: bool = False) -> str:
    """Left-justified columns as wide as their widest cell, joined by " | ",
    trailing blanks cut; rule puts a "-+-" line under the header row."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [" | ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    if rule:
        lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
