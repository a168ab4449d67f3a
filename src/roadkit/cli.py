"""Command-line front end: convert, transform, split, eval, compare, synth, stats.

Exit codes: 0 success, 1 validation/usage error (an undecodable input file
included), 2 I/O error (a missing input file or directory). All randomness
flows through explicit --seed flags; outputs are byte-identical across runs
for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .camera import _transform_boxes
from .datasets import make_split
from .errors import ParseError, RoadkitError, ValidationError
from .evaluation import (
    _RECALL_SAMPLES,
    EvalConfig,
    EvalReport,
    ReportRow,
    compare_reports,
    evaluate,
    render_report,
)
from .formats import (
    DetectionRecord,
    _with_fields,
    dataset_stats,
    dump_calibration,
    dump_manifest,
    load_manifest,
    parse_calibration,
    parse_labels,
    write_labels,
)
from .synth import NoiseSpec, SceneConfig, corrupt_detections, generate_corpus


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _object_range(text: str) -> tuple[int, int]:
    """Parse --objects as "min,max" object counts."""
    try:
        lo, hi = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected min,max integers, got {text!r}") from None
    return lo, hi


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="roadkit", description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="chatty progress logs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="convert label files between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--from-format", required=True, choices=("kitti_ext", "manifest_json"))
    p.add_argument("--to-format", required=True, choices=("kitti_ext", "manifest_json"))

    p = sub.add_parser("transform", help="move labels into another sensor frame")
    p.add_argument("--calib", required=True)
    p.add_argument("--source", default="lidar")
    p.add_argument("--target", default="camera")
    p.add_argument("--labels", required=True, help="directory of kitti_ext label files")
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="deterministic train/test split of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stratify", action="store_true", help="balance within calibration groups")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate detections against a manifest")
    p.add_argument("--gt", required=True, help="ground-truth manifest JSON")
    p.add_argument("--pred", required=True, help="directory of <frame_id>.txt kitti_ext detections")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--interpolation", choices=tuple(_RECALL_SAMPLES), default="r40")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="ignored: evaluation runs serially; kept for compatibility",
    )
    p.add_argument("--out-json", default=None)

    p = sub.add_parser("compare", help="percent change between two eval reports")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treatment", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with detections")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", type=_object_range, default=None, help="min,max objects per frame")
    p.add_argument("--max-range", type=float, default=None)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--fp-rate", type=float, default=0.0)
    p.add_argument("--center-sigma", type=float, default=0.0)
    p.add_argument("--dim-sigma", type=float, default=0.0)
    p.add_argument("--angle-sigma", type=float, default=0.0)

    p = sub.add_parser("stats", help="frame/box/class statistics of a manifest")
    p.add_argument("--manifest", required=True)
    return parser


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not text: {exc}") from exc


def _label_files(directory: Path) -> list[Path]:
    """The *.txt files of a directory in name order; a missing directory is an I/O error."""
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    return sorted(directory.glob("*.txt"))


def _cmd_convert(args) -> int:
    records = parse_labels(_read(args.input), args.from_format)
    Path(args.output).write_text(write_labels(records, args.to_format))
    return 0


def _cmd_transform(args) -> int:
    calibration = parse_calibration(_read(args.calib))
    rigid = calibration.transform(args.source, args.target)
    label_files = _label_files(Path(args.labels))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label_file in label_files:
        records = parse_labels(_read(label_file), "kitti_ext")
        boxes = _transform_boxes(rigid, [record.box3d for record in records])
        moved = [_with_fields(record, box3d=box) for record, box in zip(records, boxes)]
        (out_dir / label_file.name).write_text(write_labels(moved, "kitti_ext"))
    return 0


def _cmd_split(args) -> int:
    manifest = load_manifest(_read(args.manifest))
    spec = make_split(manifest, args.fraction, args.seed, stratify_by_calibration=args.stratify)
    Path(args.out).write_text(spec.to_json())
    return 0


def _load_detection_dir(pred_dir: Path) -> dict[str, list[DetectionRecord]]:
    detections = {}
    for path in _label_files(pred_dir):
        records = parse_labels(_read(path), "kitti_ext")
        out = []
        for r in records:
            if not isinstance(r, DetectionRecord):
                raise ValidationError(f"{path.name}: detection lines must carry a score column")
            out.append(_with_fields(r, frame_id=path.stem))
        detections[path.stem] = out
    # Frame-id order; file-name order puts "a-1.txt" before "a.txt".
    return dict(sorted(detections.items()))


def _cmd_eval(args) -> int:
    config = EvalConfig(iou_threshold=args.iou, interpolation=args.interpolation)
    manifest = load_manifest(_read(args.gt))
    detections = _load_detection_dir(Path(args.pred))
    report = evaluate(manifest, detections, config)
    print(render_report([ReportRow(report=report, eval_set=manifest.name)]), end="")
    if args.out_json:
        Path(args.out_json).write_text(report.to_json())
    return 0


def _cmd_compare(args) -> int:
    baseline = EvalReport.from_json(_read(args.baseline))
    treatment = EvalReport.from_json(_read(args.treatment))
    print(compare_reports(baseline, treatment).render(), end="")
    return 0


def _cmd_synth(args) -> int:
    kwargs = {}
    if args.objects is not None:
        kwargs["objects_per_frame"] = args.objects
    if args.max_range is not None:
        kwargs["max_range"] = args.max_range
    config = SceneConfig(**kwargs)
    noise = NoiseSpec(
        drop_rate=args.drop_rate,
        fp_rate=args.fp_rate,
        center_sigma=args.center_sigma,
        dim_sigma=args.dim_sigma,
        angle_sigma=args.angle_sigma,
    )
    manifest, calibrations = generate_corpus(config, args.frames, args.seed)
    out = Path(args.out)
    (out / "calib").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(exist_ok=True)
    (out / "detections").mkdir(exist_ok=True)
    (out / "manifest.json").write_text(dump_manifest(manifest))
    for ref, calibration in sorted(calibrations.items()):
        (out / "calib" / f"{ref}.json").write_text(dump_calibration(calibration))
    for i, frame in enumerate(manifest.frames):
        (out / "labels" / f"{frame.frame_id}.txt").write_text(
            write_labels(frame.annotations, "kitti_ext")
        )
        detections = corrupt_detections(frame, noise, seed=args.seed + 1_000_003 * (i + 1), config=config)
        (out / "detections" / f"{frame.frame_id}.txt").write_text(
            write_labels(detections, "kitti_ext")
        )
    if args.verbose:
        print(f"wrote {len(manifest.frames)} frames to {out}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    manifest = load_manifest(_read(args.manifest))
    print(json.dumps(dataset_stats(manifest).as_dict(), indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "transform": _cmd_transform,
    "split": _cmd_split,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except RoadkitError as exc:
        print(f"roadkit {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"roadkit {args.command}: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
