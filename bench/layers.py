"""Per-layer metrics of a traced round, named after the defining module.

Every function in FUNCTIONS gets ``<module>.<function>.calls``, ``.self_s``
and ``.us_per_call`` (inclusive time per call). The derived metrics below
turn span payloads into counts and rates at the layer where the work
happens. A function that a workload never calls reports 0 for all three.
"""

from __future__ import annotations

import numpy as np

from tracer import FILE_IO, PARSERS, WRITERS, Tracer, function_table

# The traced functions that take at least 0.1% of a traced round's time on
# some workload. The tracer wraps more than these (every public function and
# every cross-module import); the full table is written beside the result.
FUNCTIONS = (
    "cli.main",
    "geometry.iou3d",
    "geometry.intersection_volume",
    "geometry.box_corners",
    "geometry.rotation_from_euler",
    "geometry.euler_from_rotation",
    "geometry.validate_rotation",
    "geometry.rot_x",
    "geometry.rot_y",
    "geometry.rot_z",
    "geometry.normalize_angle",
    "camera.project_box",
    "camera.transform_box",
    "evaluation.evaluate",
    "evaluation.match_frame",
    "datasets.assign_difficulty",
    "datasets.make_split",
    "formats.parse_labels",
    "formats.write_labels",
    "formats.load_manifest",
    "formats.dump_manifest",
    "formats.dump_calibration",
    "formats.dataset_stats",
    "synth.generate_corpus",
    "synth.generate_scene",
    "synth.corrupt_detections",
)

DERIVED = (
    ("geometry.pairs_clipped", "count"),
    ("geometry.pairs_aabb_rejected", "count"),
    ("geometry.clipped_us_per_pair", "us"),
    ("geometry.rejected_us_per_pair", "us"),
    ("geometry.iou_distinct_pairs", "count"),
    ("geometry.iou_useful_ratio", "ratio"),
    ("evaluation.us_per_frame", "us"),
    ("datasets.difficulty_useful_ratio", "ratio"),
    ("formats.records_parsed", "count"),
    ("formats.parse_records_per_s", "1/s"),
    ("formats.records_written", "count"),
    ("formats.write_records_per_s", "1/s"),
    ("formats.bytes_parsed", "bytes"),
    ("formats.bytes_written", "bytes"),
    ("synth.frames_per_s", "1/s"),
    ("synth.placement_useful_ratio", "ratio"),
    ("cli.file_io_s", "s"),
    ("cli.files_written", "count"),
    ("trace_overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.us_per_call"] = "us"
    units.update(DERIVED)
    return units


# Counters that must repeat exactly across traced runs on one seed.
EXACT = tuple(
    [f"{fn}.calls" for fn in FUNCTIONS]
    + [name for name, unit in DERIVED if unit in ("count", "bytes")]
    + ["geometry.iou_useful_ratio", "datasets.difficulty_useful_ratio",
       "synth.placement_useful_ratio"]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> tuple[dict, dict]:
    """(per-layer metrics, full function table) of a finished traced round.

    Call after the tracer is uninstalled: pairs are sorted into AABB-rejected
    and clipped here with the public ``box_corners``, so that the sorting is
    not billed to any layer.
    """
    from roadkit.geometry import box_corners

    table = function_table(tracer)
    spans = tracer.spans()
    duration = spans["end"] - spans["start"]
    modules = np.array([name.split(".")[0] for name in tracer.names] + [""])
    parent_name = np.where(spans["parent"] >= 0, spans["name"][np.maximum(spans["parent"], 0)], -1)
    parent_module = modules[parent_name]  # -1 picks the trailing ""

    metrics: dict[str, float] = {}
    for fn in FUNCTIONS:
        row = table.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{fn}.calls"] = row["calls"]
        metrics[f"{fn}.self_s"] = row["self_s"]
        metrics[f"{fn}.us_per_call"] = _ratio(row["total_s"], row["calls"]) * 1e6

    # geometry: sort each distinct (gt, det) pair by the AABB test iou3d uses.
    pairs: dict[tuple, list] = {}
    for row, key in tracer.payloads("geometry.iou3d"):
        entry = pairs.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += duration[row]
    clipped = [0, 0.0]
    rejected = [0, 0.0]
    for (a, b), (count, seconds) in pairs.items():
        ca, cb = box_corners(a), box_corners(b)
        disjoint = np.any(ca.min(axis=0) > cb.max(axis=0)) or np.any(cb.min(axis=0) > ca.max(axis=0))
        side = rejected if disjoint else clipped
        side[0] += count
        side[1] += seconds
    iou_calls = clipped[0] + rejected[0]
    metrics["geometry.pairs_clipped"] = clipped[0]
    metrics["geometry.pairs_aabb_rejected"] = rejected[0]
    metrics["geometry.clipped_us_per_pair"] = _ratio(clipped[1], clipped[0]) * 1e6
    metrics["geometry.rejected_us_per_pair"] = _ratio(rejected[1], rejected[0]) * 1e6
    metrics["geometry.iou_distinct_pairs"] = len(pairs)
    metrics["geometry.iou_useful_ratio"] = _ratio(len(pairs), iou_calls)

    evaluated = tracer.payloads("evaluation.evaluate")
    metrics["evaluation.us_per_frame"] = _ratio(
        sum(duration[row] for row, _ in evaluated), sum(frames for _, frames in evaluated)
    ) * 1e6

    graded = [annotation for _, annotation in tracer.payloads("datasets.assign_difficulty")]
    metrics["datasets.difficulty_useful_ratio"] = _ratio(len(set(graded)), len(graded))

    # formats: count only outermost calls, since parse_labels(manifest_json)
    # calls load_manifest and write_labels(manifest_json) calls dump_manifest.
    for side, names in (("parsed", PARSERS), ("written", WRITERS)):
        records = chars = seconds = 0.0
        for name in names:
            for row, (count, size) in tracer.payloads(name):
                if parent_module[row] != "formats":
                    records += count
                    chars += size
                    seconds += duration[row]
        verb = "parse" if side == "parsed" else "write"
        metrics[f"formats.records_{side}"] = int(records)
        metrics[f"formats.{verb}_records_per_s"] = _ratio(records, seconds)
        metrics[f"formats.bytes_{side}"] = int(chars)

    corpora = tracer.payloads("synth.generate_corpus")
    synth_ids = [i for i, name in enumerate(tracer.names) if name.startswith("synth.")]
    outer_synth = np.isin(spans["name"], synth_ids) & (parent_module != "synth")
    metrics["synth.frames_per_s"] = _ratio(
        sum(frames for _, (frames, _) in corpora), float(duration[outer_synth].sum())
    )
    projected = spans["name"] == tracer.lookup("camera.project_box")
    projected_from_synth = int(np.count_nonzero(projected & (parent_module == "synth")))
    metrics["synth.placement_useful_ratio"] = _ratio(
        sum(objects for _, (_, objects) in corpora), projected_from_synth
    )

    file_io = np.isin(spans["name"], [tracer.lookup(name) for name in FILE_IO])
    metrics["cli.file_io_s"] = float(duration[file_io].sum())
    metrics["cli.files_written"] = int(np.count_nonzero(spans["name"] == tracer.lookup("pathlib.write_text")))
    metrics["trace_overhead_ratio"] = overhead_ratio
    return metrics, table
