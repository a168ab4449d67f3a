"""The benchmark's workloads: seeded inputs, jobs, and output checks.

Each workload makes its inputs from the seed with ``roadkit synth`` during
set-up, then runs a fixed list of jobs (one *round*). A job is one or more
``roadkit`` commands, driven in-process through ``roadkit.cli.main``. After
each job its outputs are checked, outside the timed region: against pinned
sha256 digests on the default seed, and against invariants on every seed.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 404

# The ROADMAP reference noise model. Scaled copies of it form eval-sweep's
# series of detection sets, with the reference itself in the middle.
REFERENCE_NOISE = (
    ("--drop-rate", 0.2),
    ("--center-sigma", 0.4),
    ("--dim-sigma", 0.1),
    ("--angle-sigma", 0.05),
    ("--fp-rate", 2.0),
)


def noise_flags(scale: float) -> list[str]:
    flags = []
    for flag, value in REFERENCE_NOISE:
        flags += [flag, repr(round(value * scale, 6))]
    return flags


@dataclass(frozen=True)
class Job:
    """One unit of timed CLI work; `frames` is the frames it completes."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    frames: int


def tree_digest(root: Path, stdout: str) -> str:
    """sha256 over every file below root (by relative path) and the stdout."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    digest.update(stdout.encode())
    return digest.hexdigest()


class EvalSweep:
    """`roadkit eval` over a checkpoint-style sweep of detection sets.

    The GT is CHUNKS small corpora of FRAMES frames; each is scored against
    detection sets of rising noise generated from the same seed, so every
    set shares that chunk's GT. One job evaluates one (chunk, noise) pair.
    Frames hold 17-18 objects, the mean of the default 5-30: evaluation cost
    grows with objects per frame (its per-frame spread is 48% of the mean
    under 5-30, 13% under 17-18), and with the default spread the handful of
    frames a run can afford would let the seed, not the code, set the result.
    """

    name = "eval-sweep"
    CHUNKS = 8
    FRAMES = 3
    OBJECTS = "17,18"
    SCALES = (0.5, 0.75, 1.0, 1.25, 1.5)

    def _chunk_seed(self, seed: int, chunk: int) -> int:
        return seed * 1000 + chunk

    def _set_dir(self, inputs: Path, chunk: int, level: int) -> Path:
        return inputs / f"c{chunk:02d}" / f"n{level}"

    def setup(self, seed: int, inputs: Path) -> list[list[str]]:
        commands = []
        for chunk in range(self.CHUNKS):
            for level, scale in enumerate(self.SCALES):
                commands.append(
                    ["synth", "--out", str(self._set_dir(inputs, chunk, level)),
                     "--frames", str(self.FRAMES), "--seed", str(self._chunk_seed(seed, chunk)),
                     "--objects", self.OBJECTS, *noise_flags(scale)]
                )
        return commands

    def jobs(self, seed: int, inputs: Path, out: Path) -> list[Job]:
        jobs = []
        for chunk in range(self.CHUNKS):
            gt = self._set_dir(inputs, chunk, 0) / "manifest.json"
            for level in range(len(self.SCALES)):
                name = f"c{chunk:02d}-n{level}"
                pred = self._set_dir(inputs, chunk, level) / "detections"
                command = ("eval", "--gt", str(gt), "--pred", str(pred), "--jobs", "2",
                           "--out-json", str(out / name / "report.json"))
                jobs.append(Job(name, (command,), self.FRAMES))
        return jobs

    def check(self, job: Job, job_dir: Path, stdout: str) -> list[str]:
        argv = job.commands[0]
        gt, pred = Path(argv[argv.index("--gt") + 1]), Path(argv[argv.index("--pred") + 1])
        problems = []
        if (pred.parent / "manifest.json").read_bytes() != gt.read_bytes():
            problems.append("synth made a different GT for this detection set")
        doc = json.loads((job_dir / "report.json").read_text())
        for cls_name, by_level in doc["classes"].items():
            for level, cell in by_level.items():
                where = f"{cls_name}/{level}"
                if cell["tp"] + cell["fn"] != cell["gt"]:
                    problems.append(f"{where}: tp + fn != gt")
                if min(cell["tp"], cell["fp"], cell["fn"]) < 0:
                    problems.append(f"{where}: negative count")
                if not 0.0 <= cell["ap"] <= 100.0:
                    problems.append(f"{where}: AP {cell['ap']} outside [0, 100]")
        if not all(0.0 <= v <= 100.0 for v in doc["map"].values()):
            problems.append("mAP outside [0, 100]")
        if "Easy" not in stdout:
            problems.append("no result table on stdout")
        return problems


class SynthCorpus:
    """`roadkit synth` writing fresh corpora; no IoU and no evaluation run.

    Job k generates FRAMES frames from seed + k under the default scene
    config and the reference noise, so a round covers many distinct frames.
    """

    name = "synth-corpus"
    JOBS = 40
    FRAMES = 60

    def setup(self, seed: int, inputs: Path) -> list[list[str]]:
        return []

    def jobs(self, seed: int, inputs: Path, out: Path) -> list[Job]:
        return [
            Job(f"job{k:03d}",
                (("synth", "--out", str(out / f"job{k:03d}"), "--frames", str(self.FRAMES),
                  "--seed", str(seed + k), *noise_flags(1.0)),),
                self.FRAMES)
            for k in range(self.JOBS)
        ]

    def check(self, job: Job, job_dir: Path, stdout: str) -> list[str]:
        from roadkit.formats import DetectionRecord, load_manifest, parse_labels

        manifest = load_manifest((job_dir / "manifest.json").read_text())
        problems = []
        if len(manifest.frames) != job.frames:
            problems.append(f"{len(manifest.frames)} frames, expected {job.frames}")
        for frame in manifest.frames:
            labels = parse_labels((job_dir / "labels" / f"{frame.frame_id}.txt").read_text())
            if len(labels) != len(frame.annotations):
                problems.append(f"{frame.frame_id}: {len(labels)} label records, "
                                f"manifest has {len(frame.annotations)}")
            detections = parse_labels((job_dir / "detections" / f"{frame.frame_id}.txt").read_text())
            if not all(isinstance(d, DetectionRecord) for d in detections):
                problems.append(f"{frame.frame_id}: detection without a score")
            if not (job_dir / "calib" / f"{frame.calibration_ref}.json").is_file():
                problems.append(f"{frame.frame_id}: calibration file missing")
        return problems


class LabelIO:
    """Label conversion, frame transforms, splitting and stats on one corpus.

    Each job runs five commands over a corpus generated in set-up:
    manifest_json -> kitti_ext, kitti_ext -> manifest_json, a camera -> world
    transform of the label directory, a stratified split, and stats. Frames
    hold 17-18 objects for the same reason as in eval-sweep: every job reads
    the same corpus, so its record count sets every job's cost.
    """

    name = "label-io"
    JOBS = 50
    FRAMES = 70
    OBJECTS = "17,18"
    FRACTION = 0.6

    def __init__(self):
        self._manifests = {}  # manifest path -> manifest, read once per run

    def setup(self, seed: int, inputs: Path) -> list[list[str]]:
        return [["synth", "--out", str(inputs / "corpus"), "--frames", str(self.FRAMES),
                 "--seed", str(seed), "--objects", self.OBJECTS]]

    def jobs(self, seed: int, inputs: Path, out: Path) -> list[Job]:
        corpus = inputs / "corpus"
        manifest = str(corpus / "manifest.json")
        calib = str(sorted((corpus / "calib").glob("*.json"))[0])
        jobs = []
        for k in range(self.JOBS):
            job_dir = out / f"job{k:03d}"
            commands = (
                ("convert", "--input", manifest, "--output", str(job_dir / "labels.txt"),
                 "--from-format", "manifest_json", "--to-format", "kitti_ext"),
                ("convert", "--input", str(job_dir / "labels.txt"), "--output",
                 str(job_dir / "labels.json"), "--from-format", "kitti_ext",
                 "--to-format", "manifest_json"),
                ("transform", "--calib", calib, "--source", "camera", "--target", "world",
                 "--labels", str(corpus / "labels"), "--out", str(job_dir / "world")),
                ("split", "--manifest", manifest, "--fraction", str(self.FRACTION),
                 "--seed", str(seed), "--stratify", "--out", str(job_dir / "split.json")),
                ("stats", "--manifest", manifest),
            )
            jobs.append(Job(f"job{k:03d}", commands, self.FRAMES))
        return jobs

    def check(self, job: Job, job_dir: Path, stdout: str) -> list[str]:
        from roadkit.datasets import SplitSpec
        from roadkit.formats import load_manifest, parse_labels, write_labels

        argv = job.commands[0]
        source = Path(argv[argv.index("--input") + 1])
        if source not in self._manifests:
            self._manifests[source] = load_manifest(source.read_text())
        manifest = self._manifests[source]
        boxes = sum(len(f.annotations) for f in manifest.frames)
        problems = []
        kitti = (job_dir / "labels.txt").read_text()
        if len(parse_labels(kitti)) != boxes:
            problems.append("kitti_ext output lost records")
        back = write_labels(parse_labels((job_dir / "labels.json").read_text(), "manifest_json"))
        if back != kitti:
            problems.append("kitti_ext -> manifest_json -> kitti_ext is not byte-identical")
        for frame in manifest.frames:
            moved = job_dir / "world" / f"{frame.frame_id}.txt"
            if not moved.is_file() or len(parse_labels(moved.read_text())) != len(frame.annotations):
                problems.append(f"{frame.frame_id}: transformed labels missing or short")
        split = SplitSpec.from_json((job_dir / "split.json").read_text())
        train = len(split.train_ids)
        if len(split.assignment) != len(manifest.frames) or train != math.floor(
            self.FRACTION * len(manifest.frames) + 0.5
        ):
            problems.append(f"split assigns {len(split.assignment)} frames, {train} to train")
        stats = json.loads(stdout)
        if stats["frames"] != len(manifest.frames) or stats["boxes"] != boxes:
            problems.append("stats disagree with the manifest")
        return problems


WORKLOADS = {w.name: w for w in (EvalSweep(), SynthCorpus(), LabelIO())}
