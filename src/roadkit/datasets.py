"""Deterministic splits, difficulty assignment, and transfer-experiment plans."""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyInputError,
    PlanError,
    RegistryError,
    SchemaError,
    ValidationError,
)
from .formats import AnnotationRecord, DatasetManifest, Occlusion, _is_number, _is_whole

TRAIN = "train"
TEST = "test"

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (next_state, 64-bit output).

    Reference constants from Steele et al.'s SplitMix generator; chosen as the
    portable seed-to-shuffle generator so identical seeds reproduce identical
    splits on any platform or implementation.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def _fnv1a64(data: str) -> int:
    h = 0xCBF29CE484222325
    for byte in data.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _fisher_yates(items: list, seed: int) -> list:
    """In-order Fisher-Yates shuffle driven by splitmix64.

    The modulo draw carries a bias below 2**-40 for any realistic item count;
    accepted for portability and simplicity.
    """
    out = list(items)
    state = seed & _MASK64
    for i in range(len(out) - 1, 0, -1):
        state, z = splitmix64(state)
        j = z % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test assignment of a manifest's frames."""

    train_fraction: float
    seed: int
    assignment: tuple[tuple[str, str], ...]  # (frame_id, "train"|"test")

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))

    @property
    def train_ids(self) -> tuple[str, ...]:
        return tuple(fid for fid, part in self.assignment if part == TRAIN)

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(fid for fid, part in self.assignment if part == TEST)

    def to_json(self) -> str:
        doc = {
            "fraction": self.train_fraction,
            "seed": self.seed,
            "assignment": dict(self.assignment),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        try:
            doc = json.loads(text)
            fraction, seed, assignment = doc["fraction"], doc["seed"], doc["assignment"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SchemaError(f"malformed split document: {exc}") from exc
        if not (_is_number(fraction) and 0.0 < fraction < 1.0):
            raise SchemaError(f"malformed split document: fraction {fraction!r} is not a number in (0, 1)")
        if not _is_whole(seed):
            raise SchemaError(f"malformed split document: seed {seed!r} is not a whole number")
        if not (isinstance(assignment, dict) and all(part in (TRAIN, TEST) for part in assignment.values())):
            raise SchemaError(f"malformed split document: assignment must map frame ids to {TRAIN!r} or {TEST!r}")
        return cls(train_fraction=float(fraction), seed=int(seed), assignment=tuple(sorted(assignment.items())))


def _train_count(fraction: float, n: int) -> int:
    return int(math.floor(fraction * n + 0.5))


def make_split(
    manifest: DatasetManifest,
    train_fraction: float,
    seed: int,
    stratify_by_calibration: bool = False,
) -> SplitSpec:
    """Deterministically partition a manifest's frames into train and test.

    Frames are shuffled by a Fisher-Yates pass over splitmix64 and the first
    round(train_fraction * N) go to train. With stratify_by_calibration the
    split is balanced within each calibration_ref group (per-group quotas
    allocated by largest remainder so the global count is unchanged).
    """
    if not manifest.frames:
        raise EmptyInputError("cannot split an empty manifest")
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(manifest.frames)
    total_train = _train_count(train_fraction, n)
    assignment: dict[str, str] = {}
    if not stratify_by_calibration:
        order = _fisher_yates([f.frame_id for f in manifest.frames], seed)
        for i, fid in enumerate(order):
            assignment[fid] = TRAIN if i < total_train else TEST
    else:
        groups: dict[str, list[str]] = {}
        for f in manifest.frames:
            groups.setdefault(f.calibration_ref, []).append(f.frame_id)
        keys = sorted(groups)
        quotas = {k: train_fraction * len(groups[k]) for k in keys}
        base = {k: int(math.floor(quotas[k])) for k in keys}
        remaining = total_train - sum(base.values())
        by_remainder = sorted(keys, key=lambda k: (-(quotas[k] - base[k]), k))
        for k in by_remainder[:remaining]:
            base[k] += 1
        for k in keys:
            order = _fisher_yates(groups[k], seed ^ _fnv1a64(k))
            for i, fid in enumerate(order):
                assignment[fid] = TRAIN if i < base[k] else TEST
    pairs = tuple((f.frame_id, assignment[f.frame_id]) for f in manifest.frames)
    return SplitSpec(train_fraction=train_fraction, seed=seed, assignment=pairs)


class DifficultyLevel(enum.IntEnum):
    """Cumulative KITTI-style strata: Easy subset of Moderate subset of Hard."""

    EASY = 0
    MODERATE = 1
    HARD = 2
    IGNORED = 3


# (max occlusion, max truncation, min projected height in pixels) per level.
DIFFICULTY_RULES = {
    DifficultyLevel.EASY: (Occlusion.FULLY_VISIBLE, 0.15, 40.0),
    DifficultyLevel.MODERATE: (Occlusion.PARTLY, 0.30, 25.0),
    DifficultyLevel.HARD: (Occlusion.HEAVILY, 0.50, 25.0),
}


def assign_difficulty(
    annotation: AnnotationRecord, projected_height: float
) -> DifficultyLevel:
    """Classify an annotation into the easiest difficulty it qualifies for."""
    if projected_height < 0.0:
        raise ValidationError(f"projected_height must be >= 0, got {projected_height}")
    for level in (DifficultyLevel.EASY, DifficultyLevel.MODERATE, DifficultyLevel.HARD):
        max_occ, max_trunc, min_height = DIFFICULTY_RULES[level]
        if (
            annotation.occlusion <= max_occ
            and annotation.truncation <= max_trunc
            and projected_height >= min_height
        ):
            return level
    return DifficultyLevel.IGNORED


@dataclass(frozen=True)
class ExperimentPlan:
    """A transfer schedule: pretrain set, fine-tune chain, evaluation set.

    training_metadata is carried verbatim (iterations, learning rate,
    backbone, ...) and never interpreted by the toolkit.
    """

    pretrain_set: str | None
    finetune_chain: tuple[str, ...]
    eval_set: str
    training_metadata: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "finetune_chain", tuple(self.finetune_chain))
        meta = self.training_metadata
        if isinstance(meta, dict):
            meta = meta.items()
        object.__setattr__(self, "training_metadata", tuple(sorted(meta)))

    @property
    def is_scratch_baseline(self) -> bool:
        return self.pretrain_set is None and not self.finetune_chain

    def to_json(self) -> str:
        doc = {
            "pretrain": self.pretrain_set,
            "finetune_chain": list(self.finetune_chain),
            "eval": self.eval_set,
            "training_metadata": dict(self.training_metadata),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        try:
            doc = json.loads(text)
            pretrain, chain, eval_set = doc["pretrain"], doc["finetune_chain"], doc["eval"]
            metadata = doc.get("training_metadata", {})
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SchemaError(f"malformed plan document: {exc}") from exc
        if not ((pretrain is None or isinstance(pretrain, str)) and isinstance(eval_set, str)):
            raise SchemaError("malformed plan document: pretrain must be a name or null, and eval a name")
        if not (isinstance(chain, list) and all(isinstance(name, str) for name in chain)):
            raise SchemaError(f"malformed plan document: finetune_chain {chain!r} is not a list of names")
        if not isinstance(metadata, dict):
            raise SchemaError(f"malformed plan document: training_metadata {metadata!r} is not an object")
        return cls(
            pretrain_set=pretrain,
            finetune_chain=tuple(chain),
            eval_set=eval_set,
            training_metadata=tuple(metadata.items()),
        )


def build_experiment_plan(
    pretrain_set: str | None,
    finetune_chain: Sequence[str],
    eval_set: str,
    registry: Iterable[str],
    training_metadata: Mapping[str, object] | None = None,
) -> ExperimentPlan:
    """Validate a transfer schedule against a registry of known datasets."""
    if not eval_set:
        raise PlanError("eval_set must be nonempty")
    chain = tuple(finetune_chain)
    if len(set(chain)) != len(chain):
        raise PlanError(f"duplicate entries in finetune chain {chain}")
    known = set(registry)
    for ref in [*([pretrain_set] if pretrain_set else []), *chain, eval_set]:
        if ref not in known:
            raise RegistryError(f"dataset {ref!r} is not registered")
    return ExperimentPlan(
        pretrain_set=pretrain_set,
        finetune_chain=chain,
        eval_set=eval_set,
        training_metadata=tuple((training_metadata or {}).items()),
    )
