import json
import math

import numpy as np
import pytest

from roadkit.datasets import (
    TEST,
    TRAIN,
    DifficultyLevel,
    ExperimentPlan,
    SplitSpec,
    assign_difficulty,
    build_experiment_plan,
    make_split,
    splitmix64,
)
from roadkit.errors import (
    EmptyInputError,
    PlanError,
    RegistryError,
    SchemaError,
    ValidationError,
)
from roadkit.formats import DatasetManifest, FrameRecord, Occlusion

from helpers import make_annotation


def make_manifest(n_frames, calib_groups=1):
    frames = tuple(
        FrameRecord(frame_id=f"f{i:04d}", calibration_ref=f"cam{i % calib_groups}")
        for i in range(n_frames)
    )
    return DatasetManifest(name="d", class_taxonomy=("Car",), frames=frames)


class TestSplitmix64:
    def test_published_reference_outputs(self):
        # First three outputs of the SplitMix64 reference sequence for seed 0.
        state = 0
        outputs = []
        for _ in range(3):
            state, z = splitmix64(state)
            outputs.append(z)
        assert outputs == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_stays_in_64_bits(self):
        state = (1 << 64) - 1
        for _ in range(100):
            state, z = splitmix64(state)
            assert 0 <= state < (1 << 64)
            assert 0 <= z < (1 << 64)


class TestMakeSplit:
    def test_partition_is_complete_and_disjoint(self):
        manifest = make_manifest(100)
        spec = make_split(manifest, 0.6, seed=1)
        assert sorted(spec.train_ids + spec.test_ids) == sorted(manifest.frame_ids)
        assert not set(spec.train_ids) & set(spec.test_ids)

    def test_train_count_rounds_half_up(self):
        assert len(make_split(make_manifest(100), 0.6, 0).train_ids) == 60
        assert len(make_split(make_manifest(101), 0.6, 0).train_ids) == 61  # 60.6 -> 61
        assert len(make_split(make_manifest(5), 0.5, 0).train_ids) == 3  # 2.5 -> 3
        assert len(make_split(make_manifest(3), 0.5, 0).train_ids) == 2  # 1.5 -> 2

    def test_deterministic_across_runs(self):
        manifest = make_manifest(200)
        a = make_split(manifest, 0.6, seed=42)
        b = make_split(manifest, 0.6, seed=42)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_seed_changes_assignment(self):
        manifest = make_manifest(200)
        a = make_split(manifest, 0.6, seed=1)
        b = make_split(manifest, 0.6, seed=2)
        assert a.assignment != b.assignment
        assert len(a.train_ids) == len(b.train_ids)

    def test_assignment_preserves_manifest_order(self):
        manifest = make_manifest(50)
        spec = make_split(manifest, 0.4, seed=9)
        assert tuple(fid for fid, _ in spec.assignment) == manifest.frame_ids

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(EmptyInputError):
            make_split(make_manifest(0), 0.6, 0)
        for fraction in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                make_split(make_manifest(10), fraction, 0)

    def test_stratified_balances_groups(self):
        manifest = make_manifest(100, calib_groups=4)
        spec = make_split(manifest, 0.6, seed=3, stratify_by_calibration=True)
        by_group = {}
        calib_of = {f.frame_id: f.calibration_ref for f in manifest.frames}
        for fid, part in spec.assignment:
            by_group.setdefault(calib_of[fid], []).append(part)
        for parts in by_group.values():
            assert parts.count(TRAIN) == 15  # 25 frames per group * 0.6
        assert len(spec.train_ids) == 60

    def test_stratified_total_matches_global_quota(self):
        # Group sizes that do not divide evenly; largest remainder keeps the
        # global train count identical to the unstratified one.
        frames = tuple(
            FrameRecord(frame_id=f"f{i}", calibration_ref=f"cam{i % 3}") for i in range(17)
        )
        manifest = DatasetManifest(name="d", class_taxonomy=("Car",), frames=frames)
        spec = make_split(manifest, 0.6, seed=5, stratify_by_calibration=True)
        assert len(spec.train_ids) == int(math.floor(0.6 * 17 + 0.5))

    def test_json_round_trip(self):
        spec = make_split(make_manifest(30), 0.6, seed=11)
        again = SplitSpec.from_json(spec.to_json())
        assert again.train_fraction == spec.train_fraction
        assert again.seed == spec.seed
        assert dict(again.assignment) == dict(spec.assignment)

    def test_from_json_rejects_malformed(self):
        with pytest.raises(SchemaError):
            SplitSpec.from_json("{}")
        with pytest.raises(SchemaError):
            SplitSpec.from_json("not json")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fraction", "0.5"),
            ("fraction", "abc"),
            ("fraction", True),
            ("fraction", 0.0),
            ("fraction", 1.0),
            ("fraction", float("nan")),
            ("seed", 1.7),
            ("seed", "9"),
            ("seed", True),
            ("seed", None),
            ("assignment", [["f0", "train"]]),
            ("assignment", {"f0": "banana"}),
            ("assignment", {"f0": ["train"]}),
        ],
    )
    def test_from_json_rejects_wrong_kinds(self, field, value):
        doc = json.loads(make_split(make_manifest(10), 0.6, seed=11).to_json())
        doc[field] = value
        with pytest.raises(SchemaError, match="malformed split document"):
            SplitSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("stratify", [False, True])
    def test_every_written_split_loads_equal(self, stratify):
        for n, fraction, seed in ((1, 0.5, 0), (7, 0.01, 2**64 - 1), (30, 0.99, 5), (13, 0.6, -3)):
            manifest = make_manifest(n, calib_groups=3)
            spec = make_split(manifest, fraction, seed, stratify_by_calibration=stratify)
            again = SplitSpec.from_json(spec.to_json())
            assert again == SplitSpec(fraction, seed, tuple(sorted(spec.assignment)))
            assert type(again.train_fraction) is float and type(again.seed) is int
            assert SplitSpec.from_json(again.to_json()) == again


class TestDifficulty:
    def test_fully_visible_tall_box_is_easy(self):
        ann = make_annotation(truncation=0.1, occlusion=Occlusion.FULLY_VISIBLE)
        assert assign_difficulty(ann, 50.0) is DifficultyLevel.EASY

    def test_boundaries_are_inclusive(self):
        ann = make_annotation(truncation=0.15, occlusion=Occlusion.FULLY_VISIBLE)
        assert assign_difficulty(ann, 40.0) is DifficultyLevel.EASY
        ann = make_annotation(truncation=0.30, occlusion=Occlusion.PARTLY)
        assert assign_difficulty(ann, 25.0) is DifficultyLevel.MODERATE
        ann = make_annotation(truncation=0.50, occlusion=Occlusion.HEAVILY)
        assert assign_difficulty(ann, 25.0) is DifficultyLevel.HARD

    def test_just_past_boundaries_demote(self):
        ann = make_annotation(truncation=0.16, occlusion=Occlusion.FULLY_VISIBLE)
        assert assign_difficulty(ann, 50.0) is DifficultyLevel.MODERATE
        ann = make_annotation(truncation=0.0, occlusion=Occlusion.FULLY_VISIBLE)
        assert assign_difficulty(ann, 39.9) is DifficultyLevel.MODERATE

    def test_each_criterion_alone_demotes_from_easy(self):
        assert (
            assign_difficulty(make_annotation(occlusion=Occlusion.PARTLY), 50.0)
            is DifficultyLevel.MODERATE
        )
        assert (
            assign_difficulty(make_annotation(truncation=0.2), 50.0)
            is DifficultyLevel.MODERATE
        )
        assert assign_difficulty(make_annotation(), 30.0) is DifficultyLevel.MODERATE

    def test_ignored(self):
        assert (
            assign_difficulty(make_annotation(truncation=0.6), 50.0)
            is DifficultyLevel.IGNORED
        )
        assert (
            assign_difficulty(make_annotation(occlusion=Occlusion.UNKNOWN), 50.0)
            is DifficultyLevel.IGNORED
        )
        assert assign_difficulty(make_annotation(), 10.0) is DifficultyLevel.IGNORED

    def test_strata_are_cumulative(self):
        # Every EASY box also satisfies the MODERATE and HARD thresholds.
        rng = np.random.default_rng(17)
        for _ in range(200):
            ann = make_annotation(
                truncation=float(rng.uniform(0, 1)),
                occlusion=Occlusion(int(rng.integers(0, 4))),
            )
            height = float(rng.uniform(0, 80))
            level = assign_difficulty(ann, height)
            if level is DifficultyLevel.EASY:
                assert ann.truncation <= 0.30 and height >= 25.0

    def test_negative_height_rejected(self):
        with pytest.raises(ValidationError):
            assign_difficulty(make_annotation(), -1.0)


class TestExperimentPlan:
    REGISTRY = ("dataset-a", "dataset-b", "dataset-c", "target")

    def test_single_step_plan(self):
        plan = build_experiment_plan("dataset-a", (), "target", self.REGISTRY)
        assert plan.pretrain_set == "dataset-a"
        assert not plan.is_scratch_baseline

    def test_multi_step_chain_order_preserved(self):
        plan = build_experiment_plan(
            "dataset-a", ("dataset-b", "dataset-c"), "target", self.REGISTRY
        )
        assert plan.finetune_chain == ("dataset-b", "dataset-c")

    def test_scratch_baseline(self):
        plan = build_experiment_plan(None, (), "target", self.REGISTRY)
        assert plan.is_scratch_baseline

    def test_unknown_dataset(self):
        with pytest.raises(RegistryError):
            build_experiment_plan("nope", (), "target", self.REGISTRY)
        with pytest.raises(RegistryError):
            build_experiment_plan("dataset-a", ("nope",), "target", self.REGISTRY)

    def test_duplicate_chain_entries(self):
        with pytest.raises(PlanError):
            build_experiment_plan(
                "dataset-a", ("dataset-b", "dataset-b"), "target", self.REGISTRY
            )

    def test_empty_eval_set(self):
        with pytest.raises(PlanError):
            build_experiment_plan("dataset-a", (), "", self.REGISTRY)

    def test_metadata_carried_verbatim(self):
        meta = {"iterations": 250_000, "lr": 0.0025, "backbone": "DLA34"}
        plan = build_experiment_plan("dataset-a", (), "target", self.REGISTRY, meta)
        assert dict(plan.training_metadata) == meta

    def test_json_round_trip(self):
        plan = build_experiment_plan(
            "dataset-a",
            ("dataset-b",),
            "target",
            self.REGISTRY,
            {"iterations": 250_000},
        )
        assert ExperimentPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_malformed(self):
        with pytest.raises(SchemaError):
            ExperimentPlan.from_json("{}")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("training_metadata", [["iterations", 1]]),
            ("training_metadata", "lr=0.1"),
            ("finetune_chain", "dataset-b"),
            ("finetune_chain", [1, 2]),
            ("pretrain", 5),
            ("eval", None),
            ("eval", ["target"]),
        ],
    )
    def test_from_json_rejects_wrong_kinds(self, field, value):
        plan = build_experiment_plan("dataset-a", ("dataset-b",), "target", self.REGISTRY, {"lr": 0.1})
        doc = json.loads(plan.to_json())
        doc[field] = value
        with pytest.raises(SchemaError, match="malformed plan document"):
            ExperimentPlan.from_json(json.dumps(doc))

    def test_scratch_plan_without_metadata_round_trips(self):
        plan = build_experiment_plan(None, (), "target", self.REGISTRY)
        assert ExperimentPlan.from_json(plan.to_json()) == plan
        doc = json.loads(plan.to_json())
        del doc["training_metadata"]
        assert ExperimentPlan.from_json(json.dumps(doc)) == plan
