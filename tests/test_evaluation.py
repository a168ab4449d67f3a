import json
import math

import numpy as np
import pytest

import roadkit.geometry
from roadkit.errors import (
    EmptyInputError,
    FrameReferenceError,
    SchemaError,
    TaxonomyError,
    ValidationError,
)
from roadkit.evaluation import (
    EvalCell,
    EvalConfig,
    EvalReport,
    PRCurve,
    ReportRow,
    average_precision,
    compare_reports,
    error_breakdown,
    evaluate,
    match_frame,
    render_report,
)
from roadkit.evaluation import _match_ranked
from roadkit.formats import DatasetManifest, FrameRecord
from roadkit.synth import NoiseSpec, SceneConfig, corrupt_detections, generate_corpus

from helpers import (
    make_annotation,
    make_detection,
    oracle_evaluate,
    reference_average_precision,
    reference_match_frame,
    reference_match_ranked,
    reference_render_report,
    reference_render_table,
)


def single_class_manifest(annotations, frame_id="f0", taxonomy=("Car",)):
    frame = FrameRecord(frame_id=frame_id, annotations=tuple(annotations))
    return DatasetManifest(name="d", class_taxonomy=taxonomy, frames=(frame,))


class TestMatchFrame:
    def test_perfect_match(self):
        gts = [make_annotation(center=(0, 1, 20)), make_annotation(center=(10, 1, 40))]
        dets = [
            make_detection(score=0.9, center=(0, 1, 20)),
            make_detection(score=0.8, center=(10, 1, 40)),
        ]
        result = match_frame(gts, dets, 0.5)
        assert {(g, d) for g, d, _ in result.pairs} == {(0, 0), (1, 1)}
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()

    def test_low_iou_is_false_positive(self):
        gts = [make_annotation(center=(0, 1, 20))]
        dets = [make_detection(score=0.9, center=(50, 1, 90))]
        result = match_frame(gts, dets, 0.5)
        assert result.pairs == ()
        assert result.unmatched_gt == (0,)
        assert result.unmatched_det == (0,)

    def test_higher_score_matches_first(self):
        gts = [make_annotation(center=(0, 1, 20))]
        dets = [
            make_detection(score=0.6, center=(0.2, 1, 20)),
            make_detection(score=0.9, center=(0.3, 1, 20)),
        ]
        result = match_frame(gts, dets, 0.3)
        assert result.pairs[0][:2] == (0, 1)  # the 0.9-score detection wins
        assert result.unmatched_det == (0,)

    def test_detection_prefers_highest_iou_gt(self):
        gts = [
            make_annotation(center=(0.6, 1, 20)),
            make_annotation(center=(0.1, 1, 20)),
        ]
        dets = [make_detection(score=0.9, center=(0, 1, 20))]
        result = match_frame(gts, dets, 0.2)
        assert result.pairs[0][:2] == (1, 0)

    def test_class_filtering(self):
        gts = [make_annotation(class_name="Truck", dims=(3.2, 2.6, 8.5))]
        dets = [make_detection(score=0.9)]
        result = match_frame(gts, dets, 0.5, class_name="Car")
        assert result.pairs == ()
        assert result.unmatched_gt == ()
        assert result.unmatched_det == (0,)

    def test_dontcare_gt_absorbs_detection(self):
        gts = [make_annotation(center=(0, 1, 20))]
        dets = [make_detection(score=0.9, center=(0, 1, 20))]
        result = match_frame(gts, dets, 0.5, ignored_gt={0})
        assert result.pairs == ()
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()
        assert result.ignored_det == (0,)

    def test_gt_not_matched_twice(self):
        gts = [make_annotation(center=(0, 1, 20))]
        dets = [
            make_detection(score=0.9, center=(0, 1, 20)),
            make_detection(score=0.8, center=(0, 1, 20)),
        ]
        result = match_frame(gts, dets, 0.5)
        assert len(result.pairs) == 1
        assert result.unmatched_det == (1,)

    def test_threshold_bounds(self):
        with pytest.raises(ValidationError):
            match_frame([], [], 0.0)
        with pytest.raises(ValidationError):
            match_frame([], [], 1.0)

    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(59)
        classes = ("Car", "Truck")
        for _ in range(25):
            gts = []
            dets = []
            for _ in range(int(rng.integers(0, 7))):
                cls = str(rng.choice(classes))
                center = (rng.uniform(-4, 4), 1.0, rng.uniform(15, 25))
                gts.append(make_annotation(class_name=cls, center=center,
                                           yaw=rng.uniform(-0.3, 0.3)))
                for _ in range(int(rng.integers(0, 3))):
                    jitter = tuple(np.asarray(center) + rng.normal(0, 0.5, 3))
                    det_cls = cls if rng.random() < 0.8 else str(rng.choice(classes))
                    # Scores on a coarse grid, so that ties occur.
                    dets.append(make_detection(score=float(rng.integers(1, 6)) / 5,
                                               class_name=det_cls, center=jitter,
                                               yaw=rng.uniform(-0.3, 0.3)))
            ignored = {i for i in range(len(gts)) if rng.random() < 0.3}
            threshold = float(rng.choice([0.1, 0.3, 0.5, 0.7]))
            for class_name in (None, "Car", "Truck"):
                got = match_frame(gts, dets, threshold, class_name, ignored)
                assert got == reference_match_frame(gts, dets, threshold, class_name, ignored)


class TestMatcherAndAPAgainstReference:
    """The list matcher and the suffix-maximum AP against the numpy matcher
    and the per-sample scan they replace: results and floats are ==."""

    @staticmethod
    def _matrices(rng):
        for _ in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(0, 7, 2))
            kind = rng.integers(0, 3)
            if kind == 0:  # random
                ious = rng.uniform(0.0, 1.0, (n_rows, n_cols))
            else:  # ties: a few levels, the threshold among them
                ious = rng.choice([0.0, 0.3, 0.5, 0.7, 0.7, 1.0], (n_rows, n_cols))
            ignored = rng.random(n_rows) < (1.0 if kind == 2 else 0.3)  # kind 2: all don't-care
            rows = sorted(int(v) for v in rng.choice(50, n_rows, replace=False))
            cols = [int(v) for v in rng.permutation(60)[:n_cols]]
            yield ious, rows, cols, ignored

    def test_matcher(self):
        rng = np.random.default_rng(41)
        for ious, rows, cols, ignored in self._matrices(rng):
            for threshold in (0.3, 0.5, 0.7):
                expected = reference_match_ranked(ious, rows, cols, ignored, threshold)
                assert _match_ranked(ious, rows, cols, ignored, threshold) == expected
                assert _match_ranked(ious, rows, cols, list(ignored), threshold) == expected

    def test_matcher_checks_threshold(self):
        with pytest.raises(ValidationError):
            _match_ranked(np.zeros((1, 1)), [0], [0], [False], 1.0)

    @pytest.mark.parametrize("interpolation", ["r40", "r11"])
    def test_average_precision(self, interpolation):
        rng = np.random.default_rng(43)
        curves = []
        for _ in range(200):
            flags = (rng.random(int(rng.integers(0, 40))) < rng.random()).tolist()
            curves.append(PRCurve.from_flags(flags, int(rng.integers(1, 30))))  # tied recalls and precisions
            points = rng.uniform(-0.1, 1.1, (int(rng.integers(0, 12)), 2))
            curves.append(PRCurve(points=tuple(map(tuple, points.tolist()))))  # hand-built, recall unsorted
            grid = rng.choice([0.0, 0.25, 0.5, 1.0], (int(rng.integers(0, 12)), 2))
            curves.append(PRCurve(points=tuple(map(tuple, grid.tolist()))))  # ties on the samples
        curves.append(PRCurve(points=((math.nan, 1.0), (0.5, math.nan), (1.0, 0.25), (0.25, -0.0))))
        for curve in curves:
            assert average_precision(curve, interpolation) == reference_average_precision(curve, interpolation)


class TestPRCurveAndAP:
    def test_curve_values(self):
        curve = PRCurve.from_flags([True, False, True], total_gt=4)
        assert curve.points == (
            (0.25, 1.0),
            (0.25, 0.5),
            (0.5, 2 / 3),
        )

    def test_perfect_detector_ap_is_100(self):
        curve = PRCurve.from_flags([True] * 10, total_gt=10)
        assert average_precision(curve, "r40") == 100.0
        assert average_precision(curve, "r11") == 100.0

    def test_no_detections_ap_is_0(self):
        assert average_precision(PRCurve(points=()), "r40") == 0.0

    def test_half_recall_perfect_precision(self):
        # Precision 1 up to recall 0.5, nothing beyond: 20 of the 40 recall
        # samples interpolate to precision 1.
        curve = PRCurve.from_flags([True] * 5, total_gt=10)
        assert average_precision(curve, "r40") == pytest.approx(50.0)

    def test_r11_includes_recall_zero_sample(self):
        # The r = 0.0 sample always interpolates to the max precision.
        curve = PRCurve.from_flags([True] * 5, total_gt=10)
        assert average_precision(curve, "r11") == pytest.approx(6 / 11 * 100.0)

    def test_interpolation_uses_max_precision_to_the_right(self):
        # FP first, then TP: precision at recall 1.0 is 0.5, and the early
        # precision dip is bridged by the max-to-the-right rule.
        curve = PRCurve.from_flags([False, True], total_gt=1)
        assert average_precision(curve, "r40") == pytest.approx(50.0)

    def test_unknown_interpolation(self):
        with pytest.raises(ValidationError):
            average_precision(PRCurve(points=()), "r50")


class TestEvaluate:
    def test_perfect_detections_everywhere(self):
        anns = [
            make_annotation(center=(i * 10.0, 1, 20 + i * 5), frame_id="f0")
            for i in range(4)
        ]
        manifest = single_class_manifest(anns)
        dets = [
            make_detection(score=0.9 - 0.1 * i, center=a.box3d.center, frame_id="f0")
            for i, a in enumerate(anns)
        ]
        report = evaluate(manifest, {"f0": dets})
        for level in ("easy", "moderate", "hard"):
            assert report.cells["Car"][level].ap == 100.0
            assert report.map3d[level] == 100.0

    def test_empty_detections(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        report = evaluate(manifest, {})
        cell = report.cells["Car"]["hard"]
        assert cell.ap == 0.0
        assert cell.gt == 1
        assert cell.fn == 1

    def test_class_without_gt_excluded_from_map(self):
        anns = [make_annotation(frame_id="f0")]
        manifest = single_class_manifest(anns, taxonomy=("Car", "Truck"))
        dets = [make_detection(score=0.9, frame_id="f0")]
        report = evaluate(manifest, {"f0": dets})
        assert report.cells["Truck"]["hard"].gt == 0
        assert report.map3d["hard"] == 100.0  # mean over Car only

    def test_flat_detection_sequence_accepted(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        report = evaluate(manifest, [make_detection(score=0.9, frame_id="f0")])
        assert report.cells["Car"]["hard"].ap == 100.0

    def test_unknown_frame_rejected(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        with pytest.raises(FrameReferenceError):
            evaluate(manifest, {"nope": [make_detection(score=0.9)]})

    def test_unknown_class_rejected(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        with pytest.raises(TaxonomyError):
            evaluate(manifest, {"f0": [make_detection(score=0.9, class_name="Bike")]})

    def test_out_of_level_gt_is_dontcare(self):
        # A heavily occluded GT is out of the Easy stratum; a detection on it
        # must not count as a false positive there.
        easy_gt = make_annotation(center=(0, 1, 20), frame_id="f0")
        hard_gt = make_annotation(center=(20, 1, 40), occlusion=2, frame_id="f0")
        manifest = single_class_manifest([easy_gt, hard_gt])
        dets = [
            make_detection(score=0.9, center=(0, 1, 20), frame_id="f0"),
            make_detection(score=0.8, center=(20, 1, 40), frame_id="f0"),
        ]
        report = evaluate(manifest, {"f0": dets})
        easy = report.cells["Car"]["easy"]
        assert easy.gt == 1
        assert easy.tp == 1
        assert easy.fp == 0
        assert easy.ap == 100.0
        hard = report.cells["Car"]["hard"]
        assert hard.gt == 2
        assert hard.tp == 2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            frames = []
            dets_by_frame = {}
            for fi in range(int(rng.integers(1, 4))):
                fid = f"f{fi}"
                anns = []
                dets = []
                for _ in range(int(rng.integers(0, 8))):
                    center = (rng.uniform(-30, 30), 1.0, rng.uniform(10, 80))
                    cls = str(rng.choice(["Car", "Truck"]))
                    dims = (1.5, 1.8, 4.2) if cls == "Car" else (3.2, 2.6, 8.5)
                    anns.append(
                        make_annotation(class_name=cls, center=center, dims=dims, frame_id=fid)
                    )
                    if rng.random() < 0.8:
                        jitter = tuple(np.asarray(center) + rng.normal(0, 0.4, 3))
                        dets.append(
                            make_detection(
                                score=float(rng.uniform(0.05, 0.99)),
                                class_name=cls,
                                center=jitter,
                                dims=dims,
                                frame_id=fid,
                            )
                        )
                frames.append(FrameRecord(frame_id=fid, annotations=tuple(anns)))
                dets_by_frame[fid] = dets
            manifest = DatasetManifest(
                name="d", class_taxonomy=("Car", "Truck"), frames=tuple(frames)
            )
            report = evaluate(manifest, dets_by_frame)
            expected = oracle_evaluate(manifest, dets_by_frame)
            for cls in ("Car", "Truck"):
                for level in ("easy", "moderate", "hard"):
                    assert report.cells[cls][level].ap == expected[cls][level]

    @staticmethod
    def _noisy_corpus(n_frames=4):
        config = SceneConfig(objects_per_frame=(10, 14))
        manifest, _ = generate_corpus(config, n_frames, seed=61)
        noise = NoiseSpec(drop_rate=0.2, fp_rate=2.0, center_sigma=0.4, dim_sigma=0.1,
                          angle_sigma=0.05)
        detections = {
            frame.frame_id: corrupt_detections(frame, noise, seed=67 + i, config=config)
            for i, frame in enumerate(manifest.frames)
        }
        return manifest, detections

    def test_each_pair_clipped_at_most_once(self, monkeypatch):
        manifest, detections = self._noisy_corpus()
        same_class_pairs = sum(
            sum(1 for g in frame.annotations for d in detections[frame.frame_id]
                if g.class_name == d.class_name)
            for frame in manifest.frames
        )
        pairs = []
        kernel = roadkit.geometry._intersection_volumes

        def counting(a, b):
            # One key per pair handed over: the bytes of both boxes' arrays.
            pairs.extend(b"".join(p[k].tobytes() for p in (*a, *b)) for k in range(len(a[0])))
            return kernel(a, b)

        monkeypatch.setattr(roadkit.geometry, "_intersection_volumes", counting)
        evaluate(manifest, detections)
        assert pairs
        assert len(pairs) == len(set(pairs)) <= same_class_pairs

    def test_one_kernel_sweep(self, monkeypatch):
        # All surviving pairs of all (frame, class) groups share one sweep:
        # ceil(P / _BATCH) kernel calls for P pairs, every one but the last full.
        manifest, detections = self._noisy_corpus(12)
        calls = []
        kernel = roadkit.geometry._intersection_volumes

        def counting(a, b):
            calls.append(len(a[0]))
            return kernel(a, b)

        monkeypatch.setattr(roadkit.geometry, "_intersection_volumes", counting)
        report = evaluate(manifest, detections)
        batch = roadkit.geometry._BATCH
        assert sum(calls) > 2 * batch
        assert len(calls) == -(-sum(calls) // batch)
        assert all(n == batch for n in calls[:-1])
        monkeypatch.undo()
        assert report == evaluate(manifest, detections)

    def test_per_class_iou_thresholds(self):
        anns = [make_annotation(frame_id="f0")]
        manifest = single_class_manifest(anns)
        # Offset detection overlaps ~0.64; a strict threshold rejects it.
        det = make_detection(score=0.9, center=(0.4, 1, 20), frame_id="f0")
        loose = evaluate(manifest, {"f0": [det]}, EvalConfig(iou_threshold=0.3))
        strict = evaluate(
            manifest, {"f0": [det]}, EvalConfig(iou_threshold=0.3, per_class_iou={"Car": 0.9})
        )
        assert loose.cells["Car"]["hard"].tp == 1
        assert strict.cells["Car"]["hard"].tp == 0


class TestEvalConfig:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, 5.0, -0.3, math.nan, math.inf, -math.inf])
    def test_rejects_threshold_outside_open_unit_interval(self, threshold):
        with pytest.raises(ValidationError, match="must be in"):
            EvalConfig(iou_threshold=threshold)
        with pytest.raises(ValidationError, match="'Bus'"):
            EvalConfig(per_class_iou={"Car": 0.7, "Bus": threshold})

    @pytest.mark.parametrize("interpolation", ["r99", "R40", ""])
    def test_unknown_interpolation_rejected(self, interpolation):
        with pytest.raises(ValidationError, match=f"unknown interpolation {interpolation!r}"):
            EvalConfig(interpolation=interpolation)

    def test_accepts_thresholds_inside(self):
        config = EvalConfig(iou_threshold=1e-9, per_class_iou={"Car": 0.999999, "Bus": 0.25})
        assert config.threshold_for("Bus") == 0.25
        assert config.threshold_for("Van") == 1e-9


class TestEvalReportSerialization:
    def test_round_trip(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        report = evaluate(manifest, {"f0": [make_detection(score=0.9, frame_id="f0")]})
        again = EvalReport.from_json(report.to_json())
        assert again == report

    def test_per_class_iou_round_trip(self):
        manifest = single_class_manifest([make_annotation(frame_id="f0")])
        dets = {"f0": [make_detection(score=0.9, frame_id="f0")]}
        report = evaluate(manifest, dets, EvalConfig(per_class_iou={"Car": 0.7}))
        assert report.per_class_iou == {"Car": 0.7}
        text = report.to_json()
        assert json.loads(text)["per_class_iou"] == {"Car": 0.7}
        assert EvalReport.from_json(text) == report
        # Without overrides the document keeps its old shape.
        plain = evaluate(manifest, dets).to_json()
        assert "per_class_iou" not in plain
        assert EvalReport.from_json(plain).per_class_iou == {}

    def test_malformed(self):
        with pytest.raises(SchemaError):
            EvalReport.from_json("{}")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, constant):
        report = EvalReport.from_map_values(10.0, 20.0, 30.0)
        text = report.to_json().replace('"easy": 10.0', f'"easy": {constant}')
        assert constant in text
        with pytest.raises(SchemaError):
            EvalReport.from_json(text)

    def test_non_numeric_threshold_rejected(self):
        text = EvalReport.from_map_values(10.0, 20.0, 30.0).to_json()
        with pytest.raises(SchemaError):
            EvalReport.from_json(text.replace('"iou_threshold": 0.5', '"iou_threshold": "high"'))

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"iou_threshold": 0.5', '"iou_threshold": "0.5"'),
            ('"iou_threshold": 0.5', '"iou_threshold": true'),
            ('"iou_threshold": 0.5', '"iou_threshold": 7'),
            ('"iou_threshold": 0.5', '"iou_threshold": 1e999'),
            ('"interpolation": "r40"', '"interpolation": "r99"'),
            ('"interpolation": "r40"', '"interpolation": 40'),
            ('"ap": 10.0', '"ap": "x"'),
            ('"ap": 10.0', '"ap": null'),
            ('"easy": 10.0', '"easy": "10.0"'),
            ('"gt": 0', '"gt": -1'),
            ('"gt": 0', '"gt": 1.5'),
            ('"gt": 0', '"gt": false'),
            ('"map": {', '"per_class_iou": {"all": "0.7"}, "map": {'),
            ('"map": {', '"per_class_iou": {"all": 1.5}, "map": {'),
        ],
    )
    def test_value_of_wrong_kind_or_range_rejected(self, old, new):
        text = EvalReport.from_map_values(10.0, 20.0, 30.0).to_json()
        assert old in text
        with pytest.raises(SchemaError, match="malformed report document"):
            EvalReport.from_json(text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "cell, match",
        [
            ({"ap": 250.0, "gt": 2, "tp": 5, "fp": 0, "fn": 7}, r"'Car' 'easy' counts .* tp <= gt"),
            ({"ap": 50.0, "gt": 2, "tp": 1, "fp": 0, "fn": 0}, r"'Car' 'easy' counts .* fn == gt - tp"),
            ({"ap": 100.5, "gt": 2, "tp": 1, "fp": 0, "fn": 1}, r"'Car' 'easy' ap 100.5 is not in \[0, 100\]"),
            ({"ap": -0.5, "gt": 2, "tp": 1, "fp": 0, "fn": 1}, r"'Car' 'easy' ap -0.5 is not in \[0, 100\]"),
        ],
    )
    def test_contradicting_cell_rejected(self, cell, match):
        doc = json.loads(EvalReport.from_map_values(10.0, 20.0, 30.0, class_name="Car").to_json())
        doc["classes"]["Car"]["easy"] = cell
        with pytest.raises(SchemaError, match=match):
            EvalReport.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [-3.0, 100.01, -0.0001])
    def test_map_value_out_of_range_rejected(self, value):
        doc = json.loads(EvalReport.from_map_values(10.0, 20.0, 30.0).to_json())
        doc["map"]["moderate"] = value
        with pytest.raises(SchemaError, match=rf"map 'moderate' {value} is not in \[0, 100\]"):
            EvalReport.from_json(json.dumps(doc))

    def test_evaluated_reports_and_fixtures_load(self):
        # Every report evaluate writes holds its own rules: from the perfect
        # detector (AP 100) to the empty one (AP 0), and every fixture.
        manifest, calibrations = generate_corpus(SceneConfig(objects_per_frame=(3, 8)), 6, seed=11)
        for noise in (NoiseSpec(), NoiseSpec(drop_rate=1.0), NoiseSpec(center_sigma=0.5, fp_rate=2.0)):
            detections = {
                frame.frame_id: corrupt_detections(frame, noise, seed=i, config=SceneConfig(objects_per_frame=(3, 8)))
                for i, frame in enumerate(manifest.frames)
            }
            for interpolation in ("r40", "r11"):
                report = evaluate(manifest, detections, EvalConfig(interpolation=interpolation))
                assert EvalReport.from_json(report.to_json()) == report
        for values in [(0.0, 0.0, 0.0), (100.0, 100.0, 100.0), (2.09, 2.62, 2.61), (6.60, 8.60, 8.65)]:
            report = EvalReport.from_map_values(*values)
            assert EvalReport.from_json(report.to_json()) == report

    def test_whole_number_values_load(self):
        report = EvalReport.from_map_values(10.0, 20.0, 30.0)
        text = report.to_json().replace(".0,", ",").replace(".0\n", "\n")
        assert "10.0" not in text
        assert EvalReport.from_json(text) == report

    @pytest.mark.parametrize("drop", ["hard", "moderate"])
    def test_class_levels_must_be_the_map_levels(self, drop):
        doc = json.loads(EvalReport.from_map_values(10.0, 20.0, 30.0).to_json())
        del doc["classes"]["all"][drop]
        with pytest.raises(SchemaError, match="are not the map's"):
            EvalReport.from_json(json.dumps(doc))
        doc["classes"]["all"]["extra"] = doc["classes"]["all"]["easy"]
        with pytest.raises(SchemaError, match="are not the map's"):
            EvalReport.from_json(json.dumps(doc))


class TestErrorBreakdown:
    def test_known_values(self):
        gt = make_annotation(center=(0, 0, 20), dims=(1.5, 1.8, 4.2), yaw=0.0)
        det = make_detection(
            score=0.9, center=(3, 0, 24), dims=(1.7, 1.8, 4.6), yaw=0.5
        )
        breakdown = error_breakdown([(gt, det)])
        assert breakdown.cls_error == 0.0
        assert breakdown.pos_error == pytest.approx(5.0)
        assert breakdown.dim_error == pytest.approx((0.2 + 0.0 + 0.4) / 3)
        assert breakdown.ori_error == pytest.approx(0.5, abs=1e-9)

    def test_misclassification_rate(self):
        gt = make_annotation()
        right = make_detection(score=0.9)
        wrong = make_detection(score=0.9, class_name="Truck")
        breakdown = error_breakdown([(gt, right), (gt, wrong)])
        assert breakdown.cls_error == 0.5

    def test_geodesic_angle_composes_axes(self):
        gt = make_annotation()
        det = make_detection(score=0.9, pitch=0.3)
        assert error_breakdown([(gt, det)]).ori_error == pytest.approx(0.3, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            error_breakdown([])


class TestCompareReports:
    def test_percent_change_cells(self):
        baseline = EvalReport.from_map_values(2.09, 2.62, 2.61)
        treatment = EvalReport.from_map_values(6.60, 8.60, 8.65)
        table = compare_reports(baseline, treatment)
        assert table.cell("all", "easy") == pytest.approx(215.8)
        assert table.cell("all", "moderate") == pytest.approx(228.2)
        assert table.cell("all", "hard") == pytest.approx(231.4)

    def test_zero_baseline_is_undefined(self):
        baseline = EvalReport.from_map_values(0.0, 1.0, 1.0)
        treatment = EvalReport.from_map_values(5.0, 2.0, 0.5)
        table = compare_reports(baseline, treatment)
        assert table.cell("all", "easy") is None
        assert table.cell("all", "moderate") == pytest.approx(100.0)
        assert table.cell("all", "hard") == pytest.approx(-50.0)
        rendered = table.render()
        assert "undefined" in rendered
        assert "+100.0%" in rendered
        assert "-50.0%" in rendered

    def test_level_order_follows_the_map(self):
        baseline = EvalReport.from_map_values(2.09, 2.62, 2.61)
        treatment = EvalReport.from_map_values(6.60, 8.60, 8.65)
        expected = compare_reports(baseline, treatment)
        for report in (baseline, treatment):
            report.cells["all"] = dict(reversed(report.cells["all"].items()))
        assert list(baseline.cells["all"]) == ["hard", "moderate", "easy"]
        table = compare_reports(baseline, treatment)
        assert table == expected
        assert table.render() == expected.render()

    @pytest.mark.parametrize("where", ["baseline", "treatment"])
    def test_class_levels_other_than_the_map_rejected(self, where):
        reports = {
            "baseline": EvalReport.from_map_values(2.09, 2.62, 2.61),
            "treatment": EvalReport.from_map_values(6.60, 8.60, 8.65),
        }
        del reports[where].cells["all"]["hard"]
        with pytest.raises(ValidationError, match="levels of 'all'"):
            compare_reports(reports["baseline"], reports["treatment"])

    def test_mismatched_classes_rejected(self):
        a = EvalReport.from_map_values(1, 1, 1, class_name="Car")
        b = EvalReport.from_map_values(1, 1, 1, class_name="Bus")
        with pytest.raises(ValidationError):
            compare_reports(a, b)


class TestRenderReport:
    def test_table_layout(self):
        rows = [
            ReportRow(
                report=EvalReport.from_map_values(0.26, 0.26, 0.26),
                pretrain_set=None,
                eval_set="target",
            ),
            ReportRow(
                report=EvalReport.from_map_values(12.76, 12.76, 12.76),
                pretrain_set="large-corpus",
                finetune_chain=("target",),
                eval_set="target",
            ),
        ]
        text = render_report(rows)
        lines = text.splitlines()
        header = [c.strip() for c in lines[0].split("|")]
        assert header == [
            "Architecture",
            "Pre-Train Set",
            "Fine-Tuning Set",
            "Evaluation Set",
            "Easy",
            "Moderate",
            "Hard",
        ]
        assert "Cube R-CNN" in lines[2]
        assert lines[2].count("0.26") == 3
        assert lines[3].count("12.76") == 3

    def test_multi_step_chain_rendering(self):
        row = ReportRow(
            report=EvalReport.from_map_values(6.26, 6.26, 6.26),
            pretrain_set="large-corpus",
            finetune_chain=("mid-set", "target"),
            eval_set="target",
        )
        text = render_report([row])
        assert "mid-set -> target" in text
        assert "6.26" in text

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            render_report([])


def _random_report(rng, classes):
    """A report whose AP values are often 0.0, so tables get undefined cells."""
    def value():
        return 0.0 if rng.random() < 0.3 else float(rng.choice([rng.uniform(0, 100), rng.uniform(0, 1e-3), 1e4]))

    levels = ("easy", "moderate", "hard")
    cells = {
        name: {lvl: EvalCell(ap=value(), gt=0, tp=0, fp=0, fn=0) for lvl in levels} for name in classes
    }
    return EvalReport(cells=cells, map3d={lvl: value() for lvl in levels})


class TestRenderersAgainstReference:
    """Both tables share one column layout; each equals its own reference by bytes."""

    @pytest.mark.parametrize("seed", range(40))
    def test_improvement_table(self, seed):
        rng = np.random.default_rng(seed)
        names = ["Car", "Pedestrian", "Bus", "x", "a-very-long-class-name"]
        classes = [str(c) for c in rng.choice(names, size=rng.integers(1, 6), replace=False)]
        table = compare_reports(_random_report(rng, classes), _random_report(rng, classes))
        assert table.render().encode() == reference_render_table(table).encode()

    def test_improvement_table_of_undefined_cells_only(self):
        zero = EvalReport.from_map_values(0.0, 0.0, 0.0, class_name="Truck")
        table = compare_reports(zero, EvalReport.from_map_values(1.0, 0.0, 3.0, class_name="Truck"))
        assert table.render() == reference_render_table(table)
        assert table.render().count("undefined") == 6

    @pytest.mark.parametrize("seed", range(40))
    def test_report(self, seed):
        rng = np.random.default_rng(seed)
        sets = ["", "target", "large-corpus", "a", "mid-set"]
        rows = [
            ReportRow(
                report=_random_report(rng, ["all"]),
                architecture=str(rng.choice(["Cube R-CNN", "M", "SMOKE"])),
                pretrain_set=[None, *sets][rng.integers(6)] or None,
                finetune_chain=tuple(str(s) for s in rng.choice(sets[1:], size=rng.integers(0, 4))),
                eval_set=str(rng.choice(sets)),
            )
            for _ in range(rng.integers(1, 5))
        ]
        assert render_report(rows).encode() == reference_render_report(rows).encode()
