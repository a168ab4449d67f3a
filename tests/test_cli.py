import json

import pytest

from roadkit.cli import main
from roadkit.evaluation import EvalReport
from roadkit.formats import load_manifest, parse_labels


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--frames",
            "4",
            "--seed",
            "9",
            "--objects",
            "3,6",
        ]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_layout(self, corpus):
        assert (corpus / "manifest.json").is_file()
        manifest = load_manifest((corpus / "manifest.json").read_text())
        assert len(manifest.frames) == 4
        for frame in manifest.frames:
            assert (corpus / "labels" / f"{frame.frame_id}.txt").is_file()
            assert (corpus / "detections" / f"{frame.frame_id}.txt").is_file()
            assert (corpus / "calib" / f"{frame.calibration_ref}.json").is_file()

    def test_deterministic(self, corpus, tmp_path):
        again = tmp_path / "again"
        main(["synth", "--out", str(again), "--frames", "4", "--seed", "9",
              "--objects", "3,6"])
        assert (again / "manifest.json").read_text() == (corpus / "manifest.json").read_text()
        for sub in ("labels", "detections"):
            for path in sorted((corpus / sub).iterdir()):
                assert path.read_text() == (again / sub / path.name).read_text()

    @pytest.mark.parametrize("objects", ["5", "a,b", "1,2,3", "7,3"])
    def test_bad_objects_exits_1(self, objects, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--frames", "1", "--objects", objects])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestStatsCommand:
    def test_output(self, corpus, capsys):
        assert main(["stats", "--manifest", str(corpus / "manifest.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frames"] == 4
        assert doc["boxes"] == sum(doc["per_class"].values())
        assert doc["resolutions"] == [[1920, 1080]]


class TestSplitCommand:
    def test_deterministic_byte_identical(self, corpus, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (out1, out2):
            code = main(
                [
                    "split",
                    "--manifest",
                    str(corpus / "manifest.json"),
                    "--fraction",
                    "0.5",
                    "--seed",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert sorted(doc["assignment"].values()).count("train") == 2

    def test_bad_fraction_exits_1(self, corpus, tmp_path):
        code = main(
            [
                "split",
                "--manifest",
                str(corpus / "manifest.json"),
                "--fraction",
                "1.5",
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 1


class TestEvalCommand:
    def test_perfect_detections(self, corpus, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--gt",
                str(corpus / "manifest.json"),
                "--pred",
                str(corpus / "detections"),
                "--out-json",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Easy" in out and "Moderate" in out and "Hard" in out
        report = EvalReport.from_json(report_path.read_text())
        for level in ("easy", "moderate", "hard"):
            assert report.map3d[level] == 100.0

    def test_jobs_flag_is_deterministic(self, corpus, tmp_path):
        outs = []
        for jobs, name in (("1", "r1.json"), ("4", "r4.json")):
            main(
                [
                    "eval",
                    "--gt",
                    str(corpus / "manifest.json"),
                    "--pred",
                    str(corpus / "detections"),
                    "--jobs",
                    jobs,
                    "--out-json",
                    str(tmp_path / name),
                ]
            )
            outs.append((tmp_path / name).read_text())
        assert outs[0] == outs[1]

    def test_labels_without_scores_rejected(self, corpus):
        code = main(
            [
                "eval",
                "--gt",
                str(corpus / "manifest.json"),
                "--pred",
                str(corpus / "labels"),  # ground truth has no score column
            ]
        )
        assert code == 1


class TestConvertCommand:
    def test_kitti_to_manifest_and_back(self, corpus, tmp_path):
        src = next(iter(sorted((corpus / "detections").iterdir())))
        as_json = tmp_path / "labels.json"
        back = tmp_path / "labels.txt"
        assert main(
            [
                "convert",
                "--input",
                str(src),
                "--output",
                str(as_json),
                "--from-format",
                "kitti_ext",
                "--to-format",
                "manifest_json",
            ]
        ) == 0
        assert main(
            [
                "convert",
                "--input",
                str(as_json),
                "--output",
                str(back),
                "--from-format",
                "manifest_json",
                "--to-format",
                "kitti_ext",
            ]
        ) == 0
        original = parse_labels(src.read_text())
        round_tripped = parse_labels(back.read_text())
        assert len(round_tripped) == len(original)
        assert [r.box3d for r in round_tripped] == [r.box3d for r in original]

    def test_bad_format_exits_1(self, corpus, tmp_path):
        code = main(
            [
                "convert",
                "--input",
                str(corpus / "manifest.json"),
                "--output",
                str(tmp_path / "x"),
                "--from-format",
                "csv",
                "--to-format",
                "kitti_ext",
            ]
        )
        assert code == 1


class TestTransformCommand:
    def test_camera_to_world_round_trip(self, corpus, tmp_path):
        manifest = load_manifest((corpus / "manifest.json").read_text())
        calib = corpus / "calib" / f"{manifest.frames[0].calibration_ref}.json"
        world_dir = tmp_path / "world"
        back_dir = tmp_path / "back"
        assert main(
            [
                "transform",
                "--calib",
                str(calib),
                "--source",
                "camera",
                "--target",
                "world",
                "--labels",
                str(corpus / "labels"),
                "--out",
                str(world_dir),
            ]
        ) == 0
        assert main(
            [
                "transform",
                "--calib",
                str(calib),
                "--source",
                "world",
                "--target",
                "camera",
                "--labels",
                str(world_dir),
                "--out",
                str(back_dir),
            ]
        ) == 0
        for path in sorted((corpus / "labels").iterdir()):
            original = parse_labels(path.read_text())
            returned = parse_labels((back_dir / path.name).read_text())
            for a, b in zip(original, returned):
                for va, vb in zip(a.box3d.center, b.box3d.center):
                    assert vb == pytest.approx(va, abs=1e-3)

    def test_unknown_frames_exit_1(self, corpus, tmp_path):
        manifest = load_manifest((corpus / "manifest.json").read_text())
        calib = corpus / "calib" / f"{manifest.frames[0].calibration_ref}.json"
        code = main(
            [
                "transform",
                "--calib",
                str(calib),
                "--source",
                "lidar",
                "--target",
                "camera",
                "--labels",
                str(corpus / "labels"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1


class TestCompareCommand:
    def test_compare_reports(self, corpus, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        treatment = tmp_path / "treatment.json"
        for iou, path in (("0.9", baseline), ("0.5", treatment)):
            main(
                [
                    "eval",
                    "--gt",
                    str(corpus / "manifest.json"),
                    "--pred",
                    str(corpus / "detections"),
                    "--iou",
                    iou,
                    "--out-json",
                    str(path),
                ]
            )
        capsys.readouterr()
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 0
        out = capsys.readouterr().out
        assert "mAP" in out

    def test_missing_file_exits_2(self, tmp_path):
        code = main(
            [
                "compare",
                "--baseline",
                str(tmp_path / "nope.json"),
                "--treatment",
                str(tmp_path / "nope2.json"),
            ]
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["stats"]) == 1

    def test_missing_input_file_exits_2(self, tmp_path):
        assert main(["stats", "--manifest", str(tmp_path / "absent.json")]) == 2
