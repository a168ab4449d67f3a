import dataclasses
import hashlib
import json

import pytest

from roadkit.cli import _build_parser, _load_detection_dir, main
from roadkit.evaluation import EvalReport
from roadkit.formats import DetectionRecord, load_manifest, parse_labels


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


def _one_error_line(capsys, *needles):
    """Nothing on stdout, and one line on stderr ("error:" or "i/o error:") holding every needle."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and len(captured.err.splitlines()) == 1, captured.err
    assert all(needle in captured.err for needle in needles), captured.err


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

    @pytest.mark.parametrize("max_range", ["5", "8.8", "0", "-3", "inf", "nan"])
    def test_bad_max_range_exits_1(self, max_range, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--frames", "1", "--max-range", max_range])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_negative_frames_exits_1(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--frames", "-3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_zero_frames_writes_empty_corpus(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "c"), "--frames", "0"]) == 0
        assert json.loads((tmp_path / "c" / "manifest.json").read_text())["frames"] == []

    @pytest.mark.parametrize("objects", ["5", "a,b", "1,2,3", "7,3"])
    def test_bad_objects_exits_1(self, objects, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--frames", "1", "--objects", objects])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


# sha256 of every file `roadkit synth --frames 6 --seed 11` writes under the
# reference noise, recorded before the generator and writers were sped up.
SYNTH_SEED_11_DIGESTS = {
    "calib/calib-synth-11-000000.json": "a297e9c1439b2ac43edf6d71ecbad1abe9e2ef2dae898049f8c8eed39d850a7e",
    "calib/calib-synth-11-000001.json": "9683cc272aeaebcf4a6c1ca088e76f1bb573ee937355fcfab12b49627e33cee6",
    "calib/calib-synth-11-000002.json": "9884d4cfd75861a58a159f8d6e2527063aa82a568a56c1dbc73e7e8bd1a4bb4f",
    "calib/calib-synth-11-000003.json": "edd9b4d5c462a52d5222406526bdbd8a0969a6dcca14ed3529857133294fb299",
    "calib/calib-synth-11-000004.json": "d1bd477703dab53b0775cd8ddddd8d51dfba83e49e08608f27547c034b89b784",
    "calib/calib-synth-11-000005.json": "d9a9ab9e915fc1e610a496b38946a24435bf60fec8570ee748a42d29c5716387",
    "detections/synth-11-000000.txt": "368fcb93ebac32a86cd90228c101fe89338e9a3b0e211584daff5d20f7113e28",
    "detections/synth-11-000001.txt": "a95c45e454a5fac3d0c160a9a2588e5f2550784160e113328a57e30c96e3383c",
    "detections/synth-11-000002.txt": "acc93a7fcffa5cf1a1c32848c97c590b235cae9b3172d8261eef408add5bc546",
    "detections/synth-11-000003.txt": "541bef83c85b52b03b723b619cd047b666d27d6f04dc276217b22e960fd7345d",
    "detections/synth-11-000004.txt": "93225de934ff1e7764a129bfcc723419f739b28165385fd95c85e47089d9fd99",
    "detections/synth-11-000005.txt": "11f7535160a3e30a065e95940d80b09c8f08a541eb2a86db9200da6f7d20a6d0",
    "labels/synth-11-000000.txt": "d5b8b21ae0302d2acc520a50b7032be9edc7c1ebb8aa8bf35301c742d07f46da",
    "labels/synth-11-000001.txt": "e9fc8b03ec22b3e163ac80b6b0763ca4de6127a53de95e98463f9e419b2223ae",
    "labels/synth-11-000002.txt": "234a15b836e3c44561f73c257348fabb949687e730efc9761836479c4efd78ae",
    "labels/synth-11-000003.txt": "1781286ef7b2031471aa260d1ce6f0760b12044a9c364e399f1ad3ffdbb1cfb8",
    "labels/synth-11-000004.txt": "7b423e86ed5c2ddbe41723e35f4b061baaad71881a0cceac22ce85b6c3df26eb",
    "labels/synth-11-000005.txt": "e784e9f8d0da64890f2f1365cc148b4f9a91ed17b7799675e2810422ce088983",
    "manifest.json": "921b4197b25b293a46ef1a85e3bc145abb2203d063ff907a34acd334682ecb3e",
}
REFERENCE_NOISE = [
    "--drop-rate", "0.2", "--center-sigma", "0.4", "--dim-sigma", "0.1",
    "--angle-sigma", "0.05", "--fp-rate", "2.0",
]


class TestSynthOutputPin:
    def test_files_match_pinned_digests(self, tmp_path):
        out = tmp_path / "pin"
        assert main(["synth", "--out", str(out), "--frames", "6", "--seed", "11", *REFERENCE_NOISE]) == 0
        digests = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        assert digests == SYNTH_SEED_11_DIGESTS


class TestStatsCommand:
    def test_output(self, corpus, capsys):
        assert main(["stats", "--manifest", str(corpus / "manifest.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frames"] == 4
        assert doc["boxes"] == sum(doc["per_class"].values())
        assert doc["resolutions"] == [[1920, 1080]]

    @pytest.mark.parametrize(
        "field, value", [("occlusion", 7), ("truncation", "abc"), ("occlusion", "2"), ("truncation", True)]
    )
    def test_bad_annotation_value_exits_1(self, corpus, tmp_path, capsys, field, value):
        doc = json.loads((corpus / "manifest.json").read_text())
        doc["frames"][2]["annotations"][0][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert repr(doc["frames"][2]["frame_id"]) in err

    @pytest.mark.parametrize("field, value", [("image_size", ["1920", True]), ("center", "123"), ("dims", [True, 1, 1])])
    def test_non_number_frame_or_box_value_exits_1(self, corpus, tmp_path, capsys, field, value):
        doc = json.loads((corpus / "manifest.json").read_text())
        frame = doc["frames"][2]
        if field == "image_size":
            frame[field] = value
        else:
            frame["annotations"][0]["box3d"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert repr(frame["frame_id"]) in err


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


    @pytest.mark.parametrize("where, value", [("image_size", [1920.7, 1080]), ("occlusion", 1.5)])
    def test_fractional_value_exits_1(self, corpus, tmp_path, capsys, where, value):
        doc = json.loads((corpus / "manifest.json").read_text())
        frame = doc["frames"][2]
        if where == "image_size":
            frame["image_size"] = value
        else:
            frame["annotations"][0]["occlusion"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert repr(frame["frame_id"]) in err and repr(value) in err


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

    def test_labels_without_scores_rejected(self, corpus, capsys):
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
        first = sorted((corpus / "labels").glob("*.txt"))[0].name
        assert capsys.readouterr().err == (
            f"roadkit eval: error: {first}: detection lines must carry a score column\n"
        )

    def test_detection_records_checked_once(self, corpus, monkeypatch):
        # Each record is checked when its line is parsed, not again when it
        # takes its frame id.
        expected = {
            path.stem: [dataclasses.replace(r, frame_id=path.stem) for r in parse_labels(path.read_text())]
            for path in sorted((corpus / "detections").glob("*.txt"))
        }
        checks = []
        check = DetectionRecord.__post_init__
        monkeypatch.setattr(DetectionRecord, "__post_init__", lambda r: checks.append(check(r)))
        loaded = _load_detection_dir(corpus / "detections")
        assert loaded == expected
        assert len(checks) == sum(map(len, expected.values())) > 0


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


class TestMalformedInputExits1:
    """A malformed name, image size or score is one error line, exit 1, and no output."""

    @pytest.mark.parametrize("where", ["class_name", "frame_id", "class_taxonomy"])
    def test_non_string_name_in_convert(self, corpus, tmp_path, capsys, where):
        doc = json.loads((corpus / "manifest.json").read_text())
        frame = doc["frames"][2]
        if where == "class_name":
            frame["annotations"][0]["class_name"] = 5
            doc["class_taxonomy"].append(5)
        elif where == "frame_id":
            frame["frame_id"] = 5
        else:
            doc["class_taxonomy"].append(5)
        path, out = tmp_path / "bad.json", tmp_path / "out.txt"
        path.write_text(json.dumps(doc))
        argv = ["convert", "--input", str(path), "--output", str(out),
                "--from-format", "manifest_json", "--to-format", "kitti_ext"]
        assert main(argv) == 1
        _one_error_line(capsys, "roadkit convert: error:", where)
        assert not out.exists()

    @pytest.mark.parametrize("size", [[1920], [1920, 1080, 3], [-1920, 1080]])
    def test_bad_image_size_in_convert_and_stats(self, corpus, tmp_path, capsys, size):
        doc = json.loads((corpus / "manifest.json").read_text())
        frame = doc["frames"][2]
        frame["image_size"] = size
        path, out = tmp_path / "bad.json", tmp_path / "out.txt"
        path.write_text(json.dumps(doc))
        assert main(["stats", "--manifest", str(path)]) == 1
        _one_error_line(capsys, "roadkit stats: error:", repr(frame["frame_id"]), "image_size")
        argv = ["convert", "--input", str(path), "--output", str(out),
                "--from-format", "manifest_json", "--to-format", "kitti_ext"]
        assert main(argv) == 1
        _one_error_line(capsys, "roadkit convert: error:", repr(frame["frame_id"]), "image_size")
        assert not out.exists()

    @pytest.mark.parametrize("score", ["1.5", "-0.5"])
    def test_score_out_of_range_in_eval_names_line(self, corpus, tmp_path, capsys, score):
        pred = tmp_path / "pred"
        pred.mkdir()
        for path in sorted((corpus / "detections").glob("*.txt")):
            (pred / path.name).write_text(path.read_text())
        path = sorted(pred.glob("*.txt"))[1]
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        lines[1] = lines[1].rsplit(" ", 1)[0] + " " + score
        path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        argv = ["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(pred), "--out-json", str(report)]
        assert main(argv) == 1
        _one_error_line(capsys, f"roadkit eval: error: score must be in [0, 1], got {float(score)} (line 2)")
        assert not report.exists()


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


def _two_reports(corpus, tmp_path):
    paths = []
    for iou in ("0.9", "0.5"):
        path = tmp_path / f"report-{iou}.json"
        argv = ["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(corpus / "detections"),
                "--iou", iou, "--out-json", str(path)]
        assert main(argv) == 0
        paths.append(path)
    return paths


class TestCompareReadsByMap:
    def test_reordered_level_keys_give_the_same_table(self, tmp_path, capsys):
        baseline, treatment = tmp_path / "baseline.json", tmp_path / "treatment.json"
        baseline.write_text(EvalReport.from_map_values(2.09, 2.62, 2.61, class_name="Car").to_json())
        treatment.write_text(EvalReport.from_map_values(6.60, 8.60, 8.65, class_name="Car").to_json())
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 0
        expected = capsys.readouterr().out
        for path in (baseline, treatment):
            doc = json.loads(path.read_text())
            for name, by_level in doc["classes"].items():
                doc["classes"][name] = dict(reversed(by_level.items()))
            path.write_text(json.dumps(doc))
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 0
        assert capsys.readouterr().out == expected
        assert expected.splitlines()[1].split() == ["Car", "|", "+215.8%", "|", "+231.4%", "|", "+228.2%"]

    def test_missing_level_exits_1(self, corpus, tmp_path, capsys):
        baseline, treatment = _two_reports(corpus, tmp_path)
        doc = json.loads(baseline.read_text())
        name = sorted(doc["classes"])[0]
        del doc["classes"][name]["hard"]
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 1
        _one_error_line(capsys, "roadkit compare: error: malformed report document", repr(name))

    @pytest.mark.parametrize("ap", ['"x"', "null", "NaN"])
    def test_non_number_ap_exits_1(self, corpus, tmp_path, capsys, ap):
        baseline, treatment = _two_reports(corpus, tmp_path)
        text = baseline.read_text()
        baseline.write_text(text.replace('"ap": ', f'"ap": {ap}, "was": ', 1))
        capsys.readouterr()
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 1
        _one_error_line(capsys, "roadkit compare: error:", "ap must be a finite number")


class TestMissingDirectoryExits2:
    def test_eval_pred(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.json"
        for pred in (tmp_path / "no" / "such", corpus / "manifest.json"):
            argv = ["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(pred), "--out-json", str(out)]
            assert main(argv) == 2
            _one_error_line(capsys, f"roadkit eval: i/o error: {pred} is not a directory")
            assert not out.exists()

    def test_transform_labels(self, corpus, tmp_path, capsys):
        calib = sorted((corpus / "calib").glob("*.json"))[0]
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(tmp_path / "no-such-dir"), "--out", str(out)]
        assert main(argv) == 2
        _one_error_line(capsys, "roadkit transform: i/o error:")
        assert not out.exists()

    def test_empty_directory_still_evaluates(self, corpus, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        argv = ["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(tmp_path / "empty")]
        assert main(argv) == 0
        assert "0.00" in capsys.readouterr().out


class TestUndecodableFileExits1:
    BYTES = b"\xff\xfe\x00binary"

    def test_stats_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(self.BYTES)
        assert main(["stats", "--manifest", str(path)]) == 1
        _one_error_line(capsys, f"roadkit stats: error: {path} is not text")

    def test_eval_detection_file(self, corpus, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for path in sorted((corpus / "detections").glob("*.txt")):
            (pred / path.name).write_bytes(path.read_bytes())
        bad = sorted(pred.glob("*.txt"))[1]
        bad.write_bytes(self.BYTES)
        assert main(["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(pred)]) == 1
        _one_error_line(capsys, f"roadkit eval: error: {bad} is not text")

    def test_transform_label_file(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "a.txt").write_bytes(self.BYTES)
        calib = sorted((corpus / "calib").glob("*.json"))[0]
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(labels), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        _one_error_line(capsys, "roadkit transform: error:", "is not text")

    def test_compare_report(self, corpus, tmp_path, capsys):
        baseline, treatment = _two_reports(corpus, tmp_path)
        baseline.write_bytes(self.BYTES)
        capsys.readouterr()
        assert main(["compare", "--baseline", str(baseline), "--treatment", str(treatment)]) == 1
        _one_error_line(capsys, f"roadkit compare: error: {baseline} is not text")


class TestEvalThresholds:
    @pytest.mark.parametrize("iou", ["5", "nan", "0", "1", "-0.5", "inf"])
    def test_bad_iou_exits_1(self, iou, tmp_path, capsys):
        # An empty manifest never reaches the matcher, so only the up-front
        # check can reject the threshold.
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"name": "empty", "class_taxonomy": ["Car"], "frames": []}))
        (tmp_path / "pred").mkdir()
        out = tmp_path / "report.json"
        code = main(["eval", "--gt", str(gt), "--pred", str(tmp_path / "pred"),
                     "--iou", iou, "--out-json", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "iou_threshold" in err and "Traceback" not in err
        assert not out.exists()


class TestParserReuse:
    def test_main_calls_share_one_parser(self, tmp_path, capsys):
        """Each call through the cached parser acts as a call with a fresh one."""
        runs = [
            ["synth", "--out", "{}/a", "--frames", "2", "--seed", "3", "--objects", "1,2"],
            ["synth", "--out", "{}/b", "--frames", "2", "--seed", "3"],
            ["synth", "--out", "{}/c", "--frames", "x"],
            ["eval", "--gt", "{}/b/manifest.json", "--pred", "{}/b/detections",
             "--out-json", "{}/report.json"],
        ]

        def run_all(root, fresh_parser):
            root.mkdir()
            results = []
            for argv in runs:
                if fresh_parser:
                    _build_parser.cache_clear()
                code = main([arg.format(root) for arg in argv])
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err.replace(str(root), "ROOT")))
            files = {
                str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
            }
            return results, files

        assert _build_parser() is _build_parser()
        results, files = run_all(tmp_path / "shared", fresh_parser=False)
        assert (results, files) == run_all(tmp_path / "fresh", fresh_parser=True)
        assert [code for code, _, _ in results] == [0, 0, 1, 0]
        errors = [line for line in results[2][2].splitlines() if "error:" in line]
        assert errors == ["roadkit synth: error: argument --frames: invalid int value: 'x'"]
        # --objects does not carry over into the next synth call.
        manifest_a = json.loads(files["a/manifest.json"])
        manifest_b = json.loads(files["b/manifest.json"])
        assert all(len(f["annotations"]) <= 2 for f in manifest_a["frames"])
        assert any(len(f["annotations"]) > 2 for f in manifest_b["frames"])


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["stats"]) == 1

    def test_non_string_manifest_name_exits_1(self, corpus, tmp_path, capsys):
        doc = json.loads((corpus / "manifest.json").read_text())
        doc["name"] = 5
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--gt", str(path), "--pred", str(corpus / "detections")]) == 1
        _one_error_line(capsys, "roadkit eval: error:", "manifest name 5 is not a string")

    def test_missing_input_file_exits_2(self, tmp_path):
        assert main(["stats", "--manifest", str(tmp_path / "absent.json")]) == 2
