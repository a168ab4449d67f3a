import dataclasses
import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest

from roadkit import cli
from roadkit.camera import RigidTransform
from roadkit.cli import _build_parser, _load_detection_dir, main
from roadkit.errors import ValidationError
from roadkit.evaluation import EvalReport
from roadkit.formats import (
    AnnotationRecord,
    CalibrationSet,
    DatasetManifest,
    DetectionRecord,
    FrameRecord,
    dump_calibration,
    load_manifest,
    parse_calibration,
    parse_labels,
)
from roadkit.geometry import Box3D, EulerOrientation
from roadkit.synth import NoiseSpec, SceneConfig, generate_corpus

from helpers import (
    reference_corrupt_detections,
    reference_dump_manifest,
    reference_kitti_line,
    reference_load_manifest,
    reference_parse_kitti_text,
    reference_transform_box,
    typed,
)


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


def _main_without_warnings(argv) -> int:
    """main(argv) with every numpy RuntimeWarning raised as an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


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

    # 1e308 overflows the projection, so that no object can be placed.
    @pytest.mark.parametrize("max_range", ["5", "8.8", "0", "-3", "inf", "nan", "1e308"])
    def test_bad_max_range_exits_1(self, max_range, tmp_path, capsys):
        argv = ["synth", "--out", str(tmp_path / "c"), "--frames", "1", "--max-range", max_range]
        code = _main_without_warnings(argv)
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

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--fp-rate", "nan"], "fp_rate"),
            (["--fp-rate", "1e30"], "fp_rate 1e+30"),  # beyond numpy's Poisson draw
            (["--center-sigma", "nan"], "center_sigma"),
            (["--seed", "-2000007"], "seed must be >= 0"),
        ],
    )
    def test_bad_noise_or_seed_writes_nothing(self, flags, needle, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--frames", "3", "--objects", "3,6", *flags]) == 1
        _one_error_line(capsys, "roadkit synth: error:", needle)
        assert not out.exists()

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


_NOISE_FLAGS = {
    "--drop-rate": "drop_rate", "--fp-rate": "fp_rate", "--center-sigma": "center_sigma",
    "--dim-sigma": "dim_sigma", "--angle-sigma": "angle_sigma",
}


def _reference_synth(objects, flags, frames, seed):
    """The manifest `roadkit synth` makes, and its detections made one frame
    at a time by the reference, or the message of the first fault met."""
    config = SceneConfig(objects_per_frame=objects)
    noise = NoiseSpec(**{_NOISE_FLAGS[flag]: float(value) for flag, value in zip(flags[::2], flags[1::2])})
    manifest, _ = generate_corpus(config, frames, seed)
    detections = []
    with np.errstate(all="ignore"):
        for i, frame in enumerate(manifest.frames):
            try:
                detections.append(reference_corrupt_detections(frame, noise, seed + 1_000_003 * (i + 1), config))
            except ValidationError as exc:
                return manifest, str(exc)
    return manifest, detections


class TestSynthNoiseOverflow:
    """Noise flags that overflow print no numpy warning: their exit codes
    and bytes are the reference's, and a fault is the one that corrupting
    the frames one at a time meets first, with no --out left behind."""

    def test_overflowing_center_norm_scores_zero(self, tmp_path, capsys):
        out = tmp_path / "c"
        flags = ["--center-sigma", "1e200"]
        argv = ["synth", "--out", str(out), "--frames", "3", "--seed", "4", "--objects", "3,6", *flags]
        assert _main_without_warnings(argv) == 0
        assert capsys.readouterr().err == ""
        manifest, detections = _reference_synth((3, 6), flags, 3, 4)
        scores = []
        for frame, records in zip(manifest.frames, detections):
            text = "".join(reference_kitti_line(record) + "\n" for record in records)
            assert (out / "detections" / f"{frame.frame_id}.txt").read_text() == text
            scores += [record.score for record in records]
        assert 0.0 in scores and len(scores) > 3

    @pytest.mark.parametrize(
        "flags, objects, seed, needle",
        [
            (["--angle-sigma", "1e308"], (3, 6), 5, "angle must be finite, got "),
            (["--dim-sigma", "1e308"], (3, 6), 5, "box volume h * w * l must be finite"),
            (["--center-sigma", "1e308"], (3, 6), 5, "box center must be 3 finite values"),
            # A box's angles are checked before its center.
            (["--center-sigma", "1e308", "--angle-sigma", "1e308"], (3, 6), 5, "angle must be finite"),
            # A frame's boxes fault before its Poisson draw does.
            (["--dim-sigma", "1e200", "--fp-rate", "1e30"], (3, 6), 5, "box volume"),
            # Frame 0 holds no box, so its Poisson draw faults before frame 1's boxes.
            (["--dim-sigma", "1e200", "--fp-rate", "1e30"], (0, 2), 1, "fp_rate 1e+30"),
            # Frame 0 holds no box, so frame 1's box faults first.
            (["--dim-sigma", "1e200"], (0, 2), 1, "box volume"),
            # A negative detection seed stops frame 0 before its boxes.
            (["--center-sigma", "1e308"], (3, 6), -1_000_004, "detection seed must be >= 0, got -1"),
        ],
    )
    def test_fault_is_the_first_one_frame_at_a_time(self, flags, objects, seed, needle, tmp_path, capsys):
        out = tmp_path / "c"
        argv = ["synth", "--out", str(out), "--frames", "3", "--seed", str(seed),
                "--objects", ",".join(map(str, objects)), *flags]
        assert _main_without_warnings(argv) == 1
        _, expected = _reference_synth(objects, flags, 3, seed)
        assert isinstance(expected, str) and needle in expected
        assert capsys.readouterr() == ("", f"roadkit synth: error: {expected}\n")
        assert not out.exists()


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

    def test_detection_files_checked_once_in_bulk(self, corpus, monkeypatch):
        # Each file is read once, its lines checked as they are converted and
        # its records built with their frame id; no record constructor runs,
        # neither as a line is read nor as its record takes the frame id.
        paths = sorted((corpus / "detections").glob("*.txt"))
        expected = {
            path.stem: [dataclasses.replace(r, frame_id=path.stem) for r in reference_parse_kitti_text(path.read_text())]
            for path in paths
        }
        reads, checks = [], []
        parse = cli._parse_kitti
        monkeypatch.setattr(cli, "_parse_kitti", lambda text, frame_id: reads.append(frame_id) or parse(text, frame_id))
        for cls in (EulerOrientation, Box3D, AnnotationRecord, DetectionRecord):
            monkeypatch.setattr(cls, "__post_init__", checks.append)
        loaded = _load_detection_dir(corpus / "detections")
        assert checks == []
        assert reads == [path.stem for path in paths]
        assert typed(loaded) == typed(expected)
        assert sum(map(len, loaded.values())) > 0


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

    @staticmethod
    def convert(source, target, from_format, to_format) -> str:
        argv = ["convert", "--input", str(source), "--output", str(target),
                "--from-format", from_format, "--to-format", to_format]
        assert main(argv) == 0
        return target.read_text()

    @pytest.mark.parametrize("sub", ["labels", "detections"])
    def test_output_matches_reference(self, corpus, tmp_path, sub):
        # kitti_ext -> manifest_json is the reference dump of the reference
        # records in the one frame write_labels makes; manifest_json ->
        # kitti_ext is the reference line of each reference-loaded record.
        for path in sorted((corpus / sub).glob("*.txt")):
            records = reference_parse_kitti_text(path.read_text())
            frames = (FrameRecord(frame_id="", annotations=records),) if records else ()
            manifest = DatasetManifest("labels", sorted({r.class_name for r in records}), frames)
            as_json = self.convert(path, tmp_path / "labels.json", "kitti_ext", "manifest_json")
            assert as_json == reference_dump_manifest(manifest), path.name
            back = self.convert(tmp_path / "labels.json", tmp_path / "labels.txt", "manifest_json", "kitti_ext")
            loaded = [r for frame in reference_load_manifest(as_json).frames for r in frame.annotations]
            assert back == "".join(reference_kitti_line(r) + "\n" for r in loaded), path.name
            assert back == path.read_text(), path.name

    def test_manifest_to_kitti_matches_reference(self, corpus, tmp_path):
        source = corpus / "manifest.json"
        records = [r for frame in reference_load_manifest(source.read_text()).frames for r in frame.annotations]
        text = self.convert(source, tmp_path / "labels.txt", "manifest_json", "kitti_ext")
        assert text == "".join(reference_kitti_line(r) + "\n" for r in records)
        as_json = self.convert(source, tmp_path / "labels.json", "manifest_json", "manifest_json")
        by_frame = {}
        for r in records:
            by_frame.setdefault(r.frame_id, []).append(r)
        frames = [FrameRecord(frame_id=fid, annotations=anns) for fid, anns in by_frame.items()]
        assert as_json == reference_dump_manifest(
            DatasetManifest("labels", sorted({r.class_name for r in records}), frames)
        )

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

    def test_repeated_class_in_eval_stats_and_split(self, corpus, tmp_path, capsys):
        doc = json.loads((corpus / "manifest.json").read_text())
        doc["class_taxonomy"].append("Car")
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        split = tmp_path / "split.json"
        for argv in (
            ["eval", "--gt", str(path), "--pred", str(corpus / "detections")],
            ["stats", "--manifest", str(path)],
            ["split", "--manifest", str(path), "--out", str(split)],
        ):
            assert main(argv) == 1
            _one_error_line(capsys, f"roadkit {argv[0]}: error: duplicate class 'Car' in the taxonomy")
        assert not split.exists()

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
        _one_error_line(
            capsys, f"roadkit eval: error: {path.name}: score must be in [0, 1], got {float(score)} (line 2)"
        )
        assert not report.exists()

    @pytest.mark.parametrize(
        "column, token, message",
        [
            (2, "1.5", "occlusion '1.5' is not an integer (line 3, field 'occlusion')"),
            (9, "0", "box dims (h, w, l) must be positive, got"),
            (1, "x", "cannot parse 'x' as a number (line 3, field 'truncation')"),
        ],
    )
    def test_label_fault_in_transform_names_file_and_line(self, corpus, tmp_path, capsys, column, token, message):
        labels = tmp_path / "labels"
        labels.mkdir()
        for path in sorted((corpus / "labels").glob("*.txt")):
            (labels / path.name).write_text(path.read_text())
        path = sorted(labels.glob("*.txt"))[1]
        lines = path.read_text().splitlines()
        tokens = lines[2].split()
        tokens[column] = token
        lines[2] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        manifest = load_manifest((corpus / "manifest.json").read_text())
        calib = corpus / "calib" / f"{manifest.frames[0].calibration_ref}.json"
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(labels), "--out", str(out)]
        assert main(argv) == 1
        _one_error_line(capsys, f"roadkit transform: error: {path.name}: {message}", "(line 3")
        assert not out.exists()

    def test_overflowing_move_in_transform_names_file(self, corpus, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        for path in sorted((corpus / "labels").glob("*.txt")):
            (labels / path.name).write_text(path.read_text())
        path = sorted(labels.glob("*.txt"))[1]
        path.write_text("Car 0 0 0 -1 -1 -1 -1 1.5 1.8 4.2 -1.7e308 1.7e308 1.7e308 0.1\n")
        calib = sorted((corpus / "calib").glob("*.json"))[0]
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(labels), "--out", str(out)]
        assert _main_without_warnings(argv) == 1
        _one_error_line(capsys, f"roadkit transform: error: {path.name}: box center must be 3 finite values")
        assert not out.exists()

    def test_calibration_far_from_a_rotation(self, corpus, tmp_path, capsys):
        # A subnormal entry in R gives det a zero LU pivot: a fault, not a warning.
        calib = tmp_path / "calib.json"
        doc = json.loads(sorted((corpus / "calib").glob("*.json"))[0].read_text())
        doc["transforms"][0]["R"][1] = 2.2e-308
        calib.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(corpus / "labels"), "--out", str(out)]
        assert _main_without_warnings(argv) == 1
        _one_error_line(capsys, "roadkit transform: error: transform 'world'->'camera': rotation matrix is not orthonormal")
        assert not out.exists()


class TestBoxVolumeFault:
    """A box whose volume h * w * l overflows or underflows to 0 is a fault:
    one error line naming where it is, exit 1, no numpy warning, no output."""

    @pytest.mark.parametrize("dims", ["1e200 1e200 1e200", "1e-200 1e-200 1.5"])
    def test_kitti_line(self, corpus, tmp_path, capsys, dims):
        line = f"Car 0 0 0 -1 -1 -1 -1 {dims} 1 2 20 0.1 0.9\n"
        message = f"box volume h * w * l must be finite and positive, got dims {tuple(map(float, dims.split()))} (line 2)"
        pred = tmp_path / "pred"
        shutil.copytree(corpus / "detections", pred)
        path = sorted(pred.glob("*.txt"))[1]
        path.write_text(path.read_text().splitlines()[0] + "\n" + line)
        report, out, converted = tmp_path / "report.json", tmp_path / "out", tmp_path / "labels.json"
        argv = ["eval", "--gt", str(corpus / "manifest.json"), "--pred", str(pred), "--out-json", str(report)]
        assert _main_without_warnings(argv) == 1
        _one_error_line(capsys, f"roadkit eval: error: {path.name}: {message}")
        calib = sorted((corpus / "calib").glob("*.json"))[0]
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(pred), "--out", str(out)]
        assert _main_without_warnings(argv) == 1
        _one_error_line(capsys, f"roadkit transform: error: {path.name}: {message}")
        argv = ["convert", "--input", str(path), "--output", str(converted),
                "--from-format", "kitti_ext", "--to-format", "manifest_json"]
        assert _main_without_warnings(argv) == 1
        _one_error_line(capsys, f"roadkit convert: error: {message}")
        assert not report.exists() and not out.exists() and not converted.exists()

    def test_manifest_annotation(self, corpus, tmp_path, capsys):
        doc = json.loads((corpus / "manifest.json").read_text())
        frame = doc["frames"][1]
        frame["annotations"][0]["box3d"]["dims"] = [1e200, 1e200, 1e200]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        needle = f"frame {frame['frame_id']!r}: box volume h * w * l must be finite and positive"
        for argv in (
            ["eval", "--gt", str(path), "--pred", str(corpus / "detections")],
            ["stats", "--manifest", str(path)],
            ["convert", "--input", str(path), "--output", str(tmp_path / "labels.txt"),
             "--from-format", "manifest_json", "--to-format", "kitti_ext"],
        ):
            assert _main_without_warnings(argv) == 1
            _one_error_line(capsys, f"roadkit {argv[0]}: error: malformed annotation object in {needle}")
        assert not (tmp_path / "labels.txt").exists()

def _constructed_copy(record: AnnotationRecord, box3d: Box3D) -> AnnotationRecord:
    """The record with a new box, built through the public constructors."""
    fields = dict(
        class_name=record.class_name,
        box3d=box3d,
        truncation=record.truncation,
        occlusion=record.occlusion,
        box2d=record.box2d,
        frame_id=record.frame_id,
    )
    if isinstance(record, DetectionRecord):
        return DetectionRecord(score=record.score, **fields)
    return AnnotationRecord(**fields)


class TestTransformCommand:
    @pytest.mark.parametrize("sub", ["labels", "detections"])
    def test_output_matches_reference(self, corpus, tmp_path, sub):
        calib = sorted((corpus / "calib").glob("*.json"))[0]
        rigid = parse_calibration(calib.read_text()).transform("camera", "world")
        out = tmp_path / "world"
        assert main(["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                     "--labels", str(corpus / sub), "--out", str(out)]) == 0
        sources = sorted((corpus / sub).glob("*.txt"))
        assert sorted(path.name for path in out.iterdir()) == [path.name for path in sources]
        kinds = set()
        for path in sources:
            records = reference_parse_kitti_text(path.read_text())
            moved = [_constructed_copy(r, reference_transform_box(rigid, r.box3d)) for r in records]
            kinds.update(type(r) for r in moved)
            expected = "".join(reference_kitti_line(r) + "\n" for r in moved)
            assert (out / path.name).read_text() == expected, path.name
        assert kinds == {AnnotationRecord if sub == "labels" else DetectionRecord}

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


# Lines for the transform fault-order tests, under _near_rotation_calibration:
# one that moves, one whose moved center overflows, one whose moved rotation
# fails the rotation check, and one that does not parse.
_GOOD = "Car 0 0 0 -1 -1 -1 -1 1.5 1.8 4.2 1 2 20 0.1"
_OVERFLOW = "Car 0 0 0 -1 -1 -1 -1 1.5 1.8 4.2 1e308 2 20 0.1"
_TILTED = "Car 0 0 0 -1 -1 -1 -1 1.5 1.8 4.2 3 1 25 0.785398 -0.61548 0.2"
_UNPARSED = "Car x 0 0 -1 -1 -1 -1 1.5 1.8 4.2 1 2 20 0.1"


def _near_rotation_calibration(corpus, path) -> RigidTransform:
    """A camera->world calibration whose R = I + e(J - I)/2 passes the 1e-6
    checks but fails them times a box rotation whose local z points along
    (1, 1, 1), and whose translation of 1e308 along x overflows a center at
    x = 1e308 (see tests/test_camera.py)."""
    eps = 0.9e-6
    rot = np.eye(3) + 0.5 * eps * (np.ones((3, 3)) - np.eye(3))
    rigid = RigidTransform(rot, np.array([1e308, 0.0, 0.0]), "camera", "world")
    intrinsics = parse_calibration(sorted((corpus / "calib").glob("*.json"))[0].read_text()).intrinsics
    path.write_text(dump_calibration(CalibrationSet(intrinsics=intrinsics, transforms=(rigid,))))
    return rigid


def _reference_transform_fault(rigid, paths) -> str | None:
    """The first fault of reading and moving each file in turn, one box at a
    time, with the file's name before it, or None."""
    for path in paths:
        try:
            records = reference_parse_kitti_text(path.read_text())
            with np.errstate(over="ignore"):
                for record in records:
                    reference_transform_box(rigid, record.box3d)
        except ValidationError as exc:
            return f"{path.name}: {exc}"
    return None


class TestTransformFaultOrder:
    """transform reports the fault that reading and moving one file at a time
    meets first, and writes nothing."""

    @pytest.mark.parametrize(
        "files, kind",
        [
            # A move fault in file 2 comes before a parse fault in file 3; in
            # one file, the first box at fault decides which move fault.
            (([_GOOD], [_GOOD, _OVERFLOW, _TILTED], [_UNPARSED]), "box center must be 3 finite values"),
            (([_GOOD], [_GOOD, _TILTED, _OVERFLOW], [_UNPARSED]), "rotation matrix is not orthonormal"),
            (([_GOOD], [_OVERFLOW, _TILTED], [_GOOD]), "box center must be 3 finite values"),
            (([_GOOD], [_TILTED, _GOOD], [_OVERFLOW]), "rotation matrix is not orthonormal"),
            (([_GOOD], [_GOOD], [_UNPARSED]), "cannot parse 'x' as a number"),
            (([_UNPARSED], [_OVERFLOW], [_TILTED]), "cannot parse 'x' as a number"),
        ],
    )
    def test_first_fault_is_reported(self, corpus, tmp_path, capsys, files, kind):
        calib = tmp_path / "calib.json"
        rigid = _near_rotation_calibration(corpus, calib)
        labels = tmp_path / "labels"
        labels.mkdir()
        paths = []
        for name, lines in zip("abc", files):
            paths.append(labels / f"{name}.txt")
            paths[-1].write_text("\n".join(lines) + "\n")
        expected = _reference_transform_fault(rigid, paths)
        assert expected is not None and kind in expected
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(labels), "--out", str(out)]
        assert _main_without_warnings(argv) == 1
        assert capsys.readouterr().err == f"roadkit transform: error: {expected}\n"
        assert not out.exists()

    def test_good_files_move_like_reference(self, corpus, tmp_path):
        # The same calibration moves the good lines; the two fault lines
        # above are faults only under it.
        calib = tmp_path / "calib.json"
        rigid = _near_rotation_calibration(corpus, calib)
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "a.txt").write_text(_GOOD + "\n" + _GOOD.replace(" 20 ", " 30 ") + "\n")
        assert _reference_transform_fault(rigid, [labels / "a.txt"]) is None
        out = tmp_path / "out"
        assert _main_without_warnings(["transform", "--calib", str(calib), "--source", "camera",
                                       "--target", "world", "--labels", str(labels), "--out", str(out)]) == 0
        moved = [_constructed_copy(r, reference_transform_box(rigid, r.box3d))
                 for r in reference_parse_kitti_text((labels / "a.txt").read_text())]
        assert (out / "a.txt").read_text() == "".join(reference_kitti_line(r) + "\n" for r in moved)


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
        out = tmp_path / "out"
        argv = ["transform", "--calib", str(calib), "--source", "camera", "--target", "world",
                "--labels", str(labels), "--out", str(out)]
        assert main(argv) == 1
        _one_error_line(capsys, "roadkit transform: error:", "is not text")
        assert not out.exists()

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
