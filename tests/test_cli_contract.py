"""A seeded fuzz test of the CLI contract.

Each case of the first family copies a small synthetic corpus, replaces one
to three values in it (a kitti_ext token, or a number in the manifest or
calibration JSON) with an edge value, and runs eval, transform, convert,
stats and split on the copy in process, with every Python warning raised as
an error. Every command must exit 0, 1 or 2; on 1 or 2 it must print exactly
one stderr line and leave no output file or directory behind.

Each case of the second family runs synth in process, warnings raised as
errors, with its noise, range and object-count flags drawn from edge values.
It must exit 0, 1 or 2. On 1 or 2 it prints one error line, after argparse's
usage block only when the flags do not parse, and leaves no --out; on 0 the
files it wrote read back to the manifest's counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import warnings
from pathlib import Path

import pytest

from roadkit.cli import main
from roadkit.formats import DetectionRecord, load_manifest, parse_labels

SEED = 20261020
CASES = 400

# Edge values as raw text: JSON number tokens where a JSON document is
# mutated, kitti_ext tokens where a label line is. Fractions stand where
# whole numbers belong (occlusion, image_size); strings where numbers do.
EDGE_VALUES = (
    "0", "-0", "-0.0", "5e-324", "-5e-324", "2.2e-308", "1e308", "-1e308", "1.7e308", "-1.7e308",
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "0.5", "1.5", "2.5", "-1", "3", "7",
    "1e200", "1e-200", '"abc"', '"1"', "true", "null",
)
_PLACEHOLDER = "\u0000fuzz\u0000"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("contract") / "corpus"
    argv = ["synth", "--out", str(out), "--frames", "3", "--seed", "5", "--objects", "2,4",
            "--drop-rate", "0.2", "--fp-rate", "1", "--center-sigma", "0.3"]
    assert main(argv) == 0
    return out


def _json_paths(value, path=()):
    """The paths to every number in a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _json_paths(item, (*path, index))
    elif type(value) in (int, float):
        yield path


def _mutate_json(path: Path, rng: random.Random) -> str:
    doc = json.loads(path.read_text())
    where = rng.choice(list(_json_paths(doc)))
    token = rng.choice(EDGE_VALUES)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = _PLACEHOLDER
    path.write_text(json.dumps(doc, indent=1).replace(json.dumps(_PLACEHOLDER), token))
    return f"{path.name}{list(where)} = {token}"


def _mutate_kitti(path: Path, rng: random.Random, row: int | None) -> tuple[str, int | None]:
    """Mutate one token of line row, or of a random line when row is None."""
    lines = path.read_text().splitlines()
    if not lines:
        return f"{path.name}: empty", None
    row = rng.randrange(len(lines)) if row is None else row
    tokens = lines[row].split()
    column = rng.randrange(1, len(tokens))
    tokens[column] = rng.choice(EDGE_VALUES).strip('"')
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return f"{path.name} line {row + 1} column {column} = {tokens[column]}", row


def _mutate(inputs: Path, rng: random.Random) -> list[str]:
    """One to three mutations; each after the first hits the file (and, in a
    label file, the line) of the one before it half of the time, so that
    values which only fault together, such as two huge center coordinates,
    meet often."""
    json_files = [inputs / "manifest.json", *sorted((inputs / "calib").glob("*.json"))[:1]]
    kitti_files = sorted((inputs / "labels").glob("*.txt")) + sorted((inputs / "detections").glob("*.txt"))
    mutations, target, row = [], None, None
    for _ in range(rng.randint(1, 3)):
        if target is None or rng.random() < 0.5:
            target, row = rng.choice(json_files + kitti_files), None
        if target.suffix == ".json":
            mutations.append(_mutate_json(target, rng))
        else:
            mutation, row = _mutate_kitti(target, rng, row)
            mutations.append(mutation)
    return mutations


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    return code, stderr.getvalue()


def test_cli_contract_on_mutated_corpora(corpus, tmp_path):
    rng = random.Random(SEED)
    outcomes = set()
    for case in range(CASES):
        work = tmp_path / f"case{case:03d}"
        shutil.copytree(corpus, work / "in")
        inputs = work / "in"
        mutations = _mutate(inputs, rng)
        out = work / "out"
        manifest = str(inputs / "manifest.json")
        calib = str(sorted((inputs / "calib").glob("*.json"))[0])
        label = str(sorted((inputs / "labels").glob("*.txt"))[0])
        commands = [
            (["eval", "--gt", manifest, "--pred", str(inputs / "detections"), "--out-json", str(out / "report.json")],
             out / "report.json"),
            (["transform", "--calib", calib, "--source", "camera", "--target", "world",
              "--labels", str(inputs / "labels"), "--out", str(out / "world")], out / "world"),
            (["convert", "--input", manifest, "--output", str(out / "labels.txt"),
              "--from-format", "manifest_json", "--to-format", "kitti_ext"], out / "labels.txt"),
            (["convert", "--input", label, "--output", str(out / "labels.json"),
              "--from-format", "kitti_ext", "--to-format", "manifest_json"], out / "labels.json"),
            (["stats", "--manifest", manifest], None),
            (["split", "--manifest", manifest, "--fraction", "0.5", "--seed", "3", "--out", str(out / "split.json")],
             out / "split.json"),
        ]
        out.mkdir(parents=True)
        for argv, written in commands:
            context = f"case {case}, {mutations}: roadkit {argv[0]}"
            try:
                code, err = _run(argv)
            except Exception as exc:  # a traceback or a warning breaks the contract
                pytest.fail(f"{context} raised {type(exc).__name__}: {exc}")
            assert code in (0, 1, 2), f"{context} exited {code}"
            if code:
                assert len(err.splitlines()) == 1, f"{context} printed {err!r}"
                assert written is None or not written.exists(), f"{context} left {written.name} behind"
            outcomes.add((argv[0], code))
        shutil.rmtree(work)
    # The mutations reach both sides of every command that reads them.
    assert {("eval", 0), ("eval", 1), ("transform", 0), ("transform", 1), ("convert", 0), ("convert", 1)} <= outcomes


SYNTH_CASES = 600
# Edge values for synth's flags. A large but valid --fp-rate (about 1e4 up to
# numpy's Poisson limit near 9.2e18) or more than 60 objects a frame would
# only cost memory and time, so none is drawn.
SYNTH_VALUES = ("0", "1e-300", "0.5", "1e200", "1e308", "nan", "inf", "-1")
SYNTH_FLAGS = ("--drop-rate", "--fp-rate", "--center-sigma", "--dim-sigma", "--angle-sigma", "--max-range")


def _error_lines(err: str) -> list[str]:
    """stderr's lines after argparse's usage block, if it starts with one."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


def _read_back(out: Path) -> None:
    """The corpus synth wrote reads back: every frame's labels hold its
    manifest annotations, its detections carry scores, its calibration exists."""
    manifest = load_manifest((out / "manifest.json").read_text())
    assert len(manifest.frames) == 3
    for frame in manifest.frames:
        assert len(parse_labels((out / "labels" / f"{frame.frame_id}.txt").read_text())) == len(frame.annotations)
        detections = parse_labels((out / "detections" / f"{frame.frame_id}.txt").read_text())
        assert all(isinstance(d, DetectionRecord) for d in detections)
        assert (out / "calib" / f"{frame.calibration_ref}.json").is_file()


def test_synth_flags_contract(tmp_path):
    rng = random.Random(SEED + 1)
    outcomes = []
    for case in range(SYNTH_CASES):
        out = tmp_path / f"case{case:03d}"
        argv = ["synth", "--out", str(out), "--frames", "3", "--seed", str(rng.randrange(1000))]
        for flag in SYNTH_FLAGS:
            if rng.random() < 0.3:
                argv.append(f"{flag}={rng.choice(SYNTH_VALUES)}")
        if rng.random() < 0.3:
            argv.append(f"--objects={rng.choice(SYNTH_VALUES)},{rng.choice(SYNTH_VALUES)}")
        context = f"case {case}: roadkit {' '.join(argv[3:])}"
        try:
            code, err = _run(argv)
            if code == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _read_back(out)
        except Exception as exc:  # a traceback, a warning or a corpus that does not read back breaks the contract
            pytest.fail(f"{context} raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2), f"{context} exited {code}"
        if code:
            lines = _error_lines(err)
            assert len(lines) == 1 and "error:" in lines[0], f"{context} printed {err!r}"
            assert not out.exists(), f"{context} left --out behind"
        else:
            assert err == "", f"{context} printed {err!r}"
            shutil.rmtree(out)
        outcomes.append((code, any(huge in arg for arg in argv[6:] for huge in ("1e200", "1e308"))))
    # Both outcomes come up, and corpora with a huge value are written.
    assert outcomes.count((0, True)) >= 5 and outcomes.count((0, False)) >= 50
    assert {(1, False), (1, True)} <= set(outcomes)
