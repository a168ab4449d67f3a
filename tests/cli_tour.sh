#!/usr/bin/env bash
# A quick tour of every roadkit command, each run as its own process through
# `python -m roadkit.cli`: synth, stats, split, eval at two IoU thresholds,
# compare, convert both ways and transform. Any non-zero exit fails the tour,
# and so does a round trip kitti_ext -> manifest_json -> kitti_ext through
# convert that changes a byte (cmp). So does `eval --pred` on a missing
# directory exiting other than 2, or `eval` and `transform` on a copy with one
# corrupted file exiting other than 1 with one stderr line naming that file,
# or that `transform` leaving its --out directory behind. So does `synth --center-sigma nan` exiting other
# than 1 with one stderr line naming center_sigma, or leaving its --out
# behind, and `eval` on a copy of the manifest listing "Car" twice in its
# taxonomy exiting other than 1 with one stderr line. Four overflows must
# each exit 1 with one stderr line (no numpy warning ahead of it) and leave
# no --out behind: `transform` of a label whose moved center overflows, whose
# line names that file, `synth --max-range 1e308`, `synth --fp-rate 1e30`, a
# rate beyond numpy's Poisson draw, and `synth --angle-sigma 1e308`, whose
# angle noise overflows. `synth --center-sigma 1e200`, whose offsets' norm
# overflows to a score of 0, must exit 0 with nothing on stderr.
#
# Usage, from any directory: bash tests/cli_tour.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

rk() {
    echo "+ roadkit $*" >&2
    python -m roadkit.cli "$@"
}

corpus="$work/corpus"
rk synth --out "$corpus" --frames 8 --seed 7 --objects 3,6 \
    --drop-rate 0.2 --fp-rate 1 --center-sigma 0.4 --dim-sigma 0.1 --angle-sigma 0.05
rk stats --manifest "$corpus/manifest.json"
rk split --manifest "$corpus/manifest.json" --fraction 0.5 --seed 1 --stratify --out "$work/split.json"
rk eval --gt "$corpus/manifest.json" --pred "$corpus/detections" --iou 0.7 --out-json "$work/strict.json"
rk eval --gt "$corpus/manifest.json" --pred "$corpus/detections" --iou 0.3 --out-json "$work/loose.json"
rk compare --baseline "$work/strict.json" --treatment "$work/loose.json"
rk convert --input "$corpus/manifest.json" --output "$work/labels.txt" \
    --from-format manifest_json --to-format kitti_ext
rk convert --input "$work/labels.txt" --output "$work/labels.json" \
    --from-format kitti_ext --to-format manifest_json
rk convert --input "$work/labels.json" --output "$work/labels-back.txt" \
    --from-format manifest_json --to-format kitti_ext
if ! cmp "$work/labels.txt" "$work/labels-back.txt"; then
    echo "kitti_ext -> manifest_json -> kitti_ext changed the bytes" >&2
    exit 1
fi
calib=$(find "$corpus/calib" -name '*.json' | sort | head -n 1)
rk transform --calib "$calib" --source camera --target world --labels "$corpus/labels" --out "$work/world"

code=0
rk eval --gt "$corpus/manifest.json" --pred "$work/no-such-dir" || code=$?
if [ "$code" -ne 2 ]; then
    echo "eval --pred on a missing directory exited $code, not 2" >&2
    exit 1
fi
# A command that must exit 1 with one stderr line holding "error: <needle>".
expect_fault() {
    local needle=$1 code=0
    shift
    echo "+ roadkit $*" >&2
    python -m roadkit.cli "$@" 2>"$work/err" >/dev/null || code=$?
    if [ "$code" -ne 1 ] || [ "$(wc -l <"$work/err")" -ne 1 ] || ! grep -qF "error: $needle" "$work/err"; then
        echo "roadkit $1 exited $code, not 1 with one stderr line holding 'error: $needle':" >&2
        cat "$work/err" >&2
        exit 1
    fi
}
# A command's --out must not exist after it failed.
expect_no_out() {
    if [ -e "$1" ]; then
        echo "a failed roadkit command left $1 behind" >&2
        exit 1
    fi
}
# One corrupted file in a copy of each directory: a score out of range in a
# detection file, a fractional occlusion in a label file.
cp -r "$corpus/detections" "$work/bad-detections"
cp -r "$corpus/labels" "$work/bad-labels"
det=$(ls "$work/bad-detections" | sort | head -n 2 | tail -n 1)
lab=$(ls "$work/bad-labels" | sort | head -n 2 | tail -n 1)
sed -i '1s/ [^ ]*$/ 1.5/' "$work/bad-detections/$det"
sed -i '1s/^\([^ ]* [^ ]*\) [^ ]* /\1 1.5 /' "$work/bad-labels/$lab"
expect_fault "$det: " eval --gt "$corpus/manifest.json" --pred "$work/bad-detections"
expect_fault "$lab: " transform --calib "$calib" --source camera --target world \
    --labels "$work/bad-labels" --out "$work/bad-world"
expect_no_out "$work/bad-world"
expect_fault center_sigma synth --out "$work/bad-synth" --frames 2 --seed 7 --center-sigma nan
expect_no_out "$work/bad-synth"
cp -r "$corpus/labels" "$work/far-labels"
far=$(ls "$work/far-labels" | sort | head -n 2 | tail -n 1)
echo "Car 0 0 0 -1 -1 -1 -1 1.5 1.8 4.2 -1.7e308 1.7e308 1.7e308 0.1" >"$work/far-labels/$far"
expect_fault "$far: box center must be 3 finite values" transform --calib "$calib" --source camera \
    --target world --labels "$work/far-labels" --out "$work/far-world"
expect_no_out "$work/far-world"
expect_fault "could not place object 1 of" synth --out "$work/far-synth" --frames 2 --max-range 1e308
expect_no_out "$work/far-synth"
expect_fault "fp_rate 1e+30" synth --out "$work/many-synth" --frames 2 --fp-rate 1e30
expect_no_out "$work/many-synth"
expect_fault "angle must be finite" synth --out "$work/spun-synth" --frames 2 --angle-sigma 1e308
expect_no_out "$work/spun-synth"
echo "+ roadkit synth --center-sigma 1e200" >&2
python -m roadkit.cli synth --out "$work/far-noise-synth" --frames 2 --seed 7 --center-sigma 1e200 2>"$work/err"
if [ -s "$work/err" ]; then
    echo "roadkit synth --center-sigma 1e200 printed to stderr:" >&2
    cat "$work/err" >&2
    exit 1
fi
python - "$corpus/manifest.json" "$work/repeated.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["class_taxonomy"].append("Car")
json.dump(doc, open(sys.argv[2], "w"))
PY
expect_fault "duplicate class 'Car' in the taxonomy" eval --gt "$work/repeated.json" --pred "$corpus/detections"
echo "cli tour passed" >&2
