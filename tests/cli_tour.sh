#!/usr/bin/env bash
# A quick tour of every roadkit command, each run as its own process through
# `python -m roadkit.cli`: synth, stats, split, eval at two IoU thresholds,
# compare, convert both ways and transform. Any non-zero exit fails the tour,
# and so does `eval --pred` on a missing directory exiting other than 2.
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
calib=$(find "$corpus/calib" -name '*.json' | sort | head -n 1)
rk transform --calib "$calib" --source camera --target world --labels "$corpus/labels" --out "$work/world"

code=0
rk eval --gt "$corpus/manifest.json" --pred "$work/no-such-dir" || code=$?
if [ "$code" -ne 2 ]; then
    echo "eval --pred on a missing directory exited $code, not 2" >&2
    exit 1
fi
echo "cli tour passed" >&2
