"""Self-test of the benchmark: metric names, exact counters, pinned baseline.

    python3 bench/selftest.py                   # every check, seed 404
    python3 bench/selftest.py --workload label-io --seed 7
    python3 bench/selftest.py --pin             # rewrite digests.json

Run from the root of a roadkit checkout. Checks, in order:

1. BENCHMARK.json lists exactly the metrics that run.py prints.
2. Two traced runs of each workload on one seed report identical counters
   (calls, distinct and sorted IoU pairs, records and bytes parsed and
   written), and every job passes its output checks.
3. The tracer restates the reference baseline: a traced ``roadkit eval`` of
   ``roadkit synth --frames 60 --seed 404`` with the reference noise makes
   22,951 ``iou3d`` calls on 8,198 distinct pairs (2,614 clipped, 20,337
   AABB-rejected), 540 ``match_frame`` calls and 9,117 ``assign_difficulty``
   calls (9 per GT box).

``--pin`` runs each workload once on the default seed and stores the sha256
digest of every job's outputs in digests.json. Outputs are promised to be
byte-identical, so pin again only for a change that alters them on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import EXACT, layer_metrics, metric_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, noise_flags  # noqa: E402

END_TO_END = ("frames_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb")
BASELINE = {
    "geometry.iou3d.calls": 22951,
    "geometry.iou_distinct_pairs": 8198,
    "geometry.pairs_clipped": 2614,
    "geometry.pairs_aabb_rejected": 20337,
    "evaluation.match_frame.calls": 540,
    "datasets.assign_difficulty.calls": 9117,
}


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(metric_units().items()):
        problems.append("BENCHMARK.json per_layer differs from layers.metric_units()")
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def check_exact(workload: str, seed: int) -> list[str]:
    first, second = run(workload, seed, 1), run(workload, seed, 1)
    problems = [f"{workload}: traced run failed {r['failed']} of {r['attempted']} jobs"
                for r in (first, second) if not r["correct"]]
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
    print(f"{workload}: {len(EXACT)} counters compared on seed {seed}")
    return problems


def check_baseline() -> list[str]:
    import roadkit.cli as cli
    from tracer import Tracer

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet):
            code = cli.main(["synth", "--out", str(work), "--frames", "60", "--seed", "404",
                             *noise_flags(1.0)])
            if code != 0:
                return [f"baseline synth exited {code}"]
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            try:
                code = cli.main(["eval", "--gt", str(work / "manifest.json"),
                                 "--pred", str(work / "detections"), "--jobs", "2"])
            finally:
                tracer.uninstall()
        if code != 0:
            return [f"baseline eval exited {code}"]
        metrics, _ = layer_metrics(tracer, 1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, expected in BASELINE.items():
        print(f"baseline {name}: {metrics[name]} (expected {expected})")
    return [f"baseline {name}: {metrics[name]} != {expected}"
            for name, expected in BASELINE.items() if metrics[name] != expected]


def pin() -> None:
    digests = {}
    for workload in sorted(WORKLOADS):
        run(workload, DEFAULT_SEED, 0)
        tag = f"{workload}-{DEFAULT_SEED}-trace0"
        digests[workload] = json.loads((ROOT / ".bench_out" / f"{tag}.json").read_text())["digests"]
        print(f"{workload}: pinned {len(digests[workload])} job digests")
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json and stop")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    problems = check_names()
    for workload in args.workload or sorted(WORKLOADS):
        problems += check_exact(workload, args.seed)
    problems += check_baseline()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
