"""roadkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload eval-sweep --seed 404 --seconds 30 --trace 0

Run from the root of a roadkit checkout; roadkit is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced round. Lines before it print each metric with its unit and the
environment. Full results (and the traced round's spans) go to
``.bench_out/``; scratch inputs go to ``.bench_work/`` and are removed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}
# At least this many jobs lie beyond the reported tail percentile.
TAIL_JOBS = 10


def job_tail(seconds: list[float], round_jobs: int) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_JOBS jobs beyond
    it at the fixed job count of a round, taken by nearest rank over all jobs.
    """
    kept = round_jobs - TAIL_JOBS
    rank = max(1, -(-len(seconds) * kept // round_jobs))  # ceil in integers
    return 100.0 * kept / round_jobs, sorted(seconds)[rank - 1]


def start_worker(args, work: Path, result: Path, setup_only: bool, spans: Path | None):
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(command + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    if code != 0:
        raise SystemExit(f"{args.workload}: worker exited {code}")
    return json.loads(result.read_text())


def end_to_end(runs: list[dict], measured: dict) -> dict:
    timings = measured["jobs"]
    seconds = [t[1] for t in timings]
    frames = sum(t[3] for t in timings)
    percentile, tail = job_tail(seconds, measured["round_jobs"])
    return {
        "frames_per_s": (frames / sum(seconds), "1/s", f"{frames} frames in {sum(seconds):.3f} s of jobs"),
        "job_p50_s": (statistics.median(seconds), "s", f"median of {len(seconds)} jobs"),
        "job_tail_s": (tail, "s",
                       f"p{percentile:g} of {len(seconds)} jobs, {measured['round_jobs']} per round"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s",
                    f"median of {len(runs)} set-ups: " + ", ".join(f"{r['setup_s']:.3f}" for r in runs)),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB", "ru_maxrss of the measured process"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roadkit" / "__init__.py").is_file():
        print(f"bench: no roadkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(WORKLOADS))}")

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        runs = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                runs.append(start_worker(args, work / f"setup{i}", work / f"setup{i}.json", True, None))
                shutil.rmtree(work / f"setup{i}")
        spans = OUT / f"{tag}-spans.npz" if args.trace else None
        measured = start_worker(args, work / "run", work / "run.json", False, spans)
        runs.append(measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    env = dict(measured["env"], workload=args.workload, seed=args.seed)
    print(f"{args.workload}: seed {args.seed}, {measured['attempted']} jobs, {measured['failed']} failed")
    if args.trace:
        from layers import metric_units

        units = metric_units()
        metrics = {name: {"value": measured["per_layer"][name], "unit": unit} for name, unit in units.items()}
        for name, unit in units.items():
            print(f"  {name:40s} {measured['per_layer'][name]:>16.6g} {unit}")
    else:
        rows = end_to_end(runs, measured)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
        for name, (value, unit, note) in rows.items():
            print(f"  {name:14s} {value:12.6g} {unit:4s} ({note})")
    print(f"  fail_ratio     {measured['failed'] / measured['attempted']:.6g} "
          f"({measured['failed']}/{measured['attempted']})")
    for problem in measured["problems"]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    (OUT / f"{tag}.json").write_text(json.dumps(dict(measured, setups=[r["setup_s"] for r in runs],
                                                     metrics=metrics, env=env), indent=1))
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
