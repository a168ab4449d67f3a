"""One benchmark process: set up a workload's inputs, run its jobs, check them.

Started by run.py, one process per set-up or per measured run, with BLAS
threads pinned to 1. Writes a JSON result file and exits 0; exits 3 when the
inputs cannot be made.

* ``--setup-only``: import roadkit and make the inputs, then stop. set-up time
  runs from ``--t0``, the parent's ``time.monotonic()`` just before it started
  this process (CLOCK_MONOTONIC is system-wide, so the two clocks agree).
* ``--trace 0``: run whole rounds of jobs while the timed total stays within
  ``--seconds`` (always at least one round).
* ``--trace 1``: run one round untraced and the same round traced, and report
  the per-layer metrics of the traced round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, tree_digest  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# A run stops starting jobs after this much wall time, to end within 180 s.
WALL_LIMIT_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(cli, argv, stdout, stderr) -> int:
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        return cli.main(list(argv))


class Runner:
    """Runs and checks jobs, accumulating timings, failures and digests."""

    def __init__(self, cli, workload, seed: int, out: Path):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.pinned = None  # digests are pinned for the default seed only
        if seed == DEFAULT_SEED:
            self.pinned = json.loads(DIGESTS.read_text()).get(workload.name, {}) if DIGESTS.is_file() else {}
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_job(self, job, tracer=None) -> tuple[float, float]:
        """Run, check and delete one job; returns its (wall, CPU) seconds."""
        job_dir = self.out / job.name
        job_dir.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        if tracer is not None:
            tracer.active = True
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            for argv in job.commands:
                code = run_cli(self.cli, argv, stdout, stderr)
                if code != 0:
                    problems.append(f"`roadkit {argv[0]}` exited {code}: {stderr.getvalue().strip()}")
                    break
        except Exception as exc:  # a crashing command is a failed operation
            problems.append(f"`roadkit {argv[0]}` raised {exc!r}")
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        if tracer is not None:
            tracer.active = False
        if not problems:
            problems = self._check(job, job_dir, stdout.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.name}: {p}" for p in problems[:3])
        shutil.rmtree(job_dir)
        return seconds, cpu_seconds

    def _check(self, job, job_dir: Path, stdout: str) -> list[str]:
        try:
            problems = self.workload.check(job, job_dir, stdout)
        except Exception as exc:  # unreadable output is a failed check
            return [f"output check raised {exc!r}"]
        digest = tree_digest(job_dir, stdout)
        self.digests[job.name] = digest
        if self.pinned is not None and self.pinned.get(job.name) != digest:
            problems.append(f"sha256 {digest[:12]} differs from the pinned digest")
        return problems

    def run_round(self, jobs, deadline: float, tracer=None) -> list[tuple[str, float, float, int]]:
        """(name, wall s, CPU s, frames) of each job run before the deadline."""
        timings = []
        for job in jobs:
            if time.monotonic() > deadline:
                break
            timings.append((job.name, *self.run_job(job, tracer), job.frames))
        return timings


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="save the traced round's spans here (.npz)")
    args = parser.parse_args(argv)

    import roadkit.cli as cli

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    inputs, out = work / "inputs", work / "out"
    for command in workload.setup(args.seed, inputs):
        code = run_cli(cli, command, io.StringIO(), sys.stderr)
        if code != 0:
            print(f"set-up command {command[:2]} exited {code}", file=sys.stderr)
            return 3
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    result["env"] = environment()
    runner = Runner(cli, workload, args.seed, out)
    jobs = workload.jobs(args.seed, inputs, out)
    deadline = time.monotonic() + WALL_LIMIT_S
    timings = runner.run_round(jobs, deadline)
    if args.trace:
        from layers import layer_metrics
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_round(jobs, deadline, tracer)
        finally:
            tracer.uninstall()
        overhead = sum(t[1] for t in traced) / sum(t[1] for t in timings)
        result["per_layer"], result["functions"] = layer_metrics(tracer, overhead)
        if args.spans:
            tracer.save(args.spans)
        timings = traced
    else:
        round_s = sum(t[1] for t in timings)
        total_s = round_s
        while total_s + round_s <= args.seconds and time.monotonic() < deadline:
            more = runner.run_round(jobs, deadline)
            round_s = sum(t[1] for t in more)
            total_s += round_s
            timings += more
    result["env"]["loadavg_after"] = list(os.getloadavg())
    result.update(
        jobs=timings,
        round_jobs=len(jobs),
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        digests=runner.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
