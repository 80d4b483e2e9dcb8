"""Benchmark of the confuse toolkit: one seeded workload per run.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the program is imported from its
`src/` directory.  A run sets up its inputs several times (the median is
`setup_s`), then runs passes over the workload's job list until `--seconds`
is used up, at least one pass.  Every job is a `confuse` command called
in-process, one after another, and its output is checked against the outputs
pinned in expected.json.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics: median pass wall and CPU time, peak RSS and set-up time.  With
`--trace 1` half of the time goes to untraced passes and half to passes with
spans around every public function of the program; the JSON then holds the
per-layer metrics and the tracing overhead.  Spans, per-job results and the
environment are written under bench/.work/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"

SETUP_ROUNDS = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "CONFUSE_MAX_CARRIER")

sys.path[:0] = [str(SRC), str(BENCH)]
import tracing  # noqa: E402
import workloads  # noqa: E402

# every module that holds a traced function; imported fresh in each set-up round
PROGRAM_MODULES = sorted({module for module, _ in tracing.TRACED} | {"confuse.cli", "confuse.gallery"})


def import_program():
    """Import the program from the checkout's src/, dropping any earlier
    import so that each set-up round pays for it again."""
    for name in [n for n in sys.modules if n == "confuse" or n.startswith("confuse.")]:
        del sys.modules[name]
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    cli = sys.modules["confuse.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"confuse was imported from {cli.__file__}, not from {SRC}")
    return cli


class SearchCapture:
    """Keeps the hit list that `confuse solve` searched, so the whole list
    can be checked, not only the first hit the command prints."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.search_expansions
        self.hits = None
        cli.search_expansions = self._search

    def _search(self, *args, **kwargs):
        self.hits = self.original(*args, **kwargs)
        return self.hits

    def remove(self):
        self.cli.search_expansions = self.original


def run_job(cli, job, capture, tracer) -> tuple[workloads.JobResult, float, float]:
    """Run one command; return its result and its wall and CPU seconds."""
    capture.hits = None
    out = io.StringIO()
    error = None
    code = None
    if tracer is not None:
        tracer.job = job.id
        span = tracer.open("job")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        except Exception:  # a crashing job is a failed job; the run goes on
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.close(span)
        tracer.job = None
    return workloads.JobResult(code, out.getvalue(), error, capture.hits), wall, cpu


def run_pass(cli, jobs, expected, tracer=None) -> dict:
    """One pass over the job list.  Wall and CPU time sum the commands only;
    each output is checked right after its command, outside the timing, and
    then dropped, so the outputs of earlier jobs do not add to peak RSS."""
    if tracer is not None:
        tracer.install()
    capture = SearchCapture(cli)
    wall = cpu = 0.0
    checks = []
    try:
        for job in jobs:
            result, job_wall, job_cpu = run_job(cli, job, capture, tracer)
            wall += job_wall
            cpu += job_cpu
            checks.append((result.code, workloads.check(job, result, expected)))
    finally:
        capture.remove()
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "cpu": cpu, "checks": checks,
            "spans": tracer.spans if tracer is not None else None}


def run_passes(cli, jobs, expected, budget: float, traced: bool) -> list[dict]:
    """Passes until the next one would overrun `budget` seconds (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, expected, tracing.Tracer() if traced else None))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(q["wall"] for q in passes) > budget:
            return passes


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": workloads.source_digest(SRC / "confuse"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(workloads.SETUPS), "all"],
                    help="one workload, or all of them one after another, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS stays per workload."""
    code = 0
    for name in sorted(workloads.SETUPS):
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    work = WORK / args.workload
    setup_times = []
    try:
        import numpy  # noqa: F401  the program's dependency, imported before timing starts

        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            cli = import_program()
            with open(EXPECTED) as fh:
                pinned = json.load(fh)
            jobs = workloads.setup(args.workload, args.seed, work, pinned)
            setup_times.append(time.perf_counter() - t0)
    except (ImportError, OSError) as e:
        print(f"error: cannot load the program or its pinned outputs: {e}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    if args.trace:
        untraced = run_passes(cli, jobs, pinned["jobs"], args.seconds / 2, traced=False)
        traced = run_passes(cli, jobs, pinned["jobs"], args.seconds / 2, traced=True)
        passes = untraced + traced
    else:
        passes = run_passes(cli, jobs, pinned["jobs"], args.seconds, traced=False)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = workloads.evaluate(jobs, passes)
    lines = [f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} jobs={len(jobs)} passes={len(passes)}",
             "env " + json.dumps(env, sort_keys=True)]
    lines += report["lines"]
    record = {"env": env, "setup_s": setup_times, "passes": [
        {"wall": p["wall"], "cpu": p["cpu"], "traced": p["spans"] is not None} for p in passes
    ], "jobs": report["per_job"]}

    if args.trace:
        negative = {j.id for j in jobs if j.negative}
        per_pass = [tracing.layer_metrics(p["spans"], negative) for p in traced]
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in untraced))
        slowest = tracing.slowest_find(traced[0]["spans"])
        shares = tracing.layer_shares(traced[0]["spans"])
        lines.append("slowest find_expansion " + json.dumps(slowest))
        lines.append("layer shares (self time / job time, first traced pass) " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.001))
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        record["spans"] = [p["spans"] for p in traced]
        record["layer_shares"] = shares
    else:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setup_times),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")

    record["metrics"] = metrics
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))
    lines.append(f"record written to {out_path.relative_to(ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
