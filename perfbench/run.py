"""The fibcat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are written and checked
against their pins once, here.  Each pass then runs every job of the
workload once, each job in a fresh interpreter (`worker.py`), as a CLI
user would; passes repeat, one at a time, until S seconds have gone (at
least MIN_PASSES), while the sampler (`speed.py`) records the machine's
speed.  A job fails on a nonzero exit, an exception, a wrong known
answer, or report bytes that differ from that job's first report in this
run.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
passes alternate untraced and traced, and the metrics are the per-layer
medians over the traced passes plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# fibcat is imported from this checkout only to build the collages and the
# randgen sample of the inputs, never to run a job
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
JOB_TIMEOUT_S = 60
# Times are scaled to a machine that runs speed.reference_s in this many
# seconds (see README.md, "Machine speed").
REFERENCE_NOMINAL_S = 0.0006
# The sampler takes a speed reading this often while the passes run.
SAMPLE_PERIOD_S = 0.02
# One reading of a worker counts as much as this many of the sampler's,
# 0.6 s of sampling: jobs much shorter than that are scaled by the worker
# readings that bracket them, long ones mostly by the sampler's.
BRACKET_WEIGHT = 30

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.untraced_jobs_per_s", "1/s"),
                 ("trace.traced_jobs_per_s", "1/s"),
                 ("trace.overhead", "ratio"))


class BenchmarkError(RuntimeError):
    pass


def run_job(workload, seed, name, traced, work):
    """Run one job in a fresh worker process and return its result."""
    out = os.path.join(work, "job.json")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed), "--job", name,
         "--inputs", os.path.join(work, "inputs"),
         "--trace", str(int(traced)), "--spawned", repr(spawned),
         "--out", out],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {name} exited with "
                             f"{proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, seed, traced, names, work):
    """Every job of `names` once, each in its own process, in order."""
    return {"traced": traced,
            "jobs": [run_job(workload, seed, name, traced, work)
                     for name in names]}


def prepare_inputs(workload, seed, work):
    """Write the workload's inputs under `work` and check them against
    their pins; return the names of the jobs in their order.

    Runs in this process, once per run, so that no worker builds its own
    inputs: a collage built through fibcat in the job's process would
    warm any cache the job then uses.
    """
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    files, jobs = workloads.build(workload, seed)
    workloads.write_inputs(files, os.path.join(work, "inputs"),
                           pins["inputs"])
    if workload == "suite":
        canary = workloads.digest(workloads.randgen_canary())
        if canary != pins["randgen_canary"]:
            raise workloads.PinMismatch(
                f"randgen sample digest {canary} differs from its pin")
    return [job.name for job in jobs]


class Sampler:
    """The sampler process (`speed.py`) for the length of a `with` block;
    `readings` holds its (time, seconds) pairs once the block has ended."""

    def __init__(self, work):
        self.out = os.path.join(work, "speed.json")
        self.readings = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"), self.out,
             repr(SAMPLE_PERIOD_S)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, exc_type, *_):
        self.proc.terminate()
        try:
            status = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            status = self.proc.wait()
        if exc_type is None:
            if status != 0:
                raise BenchmarkError(f"sampler exited with {status}")
            with open(self.out, encoding="utf-8") as fh:
                self.readings = [tuple(r) for r in json.load(fh)]


def scale_jobs(passes, readings):
    """Give every job the factor that takes its times to the nominal
    machine: the nominal reference time over the weighted mean of the
    speed readings over the job.

    Those are the job's own worker reading and the next job's, which
    bracket it, each of weight BRACKET_WEIGHT (the last job has only its
    own), and the sampler's `readings` taken while the job ran.  The
    sampler's readings are put on the scale of the workers' by the median
    ratio between a worker's reading and the sampler's two around it.
    """
    jobs = [job for result in passes for job in result["jobs"]]
    times = [t for t, _ in readings]

    def between(a, b):
        return [r for _, r in readings[bisect.bisect_left(times, a):
                                       bisect.bisect_right(times, b)]]

    ratios = []
    for job in jobs:
        i = bisect.bisect_left(times, job["referenced"])
        around = [r for _, r in readings[max(i - 1, 0):i + 1]]
        if around:
            ratios.append(job["reference"] * len(around) / sum(around))
    calibration = statistics.median(ratios) if ratios else 1.0
    for i, job in enumerate(jobs):
        bracket = [other["reference"] for other in jobs[i:i + 2]]
        during = between(job["start"], job["end"])
        job["scale"] = REFERENCE_NOMINAL_S * (
            (BRACKET_WEIGHT * len(bracket) + len(during))
            / (BRACKET_WEIGHT * sum(bracket) + calibration * sum(during)))
    return calibration


def job_seconds(passes):
    """Each job's median scaled wall time over the passes."""
    samples = {}
    for result in passes:
        for job in result["jobs"]:
            samples.setdefault(job["name"], []).append(
                job["seconds"] * job["scale"])
    return {name: statistics.median(v) for name, v in samples.items()}


def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median: the sorted values, each
    weighted by the mass of a Beta((n+1)/2, (n+1)/2) distribution on its
    n-th of [0, 1], integrated by the midpoint rule.

    The job times around the middle one are 10% to 20% apart, so the
    middle value alone jumps with the noise of one job; weighing in its
    neighbours averages that noise out (see README.md, `job_p50_ms`).
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    steps = 64

    def density(x):  # up to a constant factor; 1 at x = 1/2
        return math.exp((a - 1) * math.log(4 * x * (1 - x)))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def jobs_per_s(passes):
    """Jobs with a verified answer per second: the share of jobs verified
    times the jobs of one pass over the sum of their median times."""
    jobs = [job for result in passes for job in result["jobs"]]
    verified = sum(1 for job in jobs if job["error"] is None) / len(jobs)
    seconds = job_seconds(passes)
    return verified * len(seconds) / sum(seconds.values())


def layer_totals(result):
    """The layer totals of a traced pass, times scaled as job times are."""
    return tracing.scaled_sum((job["layers"], job["scale"])
                              for job in result["jobs"])


def mark_nondeterminism(passes):
    """Fail every job whose report differs from its first report."""
    first = {}
    for result in passes:
        for job in result["jobs"]:
            want = first.setdefault(job["name"], job["digest"])
            if job["digest"] != want and job["error"] is None:
                job["error"] = "report bytes differ from the first report"


def summarize(passes, readings, trace):
    mark_nondeterminism(passes)
    calibration = scale_jobs(passes, readings)
    jobs = [job for result in passes for job in result["jobs"]]
    failed = [job for job in jobs if job["error"] is not None]
    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    rate = jobs_per_s(plain)
    if trace:
        metrics = tracing.per_layer_metrics([layer_totals(r) for r in traced])
        traced_rate = jobs_per_s(traced)
        values = (rate, traced_rate, rate / traced_rate - 1)
        units = TRACE_METRICS
    else:
        metrics = {}
        plain_jobs = [job for result in plain for job in result["jobs"]]
        values = (
            rate,
            harrell_davis_median(job_seconds(plain).values()) * 1000,
            statistics.median(job["setup_s"] * REFERENCE_NOMINAL_S
                              / job["reference"] for job in plain_jobs),
            statistics.median(max(job["peak_rss_mb"] for job in r["jobs"])
                              for r in plain))
        units = END_TO_END
    for (name, unit), value in zip(units, values):
        metrics[name] = {"value": value, "unit": unit}
    for job in failed[:10]:
        sys.stderr.write(f"FAILED {job['name']}: {job['error']}\n")
    reference = statistics.median(job["reference"] for job in jobs)
    sys.stderr.write(
        f"{len(passes)} passes ({len(traced)} traced) of "
        f"{len(plain[0]['jobs'])} jobs, each in its own process; "
        f"{len(jobs)} jobs run, {len(failed)} failed. job_p50_ms is the "
        f"Harrell-Davis median over {len(plain[0]['jobs'])} jobs of each job's median "
        f"over {len(plain)} untraced passes. Median worker reading "
        f"{reference * 1e3:.3f} ms, nominal {REFERENCE_NOMINAL_S * 1e3} ms; "
        f"{len(readings)} sampler readings, calibration "
        f"{calibration:.3f}\n")
    return {"correct": not failed, "attempted": len(jobs),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="The fibcat benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fibcat", "cli.py")):
        sys.stderr.write(f"no fibcat sources under {ROOT}/src\n")
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    passes = []
    try:
        names = prepare_inputs(args.workload, args.seed, WORK)
        start = time.monotonic()
        with Sampler(WORK) as sampler:
            while (len(passes) < MIN_PASSES
                   or time.monotonic() - start < args.seconds):
                traced = bool(args.trace) and len(passes) % 2 == 1
                passes.append(run_pass(args.workload, args.seed, traced,
                                       names, WORK))
    except (BenchmarkError, workloads.PinMismatch,
            subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(summarize(passes, sampler.readings, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
