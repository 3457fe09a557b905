"""One job of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --job NAME \
        --inputs DIR --trace 0|1 --spawned T --out RESULT.json

Imports fibcat from the checkout's `src/`, then runs the one job NAME
through `fibcat.cli.main(argv)`, on the input files that `run.py` wrote
to DIR, and writes one JSON result: the job's wall time, known-answer
verdict and report digest; set-up time (from `--spawned`, the parent's
`time.monotonic()` just before it started this process, to the timed
job, less the time of the speed reading); a speed reading
(`speed.reference_s`) taken before fibcat is imported, and when it
began; the job's start and end on the monotonic clock; and peak RSS.
One process runs one job, as one CLI invocation does, so no state
outlives a job.  With `--trace 1` the layers are wrapped before the job,
the result also holds the per-layer totals, and the spans go to
`spans/NAME.jsonl` next to the result (a header row of field names, then
one JSON array per span).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_job(cli, argv):
    """(exit status, stdout, error, seconds) of one CLI invocation; an
    exception or SystemExit is the job's failure, never the run's."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - counted as a failed job
        status = None
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if error is None and status != 0:
        error = f"exit status {status}: {err.getvalue()[-500:]}"
    return status, out.getvalue(), error, seconds


def check_report(job, stdout, error):
    """The job's failure message, or None when its answer is right."""
    if error is not None:
        return error
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    return job.check(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # the reading comes first, so that no fibcat code has run in the
    # process it is taken in
    referenced = time.monotonic()
    reference = speed.reference_s()
    reading_s = time.monotonic() - referenced

    sys.path.insert(0, SRC)
    import fibcat.cli as cli

    files, jobs = workloads.build(args.workload, args.seed)
    job = next(job for job in jobs if job.name == args.job)
    job_argv = workloads.resolve_argv(
        job.argv, workloads.input_paths(files, args.inputs))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_job(job.name)
    start = time.monotonic()
    setup_s = start - args.spawned - reading_s
    _, stdout, error, seconds = run_job(cli, job_argv)
    end = time.monotonic()
    if tracer:
        tracer.end_job()
        tracer.uninstall()

    result = {
        "name": job.name,
        "pid": os.getpid(),
        "seconds": seconds,
        "error": check_report(job, stdout, error),
        "digest": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "setup_s": setup_s,
        "reference": reference,
        "referenced": referenced,
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        spans = os.path.join(os.path.dirname(args.out), "spans")
        os.makedirs(spans, exist_ok=True)
        tracer.write_spans(os.path.join(spans, f"{job.name}.jsonl"))
        result["layers"] = tracer.layer_totals()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
