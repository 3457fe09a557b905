"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the known-answer checker catches wrong answers, that a
traced job writes the same report bytes as an untraced one, that jobs
reading the same input run in separate processes, that times are scaled
by the speed readings over them, that inputs are a function of the seed
and match their pins, and that BENCHMARK.json names exactly the metrics
the benchmark prints.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from fibcat import cli, homology  # noqa: E402

# one small job of each kind, so the suite stays fast
SMALL_JOBS = {
    "classify-arrows": ("classify.ev_t_Ar4", "replace.lfib.ev_t_Ar4",
                        "final-cert2.ev_t_Ar3"),
    "homology-nerves": ("homology.Z4.d3", "homology.torus.d3"),
    "compose-bimodules": ("compose.prof.I4", "compose.corr.Z4",
                          "compose.bifib.Z4"),
    "suite": None,  # the first job, whatever the seed makes it
}


def _pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_jobs(tmp_path, seed=1):
    pins = _pins()["inputs"]
    out = []
    for workload, names in SMALL_JOBS.items():
        files, jobs = workloads.build(workload, seed)
        paths = workloads.write_inputs(files, str(tmp_path / workload), pins)
        chosen = jobs[:1] if names is None else \
            [job for job in jobs if job.name in names]
        out += [(job, workloads.resolve_argv(job.argv, paths))
                for job in chosen]
    return out


def _report(job, argv):
    status, stdout, error, _ = worker.run_job(cli, argv)
    assert worker.check_report(job, stdout, error) is None
    return stdout


def test_small_jobs_pass_their_known_answers(tmp_path):
    jobs = _small_jobs(tmp_path)
    assert len(jobs) == 9
    for job, argv in jobs:
        _report(job, argv)


def test_checker_counts_a_flipped_verdict_as_failed(tmp_path):
    job, argv = next(j for j in _small_jobs(tmp_path)
                     if j[0].name == "classify.ev_t_Ar4")
    report = json.loads(_report(job, argv))
    report["verdicts"]["cartesian"] = False
    assert "cartesian" in worker.check_report(job, json.dumps(report), None)


def test_checker_counts_wrong_torsion_as_failed(tmp_path):
    job, argv = next(j for j in _small_jobs(tmp_path)
                     if j[0].name == "homology.Z4.d3")
    report = json.loads(_report(job, argv))
    assert report["torsion"] == [[], [4], [], [4]]
    report["torsion"][3] = [2]
    assert "torsion" in worker.check_report(job, json.dumps(report), None)


def test_checker_counts_a_wrong_composite_as_failed(tmp_path):
    job, argv = next(j for j in _small_jobs(tmp_path)
                     if j[0].name == "compose.prof.I4")
    report = json.loads(_report(job, argv))
    report["composite"]["elements"]["a.0"]["c.4"] = []
    assert "element counts" in worker.check_report(
        job, json.dumps(report), None)


def test_unmapped_exception_fails_the_job_not_the_pass(tmp_path, monkeypatch):
    job, argv = next(j for j in _small_jobs(tmp_path)
                     if j[0].name == "homology.Z4.d3")
    monkeypatch.setattr(homology, "_MATRIX_CAP", 1)
    status, stdout, error, _ = worker.run_job(cli, argv)
    assert status is None and "MatrixCapExceeded" in error
    assert worker.check_report(job, stdout, error) == error


def _job(name, digest, error=None, reference=None):
    return {"name": name, "seconds": 0.5, "error": error, "digest": digest,
            "setup_s": 0.2, "peak_rss_mb": 30.0,
            "reference": reference or run.REFERENCE_NOMINAL_S,
            "referenced": 0.0, "start": 0.0, "end": 0.0}


def test_summary_counts_failures_and_nondeterminism():
    passes = [{"traced": False, "jobs": jobs} for jobs in (
        [_job("a", "x"), _job("b", "y")],
        [_job("a", "x"), _job("b", "z")],
        [_job("a", "x", error="wrong answer"), _job("b", "y")])]
    summary = run.summarize(passes, [], trace=0)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == \
        (False, 6, 2)
    # 4 of 6 verified; one pass is two jobs of 0.5 s at nominal speed
    assert summary["metrics"]["jobs_per_s"]["value"] == pytest.approx(4 / 3)
    assert summary["metrics"]["job_p50_ms"]["value"] == pytest.approx(500)
    assert summary["metrics"]["setup_s"]["value"] == pytest.approx(0.2)


def test_harrell_davis_median():
    assert run.harrell_davis_median([0.3]) == 0.3
    assert run.harrell_davis_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    # the largest of three values weighs 1 - I_{2/3}(2, 2) = 7/27
    assert run.harrell_davis_median([0.0, 1.0, 0.0]) == \
        pytest.approx(7 / 27, rel=1e-5)


def test_times_are_scaled_by_the_readings_that_bracket_them():
    nominal = run.REFERENCE_NOMINAL_S
    # the machine runs at half speed for the second job and after it
    jobs = [_job("a", "x"), _job("b", "y", reference=2 * nominal),
            _job("c", "z", reference=2 * nominal)]
    for job in jobs:
        job["layers"] = {"core.pullback": {"calls": 2, "self_s": 0.3,
                                           "total_s": 0.4}}
    passes = [{"traced": True, "jobs": jobs}]
    run.scale_jobs(passes, [])
    assert [job["scale"] for job in jobs] == \
        pytest.approx([2 / 3, 0.5, 0.5])
    totals = run.layer_totals(passes[0])["core.pullback"]
    assert totals["calls"] == 6
    assert totals["self_s"] == pytest.approx(0.3 * (2 / 3 + 0.5 + 0.5))
    assert totals["total_s"] == pytest.approx(0.4 * (2 / 3 + 0.5 + 0.5))


def test_long_jobs_are_scaled_by_the_sampler_readings_during_them():
    n = run.REFERENCE_NOMINAL_S
    a, b = _job("a", "x"), _job("b", "y")
    a.update(referenced=0.0, start=0.1, end=10.0)
    b.update(referenced=10.2, start=10.3, end=10.4)
    # the sampler reads 0.9 of what a worker reads, and during job a the
    # machine runs at a third of its speed
    readings = [(-0.01, 0.9 * n), (0.01, 0.9 * n),
                (10.19, 0.9 * n), (10.21, 0.9 * n)]
    readings += [(0.2 + 0.1 * i, 2.7 * n) for i in range(90)]
    run.scale_jobs([{"traced": False, "jobs": [a, b]}], sorted(readings))
    weight = run.BRACKET_WEIGHT
    assert a["scale"] == pytest.approx(
        (2 * weight + 90) / (2 * weight + 90 * 3))
    assert b["scale"] == pytest.approx(1.0)


def test_jobs_that_share_an_input_run_in_separate_processes(tmp_path):
    names = run.prepare_inputs("classify-arrows", 1, str(tmp_path))
    sharing = ["classify.ev_t_Ar4", "replace.lfib.ev_t_Ar4",
               "replace.rfib.ev_t_Ar4"]
    assert set(sharing) <= set(names)
    result = run.run_pass("classify-arrows", 1, False, sharing,
                          str(tmp_path))
    assert [job["name"] for job in result["jobs"]] == sharing
    assert all(job["error"] is None for job in result["jobs"])
    pids = {job["pid"] for job in result["jobs"]}
    assert len(pids) == len(sharing) and os.getpid() not in pids


def test_traced_reports_are_byte_identical(tmp_path):
    jobs = _small_jobs(tmp_path)
    plain = [_report(job, argv) for job, argv in jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for job, argv in jobs:
            tracer.begin_job(job.name)
            traced.append(_report(job, argv))
            tracer.end_job()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert cli.main.__name__ == "main" and not hasattr(cli.main,
                                                       "__wrapped__")

    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == len(jobs)
    assert totals["homology.smith_normal_form"]["rank"] > 0
    assert totals["core.validate_category"]["triples"] > 0
    assert totals["correspondences.coend_pairs"]["classes"] > 0
    # spans on the suite's pool threads hang off their job's span
    jobs_by_span = {s[0]: s[5] for s in tracer.spans if s[1] == "job"}
    main_thread = next(s[6] for s in tracer.spans if s[1] == "job")
    pool = [s for s in tracer.spans
            if s[6] != main_thread and s[4] in jobs_by_span]
    assert pool and all(jobs_by_span[s[4]] == s[5] for s in pool)
    assert all(s[5].startswith("suite.") for s in pool)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        files1, jobs1 = workloads.build(workload, 7)
        files2, jobs2 = workloads.build(workload, 7)
        assert [(j.name, j.argv) for j in jobs1] == \
            [(j.name, j.argv) for j in jobs2]
        pins = _pins()["inputs"]
        p1 = workloads.write_inputs(files1, str(tmp_path / "one"), pins)
        p2 = workloads.write_inputs(files2, str(tmp_path / "two"), pins)
        for key in p1:
            with open(p1[key], "rb") as a, open(p2[key], "rb") as b:
                assert a.read() == b.read()
    # another seed runs the same jobs in another order
    names7 = [job.name for job in workloads.build("suite", 7)[1]]
    names8 = [job.name for job in workloads.build("suite", 8)[1]]
    assert names7 != names8 and sorted(names7) == sorted(names8)


def test_randgen_canary_matches_its_pin():
    assert workloads.digest(workloads.randgen_canary()) == \
        _pins()["randgen_canary"]


def test_a_changed_input_fails_its_pin(tmp_path):
    files, _ = workloads.build("homology-nerves", 0)
    pins = dict(_pins()["inputs"], Z4="0" * 64)
    with pytest.raises(workloads.PinMismatch, match="Z4"):
        workloads.write_inputs(files, str(tmp_path), pins)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    layer = [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    layer += [(name, unit) for name, unit in run.TRACE_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
