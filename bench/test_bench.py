"""Tests of the benchmark itself, on reduced job lists:

    python3 -m pytest bench/test_bench.py
"""

import copy
import json

import pytest

import run
import tracing
import workloads

PINNED = json.loads(run.EXPECTED.read_text())


def reduced_pass(name, work, traced=False, expected=None):
    cli = run.import_program()
    jobs = workloads.setup(name, 1, work, PINNED, reduced=True)
    tracer = tracing.Tracer() if traced else None
    return jobs, run.run_pass(cli, jobs, expected or PINNED["jobs"], tracer)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_reduced_run_matches_pinned_outputs(name, tmp_path):
    jobs, p = reduced_pass(name, tmp_path)
    report = workloads.evaluate(jobs, [p])
    assert report["attempted"] == len(jobs) > 0
    assert report["failed"] == 0, report["lines"]


@pytest.mark.parametrize("name, job_id, key, value", [
    ("solve", "s01-2x2k3", "hits", 61),
    ("solve", "s00-2x2k2", "map2", [1, 0]),
    ("verify", "neg-pinned-gamma", "security_witness", [[0, 1], [0, 2], [[0], [2]]]),
    ("blockcode", "B4", "errors", 0),
    ("catalog", "field-256", "entries", 543),
])
def test_checker_flags_a_wrong_expectation(name, job_id, key, value, tmp_path):
    wrong = copy.deepcopy(PINNED["jobs"])
    wrong[job_id][key] = value
    jobs, p = reduced_pass(name, tmp_path, expected=wrong)
    report = workloads.evaluate(jobs, [p])
    assert report["failed"] == 1
    assert any(line.startswith(f"MISMATCH pass 0: {job_id}: ") for line in report["lines"])


def test_two_runs_of_one_seed_give_identical_counts(tmp_path):
    totals = dict.fromkeys(tracing.DETERMINISTIC_COUNTS, 0)
    for name in sorted(workloads.SETUPS):
        runs = []
        for _ in range(2):
            jobs, p = reduced_pass(name, tmp_path / name, traced=True)
            m = tracing.layer_metrics(p["spans"], {j.id for j in jobs if j.negative})
            runs.append({k: m[k] for k in tracing.DETERMINISTIC_COUNTS})
        assert runs[0] == runs[1], name
        for k, v in runs[0].items():
            totals[k] += v
    # every count was exercised by some workload
    assert all(v > 0 for v in totals.values()), totals
