"""The four workloads: job lists made from a seed, and what is pinned per job.

Every job is one `confuse` command line, run in-process through
`confuse.cli.main`.  `setup` writes the job's input files into a work
directory; the program sees only those files.  Each job carries `observe`,
which reduces the job's output to the fields pinned in expected.json, so the
same function both pins the seed commit's outputs and checks later runs.

How the seed enters each workload:
- solve: the tables are a fixed seeded draw, pinned with their outputs,
  because search cost differs tenfold between tables of one shape and a fresh
  draw per seed would make wall time spread past any bound.  The seed applies
  a random permutation of each table's output labels (the search explores the
  same nodes and finds the same maps, with out_map relabeled) and orders jobs.
- verify: the row-mask baselines are drawn fresh from the seed in fixed
  (shape, label count) strata, with seeded input distributions; their
  verdicts do not depend on the draw.  crt-equal, the bundled schemes and the
  negative controls are fixed.  The seed orders jobs.
- blockcode, catalog: the jobs are fixed command lines; the seed orders them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

MAX_CARRIER = "16"  # passed explicitly, so CONFUSE_MAX_CARRIER cannot change a job
BLOCK_ERROR_BOUND = 0.10  # stated per blockcode job before it runs

# verify: (m1, m2, labels) strata of the seeded row-mask baselines
BASELINE_STRATA = [(3, 3, 3), (3, 4, 2), (4, 3, 2), (4, 4, 3)]
# verify: fixed 4x4 table whose baseline gets one decoder row flipped
NEGATIVE_TABLE = [[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2], [0, 0, 1, 2]]

# jobs kept by a reduced run (the benchmark's own test)
REDUCED = {
    "solve": {"s00-2x2k2", "s01-2x2k3"},
    "verify": {"crt-5", "bundled-threshold", "bundled-reveal", "neg-flipped-dec",
               "neg-pinned-gamma", "baseline-3x3k3-uniform", "baseline-3x3k3-skewed"},
    "blockcode": {"B3", "B4"},
    "catalog": {"field-256"},
}


@dataclass
class JobResult:
    code: object  # int exit code, or None when the job raised
    stdout: str
    error: str | None = None  # traceback of an exception
    hits: list | None = None  # search_expansions' return value, solve only


@dataclass
class Job:
    id: str
    argv: list[str]
    observe: Callable[[JobResult], dict]
    negative: bool = False
    bound: float | None = None  # blockcode: largest allowed error rate


@dataclass
class Check:
    mismatches: list[str] = field(default_factory=list)
    over_bound: bool = False
    errors: int = 0
    trials: int = 0


def check(job: Job, result: JobResult, expected: dict) -> Check:
    """Compare one job's output with its pinned expectation."""
    out = Check()
    if result.error is not None:
        out.mismatches.append(f"{job.id}: raised\n{result.error}")
        return out
    try:
        got = job.observe(result)
    except (KeyError, TypeError, ValueError) as e:
        out.mismatches.append(f"{job.id}: output not readable ({e!r}), exit {result.code}")
        return out
    want = expected.get(job.id)
    if want is None:
        out.mismatches.append(f"{job.id}: no pinned expectation")
        return out
    for key in sorted(set(want) | set(got)):
        if key == "errors":
            continue
        if want.get(key) != got.get(key):
            out.mismatches.append(f"{job.id}: {key} expected {want.get(key)!r} got {got.get(key)!r}")
    if job.bound is not None and "errors" in got:
        out.errors, out.trials = got["errors"], got["trials"]
        allowed = job.bound * out.trials
        out.over_bound = out.errors > allowed
        # fewer errors than the seed commit is fine; more than both the seed
        # commit and the bound is a regression
        if out.errors > max(want["errors"], allowed):
            out.mismatches.append(
                f"{job.id}: errors {out.errors}/{out.trials} exceed both the pinned "
                f"{want['errors']} and the bound {job.bound}"
            )
    return out


def evaluate(jobs: list[Job], passes: list[dict]) -> dict:
    """Count attempts, failures and blockcode jobs over their error bound
    over every checked job run of every pass."""
    attempted = failed = over_bound = errors = trials = 0
    lines, per_job = [], []
    for n, p in enumerate(passes):
        for job, (code, c) in zip(jobs, p["checks"]):
            attempted += 1
            failed += bool(c.mismatches)
            lines += [f"MISMATCH pass {n}: {m}" for m in c.mismatches]
            per_job.append({"pass": n, "job": job.id, "exit": code,
                            "mismatches": c.mismatches, "over_bound": c.over_bound})
            if job.bound is not None:
                over_bound += c.over_bound
                errors += c.errors
                trials += c.trials
                if n == 0:
                    verdict = "OVER BOUND" if c.over_bound else "within bound"
                    lines.append(f"{job.id}: {c.errors}/{c.trials} block errors, "
                                 f"bound {job.bound} stated up front: {verdict}")
    lines.append(f"fail_frac {(failed + over_bound) / attempted:.6g} ratio "
                 f"({failed} of {attempted} job runs differ from the pinned outputs, "
                 f"{over_bound} exceed their error bound)")
    if trials:
        lines.append(f"block_error_rate {errors / trials:.6g} ratio ({errors} errors in {trials} trials)")
    return {"attempted": attempted, "failed": failed, "over_bound": over_bound,
            "lines": lines, "per_job": per_job}


def source_digest(package: Path) -> str:
    """sha256 over the program's source files, to identify the code measured
    where no git metadata is at hand."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(package)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _report_fields(report: dict) -> dict:
    keys = ("correct", "correctness_witness", "secure", "security_witness", "leakage_exact_zero")
    return {k: report[k] for k in keys}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def hit_list_digest(hits, inverse: dict) -> str:
    """Digest of the whole hit list: structure key, maps and out_map of every
    hit, with out_map labels mapped back through `inverse`."""
    rows = [
        [st.key(), list(exp.map1), list(exp.map2),
         sorted((k, inverse[v]) for k, v in exp.out_map.items())]
        for st, exp in hits
    ]
    return _digest(rows)


def _observe_solve(inverse: dict):
    def observe(r: JobResult) -> dict:
        out = {"exit": r.code}
        if r.hits is not None:
            out["hits"] = len(r.hits)
            out["hit_digest"] = hit_list_digest(r.hits, inverse)
            out["first_key"] = r.hits[0][0].key() if r.hits else None
        if r.code == 0:
            p = json.loads(r.stdout)
            exp = p["expansion"]
            out["hits_reported"] = p["hits_within_bound"]
            out["map1"], out["map2"] = exp["map1"], exp["map2"]
            out["out_map"] = {k: inverse[v] for k, v in exp["out_map"].items()}
            out["verification"] = _report_fields(p["verification"])
        return out

    return observe


def setup_solve(rng: random.Random, work: Path, pinned: dict) -> list[Job]:
    jobs = []
    for t in pinned["solve_tables"]:
        k = 1 + max(v for row in t["outputs"] for v in row)
        sigma = list(range(k))
        rng.shuffle(sigma)
        rows = [[sigma[v] for v in row] for row in t["outputs"]]
        path = _write(work / f"{t['id']}.json", {"m1": len(rows), "m2": len(rows[0]), "outputs": rows})
        inverse = {s: v for v, s in enumerate(sigma)}
        argv = ["solve", "--table", path, "--max-carrier", MAX_CARRIER, "--json"]
        jobs.append(Job(t["id"], argv, _observe_solve(inverse)))
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _observe_report(r: JobResult) -> dict:
    return {"exit": r.code, **_report_fields(json.loads(r.stdout)["report"])}


def _observe_crt(r: JobResult) -> dict:
    p = json.loads(r.stdout)
    return {"exit": r.code, "atoms": p["atoms"], **_report_fields(p["check"])}


def random_table(rng: random.Random, m1: int, m2: int, k: int) -> list[list[int]]:
    """Uniform m1 x m2 table over labels 0..k-1 with every label used."""
    while True:
        rows = [[rng.randrange(k) for _ in range(m2)] for _ in range(m1)]
        if {v for row in rows for v in row} == set(range(k)):
            return rows


def _random_dist(rng: random.Random, m1: int, m2: int) -> dict:
    weights = [[rng.randint(1, 9) for _ in range(m2)] for _ in range(m1)]
    total = sum(map(sum, weights))
    return {"probs": [[str(Fraction(w, total)) for w in row] for row in weights]}


def setup_verify(rng: random.Random, work: Path, pinned: dict) -> list[Job]:
    from importlib import resources

    from confuse.expansion import FunctionTable
    from confuse.gallery import GALLERY
    from confuse.schemes import row_mask_baseline, scheme_from_expansion, serialize_scheme

    jobs = []
    for m in (5, 6, 7):
        jobs.append(Job(f"crt-{m}", ["crt-equal", "--m", str(m), "--check", "--json"], _observe_crt))

    def verify_job(job_id, scheme, table, dist=None, negative=False):
        argv = ["verify", "--scheme", scheme, "--table", table, "--json"]
        if dist is not None:
            argv += ["--input-dist", dist]
        jobs.append(Job(job_id, argv, _observe_report, negative=negative))

    for m1, m2, k in BASELINE_STRATA:
        rows = random_table(rng, m1, m2, k)
        f = FunctionTable.from_rows(rows)
        name = f"baseline-{m1}x{m2}k{k}"
        table = _write(work / f"{name}.table.json", f.to_json())
        scheme = _write(work / f"{name}.scheme.json", serialize_scheme(row_mask_baseline(f)))
        verify_job(f"{name}-uniform", scheme, table)
        dist = _write(work / f"{name}.dist.json", _random_dist(rng, m1, m2))
        verify_job(f"{name}-skewed", scheme, table, dist)

    data = resources.files("confuse.data")
    for name, gallery_name, file_name in (
        ("threshold", "threshold_2x3", "baseline_threshold_2x3.json"),
        ("reveal", "row_reveal_2x3", "bespoke_row_reveal_2x3.json"),
    ):
        table = _write(work / f"bundled-{name}.table.json", GALLERY[gallery_name].table.to_json())
        verify_job(f"bundled-{name}", str(data / file_name), table)

    # negative controls: each must fail with its pinned witness
    f = FunctionTable.from_rows(NEGATIVE_TABLE)
    broken = serialize_scheme(row_mask_baseline(f))
    x1, x2 = broken["enc1"][0][0], broken["enc2"][0][0]
    row = next(r for r in broken["dec"] if r["x1"] == x1 and r["x2"] == x2)
    row["f"] = (row["f"] + 1) % f.output_count
    table = _write(work / "neg-flipped-dec.table.json", f.to_json())
    verify_job("neg-flipped-dec", _write(work / "neg-flipped-dec.scheme.json", broken), table,
               negative=True)

    equal3 = GALLERY["equal3"]
    pinned_gamma = scheme_from_expansion(equal3.expansion())
    pinned_gamma.atoms = [(1, z) for z in range(3)]
    table = _write(work / "neg-pinned-gamma.table.json", equal3.table.to_json())
    verify_job("neg-pinned-gamma",
               _write(work / "neg-pinned-gamma.scheme.json", serialize_scheme(pinned_gamma)),
               table, negative=True)
    return jobs


# ---------------------------------------------------------------------------
# blockcode
# ---------------------------------------------------------------------------

def _observe_block(r: JobResult) -> dict:
    p = json.loads(r.stdout)
    trials = p["trials"]
    return {"exit": r.code, "rows": p["rows"], "trials": trials,
            "errors": round(p["empirical_error"] * trials)}


def setup_blockcode(rng: random.Random, work: Path, pinned: dict) -> list[Job]:
    from confuse.expansion import equal_table

    and_table = _write(work / "and.json", {"m1": 2, "m2": 2, "outputs": [[0, 0], [0, 1]]})
    eq4_table = _write(work / "equal4.json", equal_table(4).to_json())
    # P(W=1) = 1/10 for each input, independently
    p1 = [Fraction(9, 10), Fraction(1, 10)]
    skew = _write(work / "skew.json", {"probs": [[str(a * b) for b in p1] for a in p1]})
    common = ["--max-carrier", MAX_CARRIER, "--seed", "7", "--json"]
    specs = {
        "B1": ["--table", and_table, "--L", "1024", "--epsilon", "0.15", "--trials", "200"],
        "B2": ["--table", and_table, "--L", "256", "--rows", "250", "--input-dist", skew,
               "--trials", "60"],
        "B3": ["--table", and_table, "--L", "256", "--rows", "212", "--input-dist", skew,
               "--trials", "40"],
        "B4": ["--table", eq4_table, "--L", "256", "--epsilon", "0.1", "--trials", "40"],
    }
    return [Job(name, ["blockcode", *a, *common], _observe_block, bound=BLOCK_ERROR_BOUND)
            for name, a in specs.items()]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _observe_catalog(r: JobResult) -> dict:
    p = json.loads(r.stdout)
    return {"exit": r.code, "entries": len(p["entries"]), "diff": p["diff"],
            "entries_digest": _digest(p["entries"])}


def setup_catalog(rng: random.Random, work: Path, pinned: dict) -> list[Job]:
    return [
        Job("field-256", ["catalog", "field", "--max", "256", "--reference", "--json"],
            _observe_catalog),
        Job("ring-128", ["catalog", "ring", "--max", "128", "--reference", "--json"],
            _observe_catalog),
    ]


SETUPS = {
    "solve": setup_solve,
    "verify": setup_verify,
    "blockcode": setup_blockcode,
    "catalog": setup_catalog,
}


def setup(name: str, seed: int, work: Path, pinned: dict, reduced: bool = False) -> list[Job]:
    """Write the workload's input files for this seed and return its jobs in
    seeded order."""
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    jobs = SETUPS[name](rng, work, pinned)
    if reduced:
        jobs = [j for j in jobs if j.id in REDUCED[name]]
    rng.shuffle(jobs)
    return jobs
