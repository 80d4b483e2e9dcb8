"""Pin the outputs that every benchmark job must reproduce.

    python3 bench/pin.py

Run it at the commit whose outputs are the reference, and only there: it
draws the solve tables from a fixed seed, runs every job of every workload
once at workload seed 0, and writes bench/expected.json.  Later runs compare
their outputs with that file.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads

# (m1, m2, labels) of the solve tables, one seeded draw each, plus one 2x5
# three-label table with no embedding on carriers up to 16
SOLVE_STRATA = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3),
                (2, 4, 3), (2, 5, 2)]
# every job's exit code, where it is not 0
EXPECTED_EXIT = {"neg-flipped-dec": 2, "neg-pinned-gamma": 2}


def draw_solve_tables() -> list[dict]:
    from confuse.expansion import FunctionTable, search_expansions

    rng = random.Random("solve-tables")
    tables = []
    for m1, m2, k in SOLVE_STRATA:
        rows = workloads.random_table(rng, m1, m2, k)
        tables.append({"id": f"s{len(tables):02d}-{m1}x{m2}k{k}", "outputs": rows})
    while True:
        rows = workloads.random_table(rng, 2, 5, 3)
        if not search_expansions(FunctionTable.from_rows(rows), int(workloads.MAX_CARRIER), limit=1):
            break
    tables.append({"id": f"s{len(tables):02d}-2x5k3-none", "outputs": rows})
    return tables


def main() -> int:
    run.import_program()
    pinned = {"solve_tables": draw_solve_tables(), "jobs": {}}
    for name in workloads.SETUPS:
        cli = run.import_program()
        jobs = workloads.setup(name, 0, run.WORK / "pin" / name, pinned)
        capture = run.SearchCapture(cli)
        wall = 0.0
        for job in jobs:
            result, job_wall, _ = run.run_job(cli, job, capture, None)
            wall += job_wall
            if result.error is not None:
                raise SystemExit(f"{job.id} raised:\n{result.error}")
            got = job.observe(result)
            want_exit = 3 if job.id.endswith("-none") else EXPECTED_EXIT.get(job.id, 0)
            if got["exit"] != want_exit:
                raise SystemExit(f"{job.id}: exit {got['exit']}, expected {want_exit}")
            pinned["jobs"][job.id] = got
        capture.remove()
        print(f"{name}: {len(jobs)} jobs pinned in {wall:.1f} s", file=sys.stderr)
    pinned["pinned_at"] = {"git_sha": run.git_sha(),
                           "source_sha256": workloads.source_digest(run.SRC / "confuse")}
    run.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
