"""Self-checks for the benchmark itself.

Run from the repository root (about four minutes):

    python3 perfbench/selfcheck.py

1. Repeatability: on every workload, two traced runs with the fixed seed
   :data:`SEED` must report exactly the same deterministic counts
   (``substrate.runs``, ``dpor.executed``, ``checkers.search_nodes``,
   ``runs_to_bug_p50``).
2. The verdict oracle bites: a job given a deliberately wrong expected
   verdict, and an exhaustive job checked against a wrong pinned history
   set, must each be counted as failed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEED = 7
DETERMINISTIC = (
    "substrate.runs",
    "dpor.executed",
    "checkers.search_nodes",
    "runs_to_bug_p50",
)


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong verdicts")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def check_repeatable(workloads) -> bool:
    ok = True
    for workload in workloads:
        first, second = traced_counts(workload), traced_counts(workload)
        same = first == second
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {workload}: counts repeat exactly: {first}"
              + ("" if same else f" vs {second}"))
    return ok


def check_oracle() -> bool:
    from jobs import CheckHistories, VerifyDpor
    from oracle import load_answers
    from run import Tally, execute

    answers = load_answers()
    workdir = tempfile.mkdtemp(dir=os.path.join(os.getcwd(), ".perfbench_out"))
    ok = True
    try:
        histories = CheckHistories(SEED, workdir, answers)
        for job in histories.cycle(0)[:4]:
            wrong = dataclasses.replace(job, expected="FAIL" if job.expected == "OK" else "OK")
            tally = Tally()
            tally.add(wrong, *execute(wrong.run))
            tally.settle()
            counted = len(tally.failures) == 1
            ok &= counted
            print(f"{'ok  ' if counted else 'FAIL'} wrong expected verdict on "
                  f"{job.kind} counted as failed")
        answers["verify-dpor"]["exchanger-2"]["digest"] = "0" * 64
        verify = VerifyDpor(SEED, workdir, answers)
        job = next(j for j in verify.cycle(0) if j.kind == "exchanger-2")
        tally = Tally()
        tally.add(job, *execute(job.run))
        tally.settle()
        counted = len(tally.failures) == 1
        ok &= counted
        print(f"{'ok  ' if counted else 'FAIL'} wrong pinned history set counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ok


def main() -> int:
    if not os.path.isdir(os.path.join("src", "repro")):
        print("selfcheck.py: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(".perfbench_out", exist_ok=True)
    from jobs import WORKLOADS

    ok = check_oracle()
    ok &= check_repeatable(sorted(WORKLOADS))
    print("all self-checks passed" if ok else "self-checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
