"""Regenerate ``answers.json``, the known answer of every benchmark job.

Run from the repository root:

    python3 perfbench/pin.py

It takes a few minutes.  The answers come from engines independent of
the code the benchmark times:

* verify-dpor: the distinct complete-run histories of each program,
  enumerated without reduction where that finishes and with sleep sets
  where it does not, and a verdict from the reference checker
  (``repro.checkers._reference``) over every distinct history;
* check-histories: reference-checker verdicts for every history the
  benchmark can generate from the exchanger families, one per corruption
  point, and for a sample of register logs (which are linearizable by
  construction: the generator simulates an atomic register);
* hunt-greybox and fanout-durable: the documented status of each registry
  workload.  The benchmark re-checks every counterexample a FAIL job
  reports with the reference checker.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cases whose unreduced schedule space is too large to enumerate in a
#: pinning run; sleep sets enumerate them, and they are not the engine
#: under test.
SLEEP_SET_PINNED = ("msqueue-hazard", "treiber-tso-pushpop")

REGISTER_SAMPLES = 40


def pin_verify() -> dict:
    from repro.checkers._reference import (
        ReferenceCALChecker,
        ReferenceLinearizabilityChecker,
    )
    from repro.substrate.explore import explore_all

    from jobs import verify_cases
    from oracle import history_key, history_set_digest

    out = {}
    for name, (family, make_setup, make_spec, max_steps) in verify_cases().items():
        engine = "sleep-set" if name in SLEEP_SET_PINNED else "none"
        started = time.perf_counter()
        distinct = {}
        for run in explore_all(make_setup(), max_steps=max_steps, reduction=engine):
            distinct.setdefault(history_key(run.history), run.history)
        spec = make_spec()
        checker = (ReferenceCALChecker if family == "cal" else ReferenceLinearizabilityChecker)(spec)
        verdict = "OK" if all(checker.check(h).ok for h in distinct.values()) else "FAIL"
        count, digest = history_set_digest(distinct)
        out[name] = {"verdict": verdict, "histories": count, "digest": digest, "engine": engine}
        print(f"verify-dpor {name}: {verdict}, {count} histories via {engine} "
              f"({time.perf_counter() - started:.1f}s)", flush=True)
    return out


def pin_histories() -> dict:
    from repro.checkers._reference import (
        ReferenceCALChecker,
        ReferenceLinearizabilityChecker,
    )
    from repro.specs import ExchangerSpec, RegisterSpec
    from repro.workloads.synthetic import (
        random_register_history,
        swap_chain_history,
        wide_overlap_history,
    )

    from jobs import CHAIN_PAIRS, REGISTER_OPS, REGISTER_THREADS, WIDE_WIDTHS
    from oracle import corrupt_response, response_count

    def verdict(result):
        return "UNKNOWN" if result.unknown else ("OK" if result.ok else "FAIL")

    cal = ReferenceCALChecker(ExchangerSpec("E"))
    out = {"wide_overlap": {}, "swap_chain": {}}
    families = (
        ("wide_overlap", {w: wide_overlap_history(w) for w in WIDE_WIDTHS}),
        ("swap_chain", {p: swap_chain_history(pairs=p)[0] for p in CHAIN_PAIRS}),
    )
    for family, histories in families:
        for size, history in histories.items():
            out[family][str(size)] = {
                "intact": verdict(cal.check(history)),
                "corrupted": [
                    verdict(cal.check(corrupt_response(history, "E", point)))
                    for point in range(response_count(history, "E"))
                ],
            }
            print(f"check-histories {family} {size}: {out[family][str(size)]}", flush=True)
    lin = ReferenceLinearizabilityChecker(RegisterSpec("R"))
    rng = random.Random("pin-registers")
    verdicts = set()
    for _ in range(REGISTER_SAMPLES):
        log = random_register_history(
            rng.randint(*REGISTER_OPS), REGISTER_THREADS, oid="R", seed=rng.randrange(2**31)
        )
        verdicts.add(verdict(lin.check(log)))
    if verdicts != {"OK"}:
        raise SystemExit(f"register sample verdicts {verdicts}: generator is not valid")
    out["register"] = {
        "verdict": "OK",
        "basis": f"atomic-register simulation; {REGISTER_SAMPLES} sampled logs pass the reference checker",
    }
    return out


HUNT = {
    "treiber-reuse": "FAIL",
    "naive-queue": "FAIL",
    "msqueue-reclaim": "OK",
    "exchanger4": "OK",
}
FANOUT = {
    "figure3": "OK",
    "exchanger2": "OK",
    "exchanger3": "OK",
    "exchanger4": "OK",
    "treiber-hazard": "OK",
    "treiber-epoch": "OK",
    "treiber-gc": "OK",
    "treiber-hazard-tso": "OK",
    "msqueue-reclaim": "OK",
    "naive-queue": "FAIL",
}


def main() -> int:
    if not os.path.isdir(os.path.join("src", "repro")):
        print("pin.py: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    answers = {
        "verify-dpor": pin_verify(),
        "check-histories": pin_histories(),
        "hunt-greybox": HUNT,
        "fanout-durable": FANOUT,
        "basis": {
            "hunt-greybox": "treiber-reuse (ABA reuse) and naive-queue (FIFO violation) are the registry's documented FAIL workloads; the others are correct objects",
            "fanout-durable": "registry workloads whose fuzz verdict is OK, plus naive-queue (FAIL)",
        },
    }
    with open(os.path.join(HERE, "answers.json"), "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote perfbench/answers.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
