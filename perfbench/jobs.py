"""The benchmark's four workloads, as streams of jobs with known answers.

Each workload is a closed loop with one client: the benchmark builds a
*cycle* of jobs from ``(seed, cycle index)``, submits them one after
another and waits for each verdict.  The program only ever receives the
generated inputs (setups, specs, histories, seed ranges).  Every job has
an untraced form (what a user calls) and a traced form that records spans
around each layer call and passes the program's opt-in counters.

Job weights inside a cycle are chosen so that the median and the p90 of
job latency each fall inside one job kind's band, never on the boundary
between two kinds; whole cycles are always run, so the mix is fixed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from oracle import (
    corrupt_response,
    history_key,
    history_set_digest,
    response_count,
)


@dataclass
class Outcome:
    """What one job returned: its verdict, the work it did, and what the
    oracle needs to check it (never the whole report, since outcomes are
    kept until the measured window ends)."""

    verdict: str  # "OK" | "FAIL" | "UNKNOWN"
    runs: int  # program executions (or recorded histories) checked
    runs_to_bug: Optional[int] = None
    checked: int = 0  # complete runs a verify report checked
    counterexample: Any = None  # first failing history of a fuzz job
    failing_runs: int = 0


@dataclass
class Job:
    kind: str
    expected: str
    run: Callable[[], Outcome]
    traced: Callable[[Any], Outcome]
    #: Extra oracle beyond the verdict: returns a reason when wrong.
    check: Callable[[Outcome], Optional[str]] = lambda outcome: None


def _cycle_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _report_verdict(report) -> str:
    """Verdict of a verify report (enum) or a fuzz report."""
    verdict = getattr(report, "verdict", None)
    if verdict is not None:
        return verdict.value.upper()
    if report.failures:
        return "FAIL"
    if report.unknown or report.skipped or report.quarantined or not report.runs:
        return "UNKNOWN"
    return "OK"


def _fuzz_outcome(report, runs: int, first_seed: int = 0) -> Outcome:
    """Outcome of a fuzz campaign whose seeds started at ``first_seed``."""
    if not report.failures:
        return Outcome(_report_verdict(report), runs)
    first = report.failures[0]  # failures are in seed order
    return Outcome(
        "FAIL",
        runs,
        runs_to_bug=first.seed - first_seed + 1,
        counterexample=first.history,
        failing_runs=len(report.failures),
    )


def _confirm_counterexample(spec, outcome: Outcome) -> Optional[str]:
    """A FAIL from a fuzz job must carry a history that the reference
    linearizability checker also rejects."""
    from repro.checkers._reference import ReferenceLinearizabilityChecker

    if outcome.verdict != "FAIL":
        return None
    if ReferenceLinearizabilityChecker(spec).check(outcome.counterexample).ok:
        return "reported counterexample is linearizable per the reference checker"
    return None


def _substrate_span(rec, name: str, call: Callable[[], Outcome]) -> Outcome:
    """Run an in-process job in one span.  The substrate's self time is the
    span minus the checker time the program's own timers report, so it
    also holds engine, driver, greybox and witness time."""
    before = rec.checker_seconds()
    with rec.span(name) as span:
        outcome = call()
    elapsed = span["end"] - span["start"]
    rec.add_time("substrate.self_s", elapsed - (rec.checker_seconds() - before))
    rec.add_time("substrate.base_s", elapsed)
    return outcome


# ----------------------------------------------------------------------
# verify-dpor: exhaustive verification under source-set DPOR
# ----------------------------------------------------------------------
def _treiber(scripts, memory_model):
    from repro.workloads.programs import StackWorkload, manual_treiber_program

    return manual_treiber_program(
        StackWorkload(scripts=scripts),
        policy="gc",
        seed_values=(1,),
        max_attempts=1,
        memory_model=memory_model,
    )


def _rendezvous():
    from repro.objects.rendezvous import RingRendezvous
    from repro.substrate import Program, World

    def setup(scheduler):
        world = World()
        ring = RingRendezvous(world, "RV", slots=1, wait_rounds=1, max_attempts=1)
        program = Program(world)
        for index, value in enumerate([3, 4], start=1):
            program.thread(f"t{index}", lambda ctx, v=value: ring.exchange(ctx, v))
        return program.runtime(scheduler)

    return setup


def _msqueue_hazard():
    from repro.workloads.programs import manual_msqueue_program

    return manual_msqueue_program(
        [[("enqueue", 1)], [("dequeue",)]], policy="hazard", max_attempts=1
    )


def verify_cases() -> Dict[str, Tuple[str, Callable, Callable, int]]:
    """name -> (checker family, setup factory, spec factory, max_steps)."""
    from repro.specs import ExchangerSpec, QueueSpec, StackSpec
    from repro.workloads.programs import exchanger_program

    seeded_stack = lambda: StackSpec("S", initial=(1,))
    return {
        "exchanger-2": ("cal", lambda: exchanger_program([3, 4]), lambda: ExchangerSpec("E"), 200),
        "rendezvous": ("cal", _rendezvous, lambda: ExchangerSpec("RV"), 300),
        "treiber-gc-sc": ("lin", lambda: _treiber([[("push", 3)], [("pop",)]], "sc"), seeded_stack, 200),
        "treiber-gc-tso": ("lin", lambda: _treiber([[("push", 3)], [("pop",)]], "tso"), seeded_stack, 200),
        "msqueue-hazard": ("lin", _msqueue_hazard, lambda: QueueSpec("Q"), 300),
        "treiber-tso-pushpop": (
            "lin",
            lambda: _treiber([[("push", 3), ("pop",)], [("pop",)]], "tso"),
            seeded_stack,
            300,
        ),
    }


#: Jobs per cycle.  Small jobs dominate the count (as many small
#: configurations would in a real queue).  In latency order the cycle is
#: 4 exchanger-2, 4 treiber-gc-sc, 6 treiber-gc-tso, 4 rendezvous,
#: 4 msqueue and 1 push;pop, so the median (12th of 23) lies well inside
#: the treiber-gc-tso jobs and the p90 (21st) inside the msqueue jobs.
VERIFY_WEIGHTS = {
    "exchanger-2": 4,
    "rendezvous": 4,
    "treiber-gc-sc": 4,
    "treiber-gc-tso": 6,
    "msqueue-hazard": 4,
    "treiber-tso-pushpop": 1,
}


class VerifyDpor:
    name = "verify-dpor"
    traced_cycles = 2

    def __init__(self, seed: int, workdir: str, answers: Dict[str, Any]) -> None:
        self.seed = seed
        self.pins = answers["verify-dpor"]
        self.cases = {
            name: (family, make_setup(), make_spec(), max_steps)
            for name, (family, make_setup, make_spec, max_steps) in verify_cases().items()
        }
        # Per run, the history set the engine explores for each case;
        # computed once per case, outside the timed job.
        self.explored: Dict[str, Tuple[int, str, int]] = {}

    def warm_up(self) -> None:
        self._job("exchanger-2").run()

    def cycle(self, index: int) -> List[Job]:
        jobs = [
            self._job(name)
            for name, weight in VERIFY_WEIGHTS.items()
            for _ in range(weight)
        ]
        _cycle_rng(self.name, self.seed, index).shuffle(jobs)
        return jobs

    def close(self) -> None:
        pass

    def _job(self, name: str) -> Job:
        from repro.checkers import verify_cal, verify_linearizability

        family, setup, spec, max_steps = self.cases[name]
        driver = verify_cal if family == "cal" else verify_linearizability

        def verify(**observers) -> Outcome:
            report = driver(setup, spec, max_steps=max_steps, reduction="dpor", **observers)
            return Outcome(
                _report_verdict(report), report.runs + report.incomplete, checked=report.runs
            )

        def traced(rec) -> Outcome:
            return _substrate_span(
                rec, "checkers.verify", lambda: verify(metrics=rec.profiler, provenance=rec.ledger)
            )

        def check(outcome: Outcome) -> Optional[str]:
            # The history set is derived once per case, after the measured
            # window and outside every traced span.
            pin = self.pins[name]
            count, digest, completed = self._explored(name)
            if outcome.checked != completed:
                return f"verify checked {outcome.checked} runs but the engine explores {completed}"
            if [count, digest] != [pin["histories"], pin["digest"]]:
                return f"history set ({count}, {digest}) differs from the pinned {pin['histories']}"
            return None

        return Job(name, self.pins[name]["verdict"], verify, traced, check)

    def _explored(self, name: str) -> Tuple[int, str, int]:
        from repro.substrate.explore import explore_all

        if name not in self.explored:
            _, setup, _, max_steps = self.cases[name]
            keys = [
                history_key(run.history)
                for run in explore_all(setup, max_steps=max_steps, reduction="dpor")
            ]
            self.explored[name] = history_set_digest(keys) + (len(keys),)
        return self.explored[name]


# ----------------------------------------------------------------------
# check-histories: the checker alone, on recorded histories
# ----------------------------------------------------------------------
WIDE_WIDTHS = tuple(range(8, 14))
CHAIN_PAIRS = (16, 32)
#: Jobs per cycle, 55.  Intact wide histories (linear acceptances, well
#: under a millisecond) are the 30 fastest, in order of width; with 55 jobs
#: the median (27.5th) is the middle of the five width-13 ones, not the
#: edge between two widths (with 51 it was, and moved with the host).  The
#: eight width-12 refutations sit just below the single width-13 one, so
#: the p90 (50th) is the middle of the width-12 refutations.
WIDE_INTACT = 5
WIDE_CORRUPT = {8: 1, 9: 1, 10: 1, 11: 1, 12: 8, 13: 1}
CHAIN_INTACT = CHAIN_CORRUPT = 1
REGISTER_JOBS = 8
REGISTER_OPS = (60, 200)
REGISTER_THREADS = 4


class CheckHistories:
    name = "check-histories"
    traced_cycles = 12

    def __init__(self, seed: int, workdir: str, answers: Dict[str, Any]) -> None:
        from repro.specs import ExchangerSpec, RegisterSpec
        from repro.workloads.synthetic import swap_chain_history, wide_overlap_history

        self.seed = seed
        self.pins = answers["check-histories"]
        self.exchanger = ExchangerSpec("E")
        self.register = RegisterSpec("R")
        self.wide = {w: wide_overlap_history(w) for w in WIDE_WIDTHS}
        self.chain = {p: swap_chain_history(pairs=p)[0] for p in CHAIN_PAIRS}
        # Corruption points are dealt from one seeded shuffle per history,
        # so that a run visits every point about equally often: a refutation's
        # cost depends on the point, and sampling them independently would
        # let the seed move the mix.
        self.points = {}
        for short, histories in (("wide", self.wide), ("chain", self.chain)):
            for size, history in histories.items():
                points = list(range(response_count(history, "E")))
                random.Random(f"{self.name}:{seed}:{short}{size}").shuffle(points)
                self.points[short, size] = points

    def warm_up(self) -> None:
        from repro.workloads.synthetic import random_register_history

        self._job("register", "lin", random_register_history(60, REGISTER_THREADS, seed=0), "OK").run()

    def cycle(self, index: int) -> List[Job]:
        from repro.workloads.synthetic import random_register_history

        rng = _cycle_rng(self.name, self.seed, index)
        jobs = []
        families = [
            ("wide_overlap", "wide", self.wide, WIDE_INTACT, WIDE_CORRUPT),
            ("swap_chain", "chain", self.chain, CHAIN_INTACT, dict.fromkeys(CHAIN_PAIRS, CHAIN_CORRUPT)),
        ]
        for family, short, histories, intact, corrupt in families:
            for size, history in histories.items():
                pin = self.pins[family][str(size)]
                for _ in range(intact):
                    jobs.append(self._job(f"{short}{size}", "cal", history, pin["intact"]))
                points = self.points[short, size]
                for copy in range(corrupt[size]):
                    point = points[(index * corrupt[size] + copy) % len(points)]
                    jobs.append(
                        self._job(
                            f"{short}{size}/corrupt",
                            "cal",
                            corrupt_response(history, "E", point),
                            pin["corrupted"][point],
                        )
                    )
        for _ in range(REGISTER_JOBS):
            operations = rng.randint(*REGISTER_OPS)
            log = random_register_history(
                operations, REGISTER_THREADS, oid="R", seed=rng.randrange(2**31)
            )
            jobs.append(self._job("register", "lin", log, self.pins["register"]["verdict"]))
        rng.shuffle(jobs)
        return jobs

    def close(self) -> None:
        pass

    def _job(self, kind: str, family: str, history, expected: str) -> Job:
        from repro.checkers import CALChecker, LinearizabilityChecker

        spec = self.exchanger if family == "cal" else self.register
        make = CALChecker if family == "cal" else LinearizabilityChecker

        def outcome(result) -> Outcome:
            verdict = "UNKNOWN" if result.unknown else ("OK" if result.ok else "FAIL")
            return Outcome(verdict, 1)

        def run() -> Outcome:
            return outcome(make(spec).check(history))

        def traced(rec) -> Outcome:
            with rec.span("checkers.search"):
                result = make(spec).check(history, metrics=rec.profiler)
            return outcome(result)

        return Job(kind, expected, run, traced)


# ----------------------------------------------------------------------
# hunt-greybox: cold greybox fuzz campaigns hunting for a counterexample
# ----------------------------------------------------------------------
#: (registry workload, expected verdict, seed budget, jobs per cycle).
#: A hunt stops at the block holding its first counterexample;
#: FAIL-expected budgets are sized so that missing the bug is
#: astronomically unlikely (first counterexamples are observed within a
#: few hundred seeds).  Hunt lengths are geometric, so the latency tail
#: would be a handful of long hunts: the long msqueue-reclaim campaign is
#: sized above nearly all of them; three per cycle (of 14 jobs) put the
#: p90 (13th) in the middle of their band.  Nine short exchanger4
#: campaigns hold the median (7th); at 200 seeds each their latencies
#: vary little with the seed range (at 100 they varied by ±30%).
HUNT_CASES = (
    ("treiber-reuse", "FAIL", 4000, 1),
    ("naive-queue", "FAIL", 4000, 1),
    ("exchanger4", "OK", 200, 9),
    ("msqueue-reclaim", "OK", 800, 3),
)
HUNT_BLOCK = 25


def _registry(name: str):
    from repro.cli import WORKLOADS

    workload = WORKLOADS[name]
    return workload, workload.make_setup(), workload.make_spec()


def _fuzz_kwargs(workload) -> Dict[str, Any]:
    kwargs = dict(
        max_steps=workload.max_steps,
        check_witness=workload.check_witness,
        yield_bias=workload.yield_bias,
    )
    if workload.kind == "cal":
        kwargs["search"] = workload.search
    return kwargs


def hunt(workload, setup, spec, base: int, budget: int, metrics=None, provenance=None) -> Outcome:
    """Greybox fuzzing in blocks of :data:`HUNT_BLOCK` seeds, carrying one
    corpus across blocks, until the first counterexample or ``budget``."""
    from repro.checkers.fuzz import fuzz_cal, fuzz_linearizability
    from repro.search.corpus import ScheduleCorpus

    driver = fuzz_cal if workload.kind == "cal" else fuzz_linearizability
    corpus = ScheduleCorpus()
    runs = used = 0
    report = None
    while used < budget:
        report = driver(
            setup,
            spec,
            seeds=range(base + used, base + used + HUNT_BLOCK),
            guidance="greybox",
            corpus=corpus,
            metrics=metrics,
            provenance=provenance,
            **_fuzz_kwargs(workload),
        )
        runs += report.runs + report.incomplete
        if _report_verdict(report) != "OK":
            break
        used += HUNT_BLOCK
    return _fuzz_outcome(report, runs, first_seed=base)


class HuntGreybox:
    name = "hunt-greybox"
    traced_cycles = 8

    def __init__(self, seed: int, workdir: str, answers: Dict[str, Any]) -> None:
        self.seed = seed
        self.pins = answers["hunt-greybox"]
        self.cases = {name: _registry(name) for name, _, _, _ in HUNT_CASES}

    def warm_up(self) -> None:
        workload, setup, spec = self.cases["exchanger4"]
        hunt(workload, setup, spec, 0, HUNT_BLOCK)

    def cycle(self, index: int) -> List[Job]:
        rng = _cycle_rng(self.name, self.seed, index)
        jobs = [
            self._job(name, rng.randrange(2**31), budget)
            for name, _, budget, count in HUNT_CASES
            for _ in range(count)
        ]
        rng.shuffle(jobs)
        return jobs

    def close(self) -> None:
        pass

    def _job(self, name: str, base: int, budget: int) -> Job:
        workload, setup, spec = self.cases[name]

        def run() -> Outcome:
            return hunt(workload, setup, spec, base, budget)

        def traced(rec) -> Outcome:
            outcome = _substrate_span(
                rec,
                "search.hunt",
                lambda: hunt(
                    workload, setup, spec, base, budget,
                    metrics=rec.profiler, provenance=rec.ledger,
                ),
            )
            rec.count("fuzz.failing_runs", outcome.failing_runs)
            rec.count("fuzz.checked_runs", outcome.runs)
            return outcome

        def check(outcome: Outcome) -> Optional[str]:
            if outcome.verdict == "OK" and outcome.runs != budget:
                return f"OK hunt ran {outcome.runs} of {budget} seeds"
            return _confirm_counterexample(spec, outcome)

        return Job(name, self.pins[name], run, traced, check)


# ----------------------------------------------------------------------
# fanout-durable: checkpointed campaigns fanned out to forked workers
# ----------------------------------------------------------------------
FANOUT_CASES = (
    "figure3",
    "exchanger2",
    "exchanger3",
    "exchanger4",
    "treiber-hazard",
    "treiber-epoch",
    "treiber-gc",
    "treiber-hazard-tso",
    "msqueue-reclaim",
    "naive-queue",
)
FANOUT_SEEDS = (200, 249)
FANOUT_CHECKPOINT_EVERY = 50
FANOUT_WORKERS = 2


class FanoutDurable:
    name = "fanout-durable"
    traced_cycles = 6

    def __init__(self, seed: int, workdir: str, answers: Dict[str, Any]) -> None:
        from repro.store import CampaignStore

        self.seed = seed
        self.pins = answers["fanout-durable"]
        self.cases = {name: _registry(name) for name in FANOUT_CASES}
        self.path = os.path.join(workdir, "campaigns.db")
        self.store = CampaignStore(self.path)
        self.submitted = 0

    def warm_up(self) -> None:
        self._job("exchanger2", 100).run()

    def cycle(self, index: int) -> List[Job]:
        rng = _cycle_rng(self.name, self.seed, index)
        jobs = [self._job(name, rng.randint(*FANOUT_SEEDS)) for name in FANOUT_CASES]
        rng.shuffle(jobs)
        return jobs

    def close(self) -> None:
        self.store.close()

    def db_bytes(self) -> int:
        return sum(
            os.path.getsize(self.path + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(self.path + suffix)
        )

    def _campaign(self, name: str, seeds: int, **observers) -> Outcome:
        from repro.store import durable_fuzz

        workload, setup, spec = self.cases[name]
        # Every submission is a fresh campaign; dedup stays off.
        self.submitted += 1
        extras = _fuzz_kwargs(workload)
        del extras["max_steps"]  # durable_fuzz reads it from the config
        report = durable_fuzz(
            self.store,
            f"job-{self.submitted}",
            name,
            workload.kind,
            setup,
            spec,
            {
                "seeds": seeds,
                "checkpoint_every": FANOUT_CHECKPOINT_EVERY,
                "max_steps": workload.max_steps,
                "dedup": False,
            },
            workers=FANOUT_WORKERS,
            driver_kwargs=extras,
            **observers,
        )
        return _fuzz_outcome(report, report.runs + report.incomplete)

    def _job(self, name: str, seeds: int) -> Job:
        from spans import StampedSink

        _, _, spec = self.cases[name]

        def run() -> Outcome:
            return self._campaign(name, seeds)

        def traced(rec) -> Outcome:
            sink = StampedSink()
            before = rec.checker_seconds()
            with rec.span("store.durable_fuzz") as span:
                outcome = self._campaign(
                    name, seeds, metrics=rec.profiler, trace=sink, provenance=rec.ledger
                )
            chunk_s = _fold_worker_spans(rec, span, sink.events)
            elapsed = span["end"] - span["start"]
            rec.add_time("store.self_s", rec.self_time(span))
            rec.add_time("store.base_s", elapsed)
            rec.add_time("parallel.chunk_s", chunk_s)
            rec.add_time("parallel.capacity_s", FANOUT_WORKERS * elapsed)
            rec.add_time("substrate.self_s", chunk_s - (rec.checker_seconds() - before))
            rec.add_time("substrate.base_s", chunk_s)
            rec.count("fuzz.failing_runs", outcome.failing_runs)
            rec.count("fuzz.checked_runs", outcome.runs)
            return outcome

        def check(outcome: Outcome) -> Optional[str]:
            if outcome.runs != seeds:
                return f"campaign ran {outcome.runs} of {seeds} seeds"
            return _confirm_counterexample(spec, outcome)

        return Job(name, self.pins[name], run, traced, check)


def _fold_worker_spans(rec, parent, events) -> float:
    """Pair ``worker_spawn``/``worker_done`` events into ``parallel.chunk``
    spans under ``parent``; count spawns, retries and committed chunks."""
    spawned: Dict[Any, float] = {}
    total = 0.0
    for event in events:
        kind = event["event"]
        if kind == "worker_spawn":
            spawned[event["task"]] = event["t"]
            rec.count("parallel.worker_spawns")
        elif kind == "worker_done" and event["task"] in spawned:
            start = spawned.pop(event["task"])
            rec.add_span("parallel.chunk", start, event["t"], parent, task=event["task"])
            total += event["t"] - start
        elif kind == "worker_retry":
            rec.count("parallel.worker_retries")
        elif kind == "checkpoint" and event.get("status") == "done":
            rec.count("store.chunks_committed")
    return total


WORKLOADS = {
    cls.name: cls for cls in (VerifyDpor, CheckHistories, HuntGreybox, FanoutDurable)
}
