"""Time-to-verdict benchmark for the CAL / linearizability toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload verify-dpor --seed 1 --seconds 20 --trace 0

One client (this process) submits the workload's jobs one after another
and waits for each verdict (a closed loop); only ``fanout-durable`` forks
worker processes, two at a time.  Every verdict is checked against a
known answer (``answers.json``, see ``pin.py``).  Whole cycles of jobs
run until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs are
done, so that ``job_p90_s`` has ten samples beyond it.  Between jobs a
fixed reference kernel measures the host's speed (``probe.py``), and
every reported time is scaled to the reference speed, so that a shared
host's drift does not read as a change in the program.

``--workload all`` runs every workload in turn.  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` runs a fixed number of cycles
instead, each job once untraced and once traced (spans around every
layer call, plus the program's opt-in counters), and prints the
per-layer metrics; the spans are written to ``.perfbench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5
#: Speed probes after each set-up repeat (and once before the first).
SETUP_PROBES = 5
#: p90 needs at least ten samples beyond it.
MIN_JOBS = 100
IMPORT_MODULES = ("repro.checkers", "repro.cli", "repro.search", "repro.store", "repro.substrate")
#: Run in a fresh interpreter: times the program's import there, beside
#: the speed kernel in the same process, and prints both.
IMPORT_PROBE = f"""
import json, statistics, sys, time
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from probe import kernel_seconds
before = kernel_seconds(3)
started = time.perf_counter()
import {", ".join(IMPORT_MODULES)}
imported = time.perf_counter() - started
print(json.dumps([imported, statistics.median(before + kernel_seconds(3))]))
"""

def declared_metrics() -> Dict[str, List[Tuple[str, str]]]:
    """(name, unit) of every metric, in ``BENCHMARK.json`` order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: [(metric["name"], metric["unit"]) for metric in spec[kind]]
        for kind in ("end_to_end", "per_layer")
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def nearest_rank(ordered: List[float], q: float) -> Tuple[float, int]:
    """The ``q``-quantile by nearest rank, and how many samples lie beyond."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def highest_tail(ordered: List[float]) -> Tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    for percent in range(99, 0, -1):
        value, beyond = nearest_rank(ordered, percent / 100)
        if beyond >= 10:
            return percent, value
    return 0, ordered[0]


def import_seconds() -> float:
    """Reference seconds a fresh interpreter takes to import the program,
    scaled by the speed kernel timed in that interpreter."""
    from probe import REFERENCE_S

    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    imported, kernel_s = json.loads(child.stdout)
    return imported * REFERENCE_S / kernel_s


def set_up(cls, seed: int, workdir: str, answers: Dict[str, Any], meter):
    """Build the workload ``SETUP_REPEATS`` times; median set-up time (in
    reference seconds) and the last instance built (the one measured)."""
    totals = []
    bench = None
    meter.burst(SETUP_PROBES)
    for attempt in range(SETUP_REPEATS):
        if bench is not None:
            bench.close()
        imports = import_seconds()
        started = time.perf_counter()
        directory = os.path.join(workdir, f"setup-{attempt}")
        os.makedirs(directory)
        bench = cls(seed, directory, answers)
        bench.warm_up()
        ended = time.perf_counter()
        meter.burst(SETUP_PROBES)
        totals.append(imports + (ended - started) * meter.scale(started, ended))
    return statistics.median(totals), bench


def execute(fn: Callable[[], Any]) -> Tuple[float, Any, Optional[str]]:
    """Time one job from submit to verdict; an exception is a failed job."""
    started = time.perf_counter()
    try:
        outcome = fn()
    except Exception as exc:  # a job that raises is counted, not fatal
        elapsed = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - started, outcome, None


def judge(expected: str, check, outcome, error: Optional[str]) -> Optional[str]:
    """None when the job's answer is right, else the reason it is not."""
    if error is not None:
        return error
    if outcome.verdict != expected:
        return f"verdict {outcome.verdict}, expected {expected}"
    try:
        return check(outcome)
    except Exception as exc:  # the oracle itself must not abort the run
        traceback.print_exc(file=sys.stderr)
        return f"oracle raised {type(exc).__name__}: {exc}"


class Tally:
    """Start, latency, work and failures of the jobs run so far.  Answers
    are judged by :meth:`settle`, after the measured window, so that the
    oracle's own work never eats into it."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.latencies: List[float] = []
        self.runs = 0
        self.failures: List[Tuple[str, str]] = []
        #: Peak RSS once the first MIN_JOBS jobs' cycles are done: a fixed
        #: amount of work, so the figure does not grow with machine speed.
        self.peak_rss_mb: Optional[float] = None
        self._unjudged: List[Tuple[str, str, Callable, Any, Optional[str]]] = []

    def add(self, job, elapsed: float, outcome, error: Optional[str], started: float = 0.0) -> None:
        self.starts.append(started)
        self.latencies.append(elapsed)
        self.runs += outcome.runs if outcome is not None else 0
        # Not the job itself: its closures hold the inputs, which would
        # otherwise pile up in memory until the window ends.
        self._unjudged.append((job.kind, job.expected, job.check, outcome, error))

    def settle(self) -> None:
        for kind, expected, check, outcome, error in self._unjudged:
            reason = judge(expected, check, outcome, error)
            if reason is not None:
                self.failures.append((kind, reason))
                print(f"FAILED {kind}: {reason}", file=sys.stderr)
        self._unjudged = []


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def measure(bench, seconds: float, meter) -> Tally:
    tally = Tally()
    started = time.perf_counter()
    index = 0
    while True:
        for job in bench.cycle(index):
            meter.tick()
            submitted = time.perf_counter()
            tally.add(job, *execute(job.run), started=submitted)
        index += 1
        if len(tally.latencies) < MIN_JOBS:
            continue
        if tally.peak_rss_mb is None:
            tally.peak_rss_mb = peak_rss_mb()
        if time.perf_counter() - started >= seconds:
            break
    meter.burst(3)
    print(f"{index} cycles, {len(tally.latencies)} jobs in {time.perf_counter() - started:.2f}s wall, "
          f"{len(meter.seconds)} speed probes")
    tally.settle()
    return tally


def measure_traced(bench, rec) -> Tuple[Tally, float, float]:
    """Each job once untraced and once traced, alternating which goes
    first; returns the tally and the untraced / traced job-seconds."""
    tally = Tally()
    plain = traced = 0.0
    position = 0
    for index in range(bench.traced_cycles):
        for job in bench.cycle(index):
            position += 1
            for mode in ("traced", "plain") if position % 2 else ("plain", "traced"):
                if mode == "plain":
                    elapsed, outcome, error = execute(job.run)
                    plain += elapsed
                    tally.add(job, elapsed, outcome, error)
                    continue
                rec.job = position
                with rec.span("job", kind=job.kind) as span:
                    elapsed, outcome, error = execute(lambda: job.traced(rec))
                traced += span["end"] - span["start"]
                tally.add(job, elapsed, outcome, error)
                if outcome is not None and job.expected == "FAIL" and outcome.runs_to_bug:
                    rec.sample("runs_to_bug", outcome.runs_to_bug)
    tally.settle()
    return tally, plain, traced


def end_to_end(tally: Tally, setup_s: float, meter) -> Dict[str, float]:
    """Every time in reference seconds (``probe.py``): each job's wall
    latency scaled by the host's speed around it."""
    from probe import REFERENCE_S

    scaled = [
        elapsed * meter.scale(start, start + elapsed)
        for start, elapsed in zip(tally.starts, tally.latencies)
    ]
    ordered = sorted(scaled)
    p90, beyond = nearest_rank(ordered, 0.90)
    percent, tail = highest_tail(ordered)
    busy = sum(scaled)
    wall = sum(tally.latencies)
    print(f"host speed: kernel median {meter.median_kernel_s() * 1e3:.3f} ms over "
          f"{len(meter.seconds)} probes (reference {REFERENCE_S * 1e3:.3f} ms); "
          f"unscaled: {len(scaled) / wall:.4g} jobs/s, {tally.runs / wall:.4g} runs/s, "
          f"p50 {statistics.median(tally.latencies):.6f}s")
    print(f"job latency (reference s): n={len(ordered)}, p50={statistics.median(ordered):.6f}s, "
          f"p90={p90:.6f}s ({beyond} beyond), highest percentile with >=10 beyond: "
          f"p{percent}={tail:.6f}s")
    return {
        "setup_s": setup_s,
        # Throughputs over the whole window: every job counts once.
        "jobs_per_s": len(scaled) / busy,
        "job_p50_s": statistics.median(ordered),
        "job_p90_s": p90,
        "runs_per_s": tally.runs / busy,
        "peak_rss_mb": tally.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(rec, bench, plain: float, traced: float) -> Dict[str, float]:
    counters = rec.profiler.counters
    timers = rec.profiler.timers
    ledger = rec.ledger.counters
    times = rec.times

    def total(prefix: str, suffix: str = "") -> int:
        return sum(v for k, v in ledger.items() if k.startswith(prefix) and k.endswith(suffix))

    # The verify drivers only see the runs an exhaustive engine completed;
    # the ones it cut short are the ledger's executed minus completed.
    seen = counters.get("runtime.runs", 0)
    runs = seen + ledger.get("schedule.executed", 0) - ledger.get("schedule.completed", 0)
    completed = seen - counters.get("fuzz.incomplete", 0)
    steps = counters.get("runtime.steps", 0)
    substrate_s = times.get("substrate.self_s", 0.0)
    search_s = timers.get("cal.check_s", 0.0) + timers.get("lin.check_s", 0.0)
    nodes = counters.get("search.nodes", 0)
    memo_hits = counters.get("search.memo_hits", 0)
    shape_hits = counters.get("search.structural_cache_hits", 0)
    admitted = total("greybox.admitted.")
    bugs = rec.samples.get("runs_to_bug", [])
    return {
        "substrate.runs": runs,
        "substrate.steps": steps,
        "substrate.steps_per_s": _ratio(steps, substrate_s),
        "substrate.self_share": _ratio(substrate_s, times.get("substrate.base_s", 0.0)),
        "substrate.complete_ratio": _ratio(completed, runs),
        "dpor.executed": ledger.get("schedule.executed", 0),
        "dpor.completed": ledger.get("schedule.completed", 0),
        "dpor.pruned": total("schedule.pruned."),
        "dpor.races": ledger.get("race.immediate", 0),
        "dpor.wakeup_queued": total("wakeup.queued"),
        "checkers.search_s": search_s,
        "checkers.search_calls": counters.get("cal.checks", 0) + counters.get("lin.checks", 0),
        "checkers.search_nodes": nodes,
        "checkers.nodes_per_s": _ratio(nodes, search_s),
        "checkers.witness_calls": counters.get("cal.witness_checks", 0),
        "checkers.memo_hit_ratio": _ratio(memo_hits, memo_hits + counters.get("search.memo_misses", 0)),
        "checkers.structural_cache_hit_ratio": _ratio(
            shape_hits, shape_hits + counters.get("search.structural_cache_misses", 0)
        ),
        "checkers.shrink_attempts": counters.get("shrink.attempts", 0),
        "greybox.admission_ratio": _ratio(admitted, admitted + total("greybox.rejected.")),
        "greybox.novel_mutation_ratio": _ratio(
            total("greybox.op.", ".novel"), total("greybox.op.")
        ),
        "greybox.failing_run_share": _ratio(
            rec.counts.get("fuzz.failing_runs", 0), rec.counts.get("fuzz.checked_runs", 0)
        ),
        "runs_to_bug_p50": statistics.median(bugs) if bugs else 0,
        "store.chunks_committed": rec.counts.get("store.chunks_committed", 0),
        "store.self_share": _ratio(times.get("store.self_s", 0.0), times.get("store.base_s", 0.0)),
        "store.db_bytes": bench.db_bytes() if hasattr(bench, "db_bytes") else 0,
        "parallel.worker_spawns": rec.counts.get("parallel.worker_spawns", 0),
        "parallel.worker_retries": rec.counts.get("parallel.worker_retries", 0),
        "parallel.fanout_efficiency": _ratio(
            times.get("parallel.chunk_s", 0.0), times.get("parallel.capacity_s", 0.0)
        ),
        "obs.tracing_overhead": _ratio(traced, plain) - 1.0,
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """One benchmark run; returns the result object (not yet printed)."""
    from jobs import WORKLOADS
    from oracle import load_answers
    from probe import Speedometer
    from spans import Recorder

    for module in IMPORT_MODULES:  # keep in-process imports off every set-up repeat
        importlib.import_module(module)
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    bench = None
    meter = Speedometer()
    try:
        setup_s, bench = set_up(cls, args.seed, workdir, load_answers(), meter)
        if args.trace:
            rec = Recorder()
            tally, plain, traced = measure_traced(bench, rec)
            values = per_layer(rec, bench, plain, traced)
            units = declared_metrics()["per_layer"]
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            rec.dump(spans_path)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            tally = measure(bench, args.seconds, meter)
            values = end_to_end(tally, setup_s, meter)
            units = declared_metrics()["end_to_end"]
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(tally.latencies)
    failed = len(tally.failures)
    print(f"{args.workload} seed={args.seed}: {attempted} jobs, {failed} failed, "
          f"job_failure_rate={failed / attempted:.4f}")
    for name, unit in units:
        print(f"  {name:<38} {values[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload, each in its own interpreter so that none inherits
    another's memory peak or warm caches; metrics are keyed
    ``<workload>/<metric>``."""
    from jobs import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = child.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
