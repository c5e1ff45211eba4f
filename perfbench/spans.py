"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own code around each call into a
layer (name, start, end, parent, and the id of the job that caused it).
They stay in memory and are written out once, when the run ends.  The
program's own opt-in counters (``metrics=`` registries, ``provenance=``
ledgers, ``trace=`` events) are folded in beside them: worker lifetimes
from a campaign's trace events become ``parallel.chunk`` child spans.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Import this module only once ``src`` is on
``sys.path``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import SearchProfiler
from repro.obs.provenance import ExplorationLedger
from repro.obs.tracing import TraceSink


class Recorder:
    """Spans, counters and the program's opt-in observers for one run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, int] = {}
        self.times: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.profiler = SearchProfiler()
        self.ledger = ExplorationLedger()
        self.job: Optional[int] = None
        self._stack: List[int] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = self._open(name, attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str, attrs: Dict[str, Any]) -> Dict[str, Any]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        return record

    def add_span(
        self, name: str, start: float, end: float, parent: Dict[str, Any], **attrs: Any
    ) -> Dict[str, Any]:
        """Fold an interval observed elsewhere (a worker's lifetime) in
        as a child of ``parent``."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"],
            "job": self.job,
            "start": start,
            "end": end,
        }
        record.update(attrs)
        self.spans.append(record)
        return record

    def self_time(self, record: Dict[str, Any]) -> float:
        """Duration of ``record`` minus the union of its children."""
        start, end = record["start"], record["end"]
        children = sorted(
            (max(s["start"], start), min(s["end"], end))
            for s in self.spans
            if s["parent"] == record["id"] and s["end"] is not None
        )
        covered = 0.0
        cursor = start
        for lo, hi in children:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        self.times[name] = self.times.get(name, 0.0) + seconds

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def checker_seconds(self) -> float:
        """Checker time so far, from the program's own timers."""
        timers = self.profiler.timers
        return timers.get("cal.check_s", 0.0) + timers.get("lin.check_s", 0.0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": self.counts,
                    "times": self.times,
                    "samples": self.samples,
                    "metrics": self.profiler.snapshot(),
                    "provenance": self.ledger.snapshot(),
                },
                handle,
                indent=1,
                sort_keys=True,
            )


class StampedSink(TraceSink):
    """A trace sink that stamps each event with ``time.perf_counter()``
    so that events can be paired into spans."""

    def _write(self, record: Dict[str, Any]) -> None:
        record["t"] = time.perf_counter()
        self.events.append(record)
