"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by half or more
within minutes, for as long as minutes at a time: a 10-second window that
starts in a slow period stays slow, so no amount of repetition inside one
run evens it out.  The benchmark therefore measures the host's speed
beside the program: between jobs, at most every :data:`PROBE_EVERY`
seconds, it times :func:`kernel`, a fixed pure-Python computation that
imports nothing from the program (so no change to the program can speed
it up or slow it down).  Every time the benchmark reports is the measured
wall time scaled to the *reference speed*, the speed at which one kernel
call takes :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / (median kernel time around it)

The kernel has two halves of about equal time.  One does the kind of
work the program does: it enumerates every interleaving of a few threads
over a shared register (tuples, dicts, a depth-first search) and checks
each distinct history against an atomic register with a memoised
backtracking search (frozensets, sets), as the explorers and checkers do.
The other is a plain integer loop.  Measured against the benchmark's own
jobs on a shared 2-vCPU VM, each half alone slowed down more than the
jobs did in the host's slow periods; their sum tracked the jobs closest
(it cut the spread of 8-second windows of a fixed job mix from 0.28 to
0.08 of the median).  The scaling is not exact, so reported figures
still move a little with the host.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, FrozenSet, List, Set, Tuple

#: Kernel seconds at the reference speed; about its median on a 2-vCPU
#: cloud VM, so reported times are close to wall times on such a host.
REFERENCE_S = 0.008
#: Probe at most this often (seconds of wall time) between jobs.
PROBE_EVERY = 0.25
#: A job is scaled by the median of the probes this many seconds around it.
NEIGHBOURHOOD_S = 1.5

#: Per thread, the operations it performs: ("w", value) or ("r",).
_THREADS = ((("w", 1),), (("w", 2),), (("r",), ("r",)))

Event = Tuple[str, int, str, int]  # ("inv" | "res", thread, op, value)


def _histories() -> Set[Tuple[Event, ...]]:
    """Every history of :data:`_THREADS`, each operation split into an
    invocation and a response step, under every interleaving."""
    found: Set[Tuple[Event, ...]] = set()
    steps = [2 * len(ops) for ops in _THREADS]

    def dfs(pcs: Tuple[int, ...], memory: Dict[str, int], history: Tuple[Event, ...]) -> None:
        if all(pc == n for pc, n in zip(pcs, steps)):
            found.add(history)
            return
        for tid, pc in enumerate(pcs):
            if pc == steps[tid]:
                continue
            op = _THREADS[tid][pc // 2]
            state = dict(memory)
            if pc % 2 == 0:
                event = ("inv", tid, op[0], op[1] if op[0] == "w" else 0)
            elif op[0] == "w":
                state["x"] = op[1]
                event = ("res", tid, "w", 0)
            else:
                event = ("res", tid, "r", state["x"])
            dfs(pcs[:tid] + (pc + 1,) + pcs[tid + 1:], state, history + (event,))

    dfs(tuple(0 for _ in _THREADS), {"x": 0}, ())
    return found


def _linearizable(history: Tuple[Event, ...]) -> bool:
    """Wing-Gong search for a register linearization, memoised on
    (operations done, register value)."""
    ops: List[Tuple[int, int, str, int]] = []  # (invoked at, responded at, op, value)
    open_at: Dict[int, int] = {}
    for index, (kind, tid, op, value) in enumerate(history):
        if kind == "inv":
            open_at[tid] = len(ops)
            ops.append((index, -1, op, value))
        else:
            slot = open_at.pop(tid)
            invoked, _, name, arg = ops[slot]
            ops[slot] = (invoked, index, name, value if name == "r" else arg)
    seen: Set[Tuple[FrozenSet[int], int]] = set()

    def search(done: FrozenSet[int], value: int) -> bool:
        if len(done) == len(ops):
            return True
        if (done, value) in seen:
            return False
        seen.add((done, value))
        horizon = min(ops[i][1] for i in range(len(ops)) if i not in done)
        for i, (invoked, _, name, arg) in enumerate(ops):
            if i in done or invoked > horizon:
                continue
            if name == "w" and search(done | {i}, arg):
                return True
            if name == "r" and arg == value and search(done | {i}, value):
                return True
        return False

    return search(frozenset(), 0)


def _arithmetic(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def kernel() -> int:
    """The reference computation; returns a checksum so that it cannot be
    skipped.  Every interleaving of an atomic register is linearizable."""
    histories = _histories()
    linearizable = sum(_linearizable(h) for h in sorted(histories)[::8])
    return linearizable + _arithmetic(50_000)


def kernel_seconds(count: int) -> List[float]:
    """Wall seconds of ``count`` kernel calls."""
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        seconds.append(time.perf_counter() - started)
    return seconds


class Speedometer:
    """Kernel timings through a run, and the scale they give each interval."""

    def __init__(self) -> None:
        self.stamps: List[float] = []  # midpoint of each probe
        self.seconds: List[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.stamps.append((started + ended) / 2)
        self.seconds.append(ended - started)
        self._last = ended

    def tick(self) -> None:
        """Probe if :data:`PROBE_EVERY` seconds have passed since the last."""
        if time.perf_counter() - self._last >= PROBE_EVERY:
            self.probe()

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.probe()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time of the probes near ``[start, end]`` (at least
        the three nearest, when few lie inside the neighbourhood)."""
        lo = bisect.bisect_left(self.stamps, start - NEIGHBOURHOOD_S)
        hi = bisect.bisect_right(self.stamps, end + NEIGHBOURHOOD_S)
        if hi - lo < 3:
            middle = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo, hi = max(0, middle - 2), min(len(self.stamps), middle + 2)
        return statistics.median(self.seconds[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor taking wall seconds in ``[start, end]`` to reference seconds."""
        return REFERENCE_S / self.kernel_s(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(self.seconds)
