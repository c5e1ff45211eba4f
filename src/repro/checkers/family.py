"""Checker families: the one thing the driver loops vary on.

Classic linearizability is CAL with singleton CA-elements (§3,
:mod:`repro.checkers.adapter`), so a whole-program driver need not care
which of the two conditions it checks.  Each mode has exactly one loop —
:func:`~repro.checkers.verify.verify_runs` (every interleaving),
:func:`~repro.checkers.fuzz.fuzz_runs` (seeded random schedules) and
:func:`~repro.checkers.parallel.fuzz_fanout` (seed chunks over forked
workers) — parameterised by a :class:`CheckerFamily` record.

The public drivers (``verify_cal``, ``fuzz_linearizability``,
``fuzz_cal_parallel``, …) are thin entry points that bind a family; the
CLI and the campaign store look the family up in :data:`FAMILIES` by a
workload's checker kind (``"cal"`` or ``"lin"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping

from repro.checkers.cal import CALChecker
from repro.checkers.linearizability import LinearizabilityChecker


@dataclass(frozen=True)
class CheckerFamily:
    """Everything a driver loop needs to know about a correctness condition.

    ``checker`` builds the per-spec checker; it offers ``check`` (search,
    Def. 6) and ``check_witness`` (linear validation of a recorded
    auxiliary trace).  ``verify_defaults``/``fuzz_defaults`` hold the
    family's ``check_witness``/``search`` defaults per mode — the same
    values as the public entry points' signature defaults.
    ``verify_driver``/``fuzz_driver`` are the ``driver=`` labels the
    loops stamp on their trace events.

    ``fallback_needs_view`` is the degradation rule of a budget-cut
    search in exhaustive verification: CAL always falls back to witness
    validation, linearizability only when a ``view`` is given (a raw
    trace of a non-instrumented object is no linearization witness).
    """

    kind: str
    checker: Callable[[Any], Any]
    verify_driver: str
    fuzz_driver: str
    verify_defaults: Mapping[str, bool]
    fuzz_defaults: Mapping[str, bool]
    fallback_needs_view: bool

    def verify(self, setup, spec, **options):
        """Exhaustive verification with this family's defaults."""
        from repro.checkers.verify import verify_runs

        return verify_runs(self, setup, spec, **{**self.verify_defaults, **options})

    def fuzz(self, setup, spec, **options):
        """A sequential fuzz campaign with this family's defaults."""
        from repro.checkers.fuzz import fuzz_runs

        return fuzz_runs(self, setup, spec, **{**self.fuzz_defaults, **options})

    def fuzz_parallel(self, setup, spec, **options):
        """A forked fuzz campaign with this family's defaults."""
        from repro.checkers.parallel import fuzz_fanout

        return fuzz_fanout(self, setup, spec, **{**self.fuzz_defaults, **options})


CAL = CheckerFamily(
    kind="cal",
    checker=CALChecker,
    verify_driver="verify_cal",
    fuzz_driver="fuzz_cal",
    verify_defaults={"check_witness": True, "search": True},
    fuzz_defaults={"check_witness": True, "search": False},
    fallback_needs_view=False,
)

LIN = CheckerFamily(
    kind="lin",
    checker=LinearizabilityChecker,
    verify_driver="verify_linearizability",
    fuzz_driver="fuzz_linearizability",
    verify_defaults={"check_witness": False, "search": True},
    fuzz_defaults={"check_witness": False, "search": True},
    fallback_needs_view=True,
)

#: Checker kind (a workload's ``kind``, a campaign's ``checker``) → family.
FAMILIES: Dict[str, CheckerFamily] = {family.kind: family for family in (CAL, LIN)}
