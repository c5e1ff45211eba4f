"""The checker-family table behind the driver loops.

One verify loop, one fuzz loop and one forked fan-out serve both the
CAL and the linearizability family; the public drivers bind a family.
These tests pin what a family contributes — the ``driver=`` label of
every trace event, the defaults, the witness validator — so that the
binding cannot drift silently.
"""

from __future__ import annotations

import inspect

import pytest

from repro.checkers import (
    LinearizabilityChecker,
    fuzz_cal,
    fuzz_cal_parallel,
    fuzz_linearizability,
    fuzz_linearizability_parallel,
    verify_cal,
    verify_linearizability,
)
from repro.checkers.family import CAL, FAMILIES, LIN
from repro.core.catrace import CAElement, CATrace
from repro.obs.metrics import Metrics
from repro.obs.tracing import TraceSink
from repro.specs import ExchangerSpec, RegisterSpec
from repro.workloads.programs import exchanger_program, register_program

from tests.helpers import op, seq_history

#: family kind → (program, spec, verify driver, fuzz driver, parallel driver)
CASES = {
    "cal": (
        lambda: exchanger_program([3, 4]),
        lambda: ExchangerSpec("E"),
        verify_cal,
        fuzz_cal,
        fuzz_cal_parallel,
    ),
    "lin": (
        lambda: register_program([1], readers=1),
        lambda: RegisterSpec("R", initial_value=0),
        verify_linearizability,
        fuzz_linearizability,
        fuzz_linearizability_parallel,
    ),
}

LABELS = {
    "cal": ("verify_cal", "fuzz_cal"),
    "lin": ("verify_linearizability", "fuzz_linearizability"),
}


def _labelled(sink):
    """(event, driver) for every trace event that carries a driver."""
    return [(e["event"], e["driver"]) for e in sink.events if "driver" in e]


@pytest.mark.parametrize("kind", sorted(CASES))
class TestDriverLabels:
    def test_sequential_verify(self, kind):
        program, spec, verify, _, _ = CASES[kind]
        sink = TraceSink()
        verify(program(), spec(), max_steps=100, trace=sink, progress_every=1)
        label = LABELS[kind][0]
        events = _labelled(sink)
        assert {event for event, _ in events} == {
            "verify_begin",
            "campaign_progress",
            "verify_end",
        }
        assert {driver for _, driver in events} == {label}

    def test_sequential_fuzz(self, kind):
        program, spec, _, fuzz, _ = CASES[kind]
        sink = TraceSink()
        fuzz(program(), spec(), seeds=range(6), max_steps=200, trace=sink,
             progress_every=2)
        label = LABELS[kind][1]
        events = _labelled(sink)
        assert {event for event, _ in events} == {
            "campaign_begin",
            "campaign_progress",
            "campaign_end",
        }
        assert {driver for _, driver in events} == {label}

    def test_parallel_fuzz(self, kind):
        program, spec, _, _, fuzz_parallel = CASES[kind]
        sink = TraceSink()
        fuzz_parallel(program(), spec(), seeds=range(12), workers=2,
                      max_steps=200, trace=sink, progress_every=1)
        events = _labelled(sink)
        assert [event for event, _ in events] == ["campaign_progress"] * 2
        assert {driver for _, driver in events} == {LABELS[kind][1]}

    def test_family_lookup_labels_like_the_entry_points(self, kind):
        program, spec, _, _, _ = CASES[kind]
        family = FAMILIES[kind]
        sink = TraceSink()
        family.verify(program(), spec(), max_steps=100, trace=sink)
        family.fuzz(program(), spec(), seeds=range(4), max_steps=200,
                    trace=sink)
        family.fuzz_parallel(program(), spec(), seeds=range(4), workers=2,
                             max_steps=200, trace=sink, progress_every=1)
        assert {driver for _, driver in _labelled(sink)} == set(LABELS[kind])


@pytest.mark.parametrize(
    "family, mode, driver",
    [
        (CAL, "verify", verify_cal),
        (CAL, "fuzz", fuzz_cal),
        (CAL, "fuzz", fuzz_cal_parallel),
        (LIN, "verify", verify_linearizability),
        (LIN, "fuzz", fuzz_linearizability),
        (LIN, "fuzz", fuzz_linearizability_parallel),
    ],
)
def test_family_defaults_match_the_entry_points(family, mode, driver):
    defaults = getattr(family, f"{mode}_defaults")
    parameters = inspect.signature(driver).parameters
    for name, value in defaults.items():
        if name in parameters:
            assert parameters[name].default == value, (driver.__name__, name)
        else:  # linearizability entry points always search
            assert (name, value) == ("search", True)


WRITE = op("t1", "R", "write", (1,), (None,))
READ = op("t2", "R", "read", (), (1,))


def _singletons(*ops):
    return CATrace(CAElement("R", [o]) for o in ops)


class TestLinearizabilityWitness:
    """``LinearizabilityChecker.check_witness``: a linear validator that
    visits no nodes and records no counters."""

    checker = LinearizabilityChecker(RegisterSpec("R", initial_value=0))

    def test_valid_witness(self):
        result = self.checker.check_witness(
            seq_history(WRITE, READ), _singletons(WRITE, READ)
        )
        assert result.ok and result.nodes == 0

    @pytest.mark.parametrize(
        "trace, reason",
        [
            (_singletons(READ, WRITE), "witness rejected by sequential spec"),
            (
                CATrace([CAElement("R", [WRITE, READ])]),
                "witness contains non-singleton elements",
            ),
        ],
    )
    def test_rejections_keep_their_reasons(self, trace, reason):
        result = self.checker.check_witness(seq_history(WRITE, READ), trace)
        assert not result.ok and result.reason == reason
        assert result.nodes == 0

    def test_history_must_agree(self):
        """A legal linearization the history's real-time order forbids."""
        result = self.checker.check_witness(
            seq_history(READ, WRITE), _singletons(WRITE, READ)
        )
        assert result.reason == "history does not agree with witness (Def. 5)"

    def test_records_no_counters(self):
        metrics = Metrics()
        self.checker.check_witness(
            seq_history(WRITE, READ), _singletons(WRITE, READ), metrics=metrics
        )
        assert metrics.snapshot()["counters"] == {}
