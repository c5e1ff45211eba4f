"""Whole-program verification drivers.

These tie the substrate to the checkers: explore every interleaving of a
program (exhaustively, up to a step bound) and check each run's history
against a specification — by search (Def. 6 directly) and/or by
validating the recorded auxiliary-trace witness (the paper's
instrumentation-based proof technique, §4–§5).

Robustness: exploration takes an optional
:class:`~repro.substrate.explore.ExploreBudget` and each per-run search a
``node_budget``/``deadline``; when a budget trips, the driver degrades —
falling back from exhaustive search to linear witness validation where it
can — and the report's verdict is ``UNKNOWN`` instead of the process
hanging on a factorial schedule or search space.

There is one exploration loop, :func:`verify_runs`, parameterised by a
:class:`~repro.checkers.family.CheckerFamily`; :func:`verify_cal` and
:func:`verify_linearizability` are entry points binding the CAL and the
linearizability family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.checkers.caspec import CASpec
from repro.checkers.family import CAL, LIN, CheckerFamily
from repro.checkers.result import Verdict
from repro.checkers.seqspec import SequentialSpec
from repro.core.catrace import CATrace
from repro.core.history import History
from repro.obs.coverage import CoverageTracker
from repro.obs.metrics import Metrics, observe_run
from repro.obs.provenance import ExplorationLedger
from repro.obs.report import CounterexampleReport
from repro.substrate.explore import (
    ExploreBudget,
    SetupFn,
    explore_all,
    validate_exploration,
)


@dataclass
class Failure:
    """One run that violated the specification.

    ``report`` carries the rendered
    :class:`~repro.obs.report.CounterexampleReport` (timeline + replay
    snippet) for the failing run.
    """

    schedule: List[int]
    history: History
    trace: CATrace
    reason: str
    report: Optional[CounterexampleReport] = None

    def __repr__(self) -> str:
        return f"Failure({self.reason}; schedule={self.schedule})"


@dataclass
class VerificationReport:
    """Aggregate outcome of checking every explored run.

    ``unknown`` counts runs whose search was cut by a budget;
    ``budget`` (when supplied) records whether exploration itself was
    cut short.  :attr:`verdict` folds both into the three-valued answer:
    a clean ``OK`` needs every run checked and every check definitive.
    ``stats`` is the driver's :meth:`~repro.obs.metrics.Metrics.snapshot`
    when run with ``metrics=``.
    """

    runs: int = 0
    incomplete: int = 0
    nodes: int = 0
    failures: List[Failure] = field(default_factory=list)
    unknown: int = 0
    budget: Optional[ExploreBudget] = None
    stats: Optional[Dict[str, Dict[str, Any]]] = None
    coverage: Optional[Dict[str, Any]] = None
    #: :meth:`ExplorationLedger.snapshot` of the driver's reduction
    #: audit (None unless run with ``provenance=``).
    provenance: Optional[Dict[str, Any]] = None

    @property
    def verdict(self) -> Verdict:
        if self.failures:
            return Verdict.FAIL
        if (
            self.runs == 0
            or self.unknown
            or (self.budget is not None and self.budget.tripped)
        ):
            return Verdict.UNKNOWN
        return Verdict.OK

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.OK

    def merge(self, other: "VerificationReport") -> None:
        """Fold another report's tallies, failures and stats into this one.

        Like :meth:`~repro.checkers.fuzz.FuzzReport.merge`, the fold is
        associative and order-restoring: a verification campaign sharded
        by ``pin_prefix`` (the durable-campaign checkpoint unit) merges,
        shard by shard in pin order, to exactly the report a single
        unsharded sweep produces.  ``budget`` objects are not merged —
        sharded durable campaigns run each shard to completion instead.
        """
        self.runs += other.runs
        self.incomplete += other.incomplete
        self.nodes += other.nodes
        self.unknown += other.unknown
        self.failures.extend(other.failures)
        self.stats = _merge_snapshot(Metrics, self.stats, other.stats)
        self.coverage = _merge_snapshot(
            CoverageTracker, self.coverage, other.coverage
        )
        self.provenance = _merge_snapshot(
            ExplorationLedger, self.provenance, getattr(other, "provenance", None)
        )

    def __repr__(self) -> str:
        if self.ok:
            verdict = "OK"
        elif self.failures:
            verdict = f"{len(self.failures)} failure(s)"
        else:
            verdict = "UNKNOWN"
        extra = f", unknown={self.unknown}" if self.unknown else ""
        return (
            f"VerificationReport({verdict}, runs={self.runs}, "
            f"cut={self.incomplete}, nodes={self.nodes}{extra})"
        )


ViewFn = Callable[[CATrace], CATrace]


# ----------------------------------------------------------------------
# Observer plumbing shared by the verify, fuzz and fan-out loops
# ----------------------------------------------------------------------
def _merge_snapshot(kind, mine, theirs):
    """Merge two ``kind.snapshot()`` values (either may be None).

    ``kind`` is an observer class with the snapshot merge law —
    :class:`~repro.obs.metrics.Metrics`,
    :class:`~repro.obs.coverage.CoverageTracker`,
    :class:`~repro.search.corpus.ScheduleCorpus` or
    :class:`~repro.obs.provenance.ExplorationLedger`.
    """
    if theirs is None:
        return mine
    merged = kind.from_snapshot(theirs)
    if mine is not None:
        merged = kind.from_snapshot(mine).merge(merged)
    return merged.snapshot()


def _campaign_local(observer):
    """A fresh, empty observer of the caller's class (None stays None).

    A campaign records into its own instance, exposes the snapshot on
    its report and merges into the caller's observer on the way out.
    Instantiating ``type(observer)`` (not the base class) keeps
    profiling registries (:class:`~repro.obs.profile.SearchProfiler`)
    working end-to-end: the instance the checkers see carries the same
    hooks as the caller's.
    """
    return type(observer)() if observer is not None else None


def _close_observers(report, campaign, metrics, coverage, audit, provenance):
    """Snapshot a finished campaign's observers onto ``report`` and merge
    the campaign-local ``campaign``/``audit`` into the caller's."""
    if campaign is not None:
        report.stats = campaign.snapshot()
        metrics.merge(campaign)
    if coverage is not None:
        report.coverage = coverage.snapshot()
    if audit is not None:
        report.provenance = audit.snapshot()
        provenance.merge(audit)


def _fold_into_caller(merged, metrics, coverage, provenance):
    """Fold a merged multi-chunk report's observer snapshots into the
    caller's observers.

    ``merged.coverage``/``merged.provenance`` are then re-snapshotted
    from the caller's whole tracker/ledger — the contract of the
    sequential loops — while ``merged.stats`` stays the campaign's own.
    """
    if metrics is not None and merged.stats is not None:
        metrics.merge(Metrics.from_snapshot(merged.stats))
    if coverage is not None and merged.coverage is not None:
        coverage.merge(CoverageTracker.from_snapshot(merged.coverage))
        merged.coverage = coverage.snapshot()
    if provenance is not None and merged.provenance is not None:
        provenance.merge(ExplorationLedger.from_snapshot(merged.provenance))
        merged.provenance = provenance.snapshot()


def _record_failure(
    report: VerificationReport,
    run,
    witness: CATrace,
    reason: str,
    oid: str,
    max_steps: Optional[int],
) -> None:
    """Append a Failure with its counterexample report attached."""
    failure = Failure(run.schedule, run.history, witness, reason)
    failure.report = CounterexampleReport.build(
        run.history,
        reason,
        schedule=run.schedule,
        oid=oid,
        max_steps=max_steps,
    )
    report.failures.append(failure)


def verify_runs(
    family: CheckerFamily,
    setup: SetupFn,
    spec,
    *,
    check_witness: bool,
    search: bool,
    max_steps: Optional[int] = None,
    view: Optional[ViewFn] = None,
    limit: Optional[int] = None,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    pin_prefix: Sequence[int] = (),
    reduction: str = "none",
    sleep_seed=None,
    provenance=None,
) -> VerificationReport:
    """The exhaustive-verification loop, shared by every checker family.

    Explores every run of ``setup`` and checks each completed one with
    ``family.checker(spec)``: by witness validation, by search, or both
    (see :func:`verify_cal`).  A budget-cut search counts the run
    ``unknown`` and degrades by ``family``'s fallback rule.
    """
    validate_exploration(reduction, preemption_bound=preemption_bound)
    checker = family.checker(spec)
    report = VerificationReport(budget=budget)
    campaign = _campaign_local(metrics)
    audit = _campaign_local(provenance)
    started = time.monotonic()
    attempted = 0
    if budget is not None:
        budget.start()
    if trace is not None:
        trace.emit("verify_begin", driver=family.verify_driver, oid=spec.oid)
    for run in explore_all(
        setup,
        max_steps=max_steps,
        limit=limit,
        preemption_bound=preemption_bound,
        budget=budget,
        pin_prefix=pin_prefix,
        reduction=reduction,
        sleep_seed=sleep_seed,
        provenance=audit,
    ):
        if campaign is not None:
            observe_run(campaign, run)
        position, attempted = attempted, attempted + 1
        if coverage is not None:
            coverage.observe_run(position, run.schedule, run.history, oid=spec.oid)
        if trace is not None and progress_every and attempted % progress_every == 0:
            live = {}
            if coverage is not None:
                live["distinct_histories"] = len(coverage.histories)
            trace.emit(
                "campaign_progress",
                driver=family.verify_driver,
                attempted=attempted,
                runs=report.runs + (1 if run.completed else 0),
                failures=len(report.failures),
                unknown=report.unknown,
                elapsed_s=time.monotonic() - started,
                **live,
            )
        if not run.completed:
            report.incomplete += 1
            continue
        report.runs += 1
        history = run.history
        recorded = view(run.trace) if view is not None else run.trace
        witness = recorded.project_object(spec.oid)
        if coverage is not None:
            coverage.observe_spec_trace(spec, witness)
        witness_checked = False
        if check_witness:
            result = checker.check_witness(history, witness, metrics=campaign)
            report.nodes += result.nodes
            witness_checked = True
            if not result.ok:
                _record_failure(
                    report, run, witness, result.reason, spec.oid, max_steps
                )
                continue
        if search:
            result = checker.check(
                history,
                node_budget=node_budget,
                deadline=deadline,
                metrics=campaign,
                trace=trace,
            )
            report.nodes += result.nodes
            if result.unknown:
                report.unknown += 1
                if not witness_checked and (
                    view is not None or not family.fallback_needs_view
                ):
                    # Degrade: the linear witness check still decides
                    # this run even when search is over budget.
                    fallback = checker.check_witness(
                        history, witness, metrics=campaign
                    )
                    report.nodes += fallback.nodes
                    if not fallback.ok:
                        _record_failure(
                            report,
                            run,
                            witness,
                            fallback.reason,
                            spec.oid,
                            max_steps,
                        )
                continue
            if not result.ok:
                _record_failure(
                    report, run, run.trace, result.reason, spec.oid, max_steps
                )
    _close_observers(report, campaign, metrics, coverage, audit, provenance)
    if trace is not None:
        trace.emit(
            "verify_end",
            driver=family.verify_driver,
            verdict=report.verdict.value,
            runs=report.runs,
            failures=len(report.failures),
            unknown=report.unknown,
        )
    return report


def verify_cal(
    setup: SetupFn,
    spec: CASpec,
    max_steps: Optional[int] = None,
    check_witness: bool = True,
    search: bool = True,
    view: Optional[ViewFn] = None,
    limit: Optional[int] = None,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    pin_prefix: Sequence[int] = (),
    reduction: str = "none",
    sleep_seed=None,
    provenance=None,
) -> VerificationReport:
    """Explore all runs of ``setup`` and check CAL w.r.t. ``spec``.

    ``check_witness`` validates the recorded auxiliary trace of each run
    (viewed through ``view`` when the object is composite — §4's
    ``T_o = F_o(T)``); ``search`` independently looks for *some* agreeing
    spec trace (Def. 6).  Enabling both cross-validates instrumentation
    against the definition.

    When a per-run search trips its ``node_budget``/``deadline``, the
    driver falls back to witness validation for that run (if not already
    performed) and counts the run ``unknown`` — degraded but never hung.

    ``metrics``/``trace`` (see :mod:`repro.obs`) observe the driver; the
    driver's counters land in ``report.stats`` and are merged into the
    caller's ``metrics``.  ``coverage``
    (:class:`~repro.obs.coverage.CoverageTracker`) fingerprints every
    explored run; its snapshot lands in ``report.coverage``.  With
    ``progress_every > 0`` and a trace sink, a ``campaign_progress``
    event is emitted every that many explored runs.

    ``pin_prefix`` confines exploration to one decision subtree (see
    :func:`~repro.substrate.explore.explore_all`) — the sharding hook
    durable campaigns checkpoint on: per-shard reports merged in pin
    order (:meth:`VerificationReport.merge`) equal an unsharded sweep.

    ``reduction="sleep-set"`` / ``reduction="dpor"`` prune
    commutativity-equivalent interleavings during exploration (see
    :func:`~repro.substrate.explore.explore_all`): the verdict and the
    set of distinct failing histories are preserved, with strictly
    fewer runs checked whenever independent steps commute.
    ``sleep_seed`` hands a sharded reduced sweep the sleep state of its
    siblings (see :func:`~repro.substrate.explore.shard_sleep_seeds`);
    the reduction/bound combination is validated before any trace event
    is emitted.

    ``provenance`` (an :class:`~repro.obs.provenance.ExplorationLedger`)
    audits the reduced engines' schedule dispositions — executed,
    pruned, race-reversed, with race evidence under ``"dpor"`` — into a
    campaign-local ledger whose snapshot lands in ``report.provenance``
    and merges into the caller's ledger, mirroring ``metrics``.
    Observation-only: the explored schedules are identical either way.
    """
    # The parameters, forwarded verbatim to the shared loop.
    return verify_runs(CAL, **locals())


def verify_linearizability(
    setup: SetupFn,
    spec: SequentialSpec,
    max_steps: Optional[int] = None,
    check_witness: bool = False,
    view: Optional[ViewFn] = None,
    limit: Optional[int] = None,
    preemption_bound: Optional[int] = None,
    budget: Optional[ExploreBudget] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    metrics=None,
    trace=None,
    coverage=None,
    progress_every: int = 0,
    pin_prefix: Sequence[int] = (),
    reduction: str = "none",
    sleep_seed=None,
    provenance=None,
) -> VerificationReport:
    """Explore all runs of ``setup`` and check classic linearizability.

    With ``check_witness``, the recorded trace (viewed through ``view``)
    must consist of singleton elements forming a legal linearization that
    the history agrees with
    (:meth:`~repro.checkers.linearizability.LinearizabilityChecker.check_witness`)
    — the modular elimination-stack proof (E5) uses exactly this with
    ``view = F_ES``.  Every run is also searched.

    Budgets degrade as in :func:`verify_cal`, except that a budget-cut
    search falls back to witness validation only when a view is
    available; the run counts as ``unknown`` either way.
    ``metrics``/``trace``/``coverage``/``progress_every``/``pin_prefix``/
    ``reduction``/``sleep_seed``/``provenance`` behave as in
    :func:`verify_cal`.
    """
    return verify_runs(LIN, search=True, **locals())
