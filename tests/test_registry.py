"""Registry conformance: every named CLI workload gives its documented
verdict with exactly the settings the registry hands the drivers.

A registry entry must never disagree with its objects' own tests.  The
sync-queue entry once validated the composite queue's raw auxiliary
trace instead of the §4 view ``F_SQ = sync_queue_view ∘ elim_array_view``
and so FAILed every completed run of a correct handoff queue.
"""

from __future__ import annotations

import pytest

from repro.cli import WORKLOADS, _durable_config, build_parser, main
from repro.store import default_campaign_id

#: Workloads whose fuzz campaign over seeds 0–199 must FAIL, with the
#: seed of the first counterexample; every other entry must pass.
EXPECTED_FAILURES = {"naive-queue": 86, "treiber-reuse": 94}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fuzz_verdict_matches_the_documented_one(name):
    workload = WORKLOADS[name]
    report = workload.family.fuzz(
        workload.make_setup(),
        workload.make_spec(),
        seeds=range(200),
        max_steps=workload.max_steps,
        **workload.fuzz_options(),
    )
    if name in EXPECTED_FAILURES:
        assert report.failures, report
        assert report.failures[0].seed == EXPECTED_FAILURES[name]
    else:
        assert report.ok, (report, report.failures[:1])
        assert report.unknown == 0


class TestSyncQueueView:
    def test_raw_trace_is_no_witness(self):
        """Without ``F_SQ`` the put/take handoff is two exchanger swaps,
        not one queue element: every completed run FAILs."""
        workload = WORKLOADS["sync-queue"]
        options = dict(workload.fuzz_options(), view=None)
        report = workload.family.fuzz(
            workload.make_setup(),
            workload.make_spec(),
            seeds=range(200),
            max_steps=workload.max_steps,
            shrink=False,
            **options,
        )
        assert len(report.failures) == report.runs == 54

    def test_bounded_verify_passes_through_the_view(self):
        workload = WORKLOADS["sync-queue"]
        report = workload.family.verify(
            workload.make_setup(),
            workload.make_spec(),
            max_steps=200,
            preemption_bound=2,
            **workload.verify_options(),
        )
        assert report.ok
        assert report.runs == 72

    @pytest.mark.parametrize("extra", [(), ("--workers", "2")])
    def test_cli_fuzz_verdict_is_ok(self, extra):
        argv = ["fuzz", "--workload", "sync-queue", "--seeds", "200", "--quiet"]
        assert main(argv + list(extra)) == 0

    def test_durable_fuzz_and_resume_are_ok(self, tmp_path):
        store = str(tmp_path / "campaigns.db")
        argv = [
            "fuzz", "--workload", "sync-queue", "--seeds", "100",
            "--checkpoint-every", "30", "--store", store, "--quiet",
        ]
        assert main(argv + ["--abort-after-checkpoints", "2"]) == 130
        assert main(["resume", "fuzz-sync-queue-5c975fd5ef", "--store", store,
                     "--quiet"]) == 0

    def test_view_stays_out_of_the_campaign_config(self):
        """The view is re-derived from the registry on resume; stored
        configs and derived campaign ids are what they were without it."""
        args = build_parser().parse_args(
            ["fuzz", "--workload", "sync-queue", "--seeds", "100",
             "--checkpoint-every", "30"]
        )
        config = _durable_config("fuzz", WORKLOADS["sync-queue"], args)
        assert config == {
            "seeds": 100,
            "checkpoint_every": 30,
            "max_steps": 2000,
            "dedup": False,
        }
        assert (
            default_campaign_id("fuzz", "sync-queue", config)
            == "fuzz-sync-queue-5c975fd5ef"
        )
