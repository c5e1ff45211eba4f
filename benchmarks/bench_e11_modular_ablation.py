"""E11 (ablation): modular verification vs monolithic checking.

Both pipelines check the same runs and must agree on every verdict:

* **modular** — validate the composed witness ``F_ES(T)`` (linear per
  run): the paper's proof style, where the elimination layer was
  specified and verified *once* (E4) and the stack's proof reuses that
  spec without looking inside the exchangers;
* **monolithic** — search for a linearization of the ES history from
  scratch (what a non-compositional checker must do).

At this workload size the runtime costs are comparable (memoized
Wing–Gong search is cheap on ≤8-operation histories; witness validation
pays view construction per run) — the measured numbers quantify that
honestly.  The paper's argument for modularity is *reuse and
proof-locality*, not checking speed: E4 + E5 + E6 share one exchanger
spec, and the search-based path cannot localize a failure to a
subobject, while witness validation can (see the bug-detection tests in
``tests/test_rg_exchanger.py``).
"""

from repro.checkers import LinearizabilityChecker
from repro.objects import POP_SENTINEL, EliminationStack
from repro.rg.views import (
    compose_views,
    elim_array_view,
    elimination_stack_view,
)
from repro.specs import StackSpec
from repro.substrate import Program, World, explore_all, spawn


def es_setup(scheduler):
    world = World()
    stack = EliminationStack(world, "ES", slots=1, max_attempts=2)
    es_setup.stack = stack
    program = Program(world)
    program.thread("t1", lambda ctx: stack.push(ctx, 7))
    program.thread("t2", lambda ctx: stack.pop(ctx))
    program.thread(
        "t3",
        spawn(lambda ctx: stack.push(ctx, 9), lambda ctx: stack.pop(ctx)),
    )
    return program.runtime(scheduler)


def _runs():
    collected = []
    for run in explore_all(es_setup, max_steps=250, preemption_bound=2):
        if run.completed:
            collected.append((run, es_setup.stack))
    return collected


def test_e11_modular_witness_validation(benchmark, record):
    runs = _runs()
    checker = LinearizabilityChecker(StackSpec("ES"))

    def modular():
        failures = 0
        for run, stack in runs:
            view = compose_views(
                elimination_stack_view(
                    stack.oid, stack.central.oid, stack.elim.oid, POP_SENTINEL
                ),
                elim_array_view(stack.elim.oid, stack.elim.subobject_ids),
            )
            witness = view(run.trace).project_object("ES")
            if not checker.check_witness(run.history, witness).ok:
                failures += 1
        return failures

    failures = benchmark.pedantic(modular, rounds=3, iterations=1)
    record(runs=len(runs), failures=failures, mode="modular")
    assert failures == 0


def test_e11_monolithic_search(benchmark, record):
    runs = _runs()
    checker = LinearizabilityChecker(StackSpec("ES"))

    def monolithic():
        failures = 0
        nodes = 0
        for run, _stack in runs:
            result = checker.check(run.history)
            nodes += result.nodes
            if not result.ok:
                failures += 1
        return failures, nodes

    failures, nodes = benchmark.pedantic(monolithic, rounds=3, iterations=1)
    record(runs=len(runs), failures=failures, search_nodes=nodes,
           mode="monolithic")
    assert failures == 0
