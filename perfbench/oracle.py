"""Known answers for every benchmark job, and the helpers that check them.

The answers live in ``answers.json`` next to this file.  They are pinned
once by ``pin.py`` from engines independent of the code under test, so a
later change cannot move both the program and its yardstick:

* exhaustive jobs: the set of distinct complete-run histories, enumerated
  by the unreduced explorer where it finishes and by the sleep-set
  explorer where it does not (never by DPOR, the engine being timed);
* recorded-history jobs: verdicts from ``repro.checkers._reference``,
  the seed search core, never from the core being timed.

Nothing here imports the program at module load; callers import this
module after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, Tuple

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


def load_answers() -> Dict[str, Any]:
    with open(ANSWERS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def history_key(history) -> Tuple[Tuple[str, ...], ...]:
    """A canonical, engine-independent key for one recorded history."""
    return tuple(
        (
            "i" if action.is_invocation else "r",
            action.tid,
            action.oid,
            action.method,
            repr(action.args if action.is_invocation else action.value),
        )
        for action in history.actions
    )


def history_set_digest(keys: Iterable[Tuple]) -> Tuple[int, str]:
    """(count, sha256) of a set of :func:`history_key` values."""
    lines = sorted({repr(key) for key in keys})
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(lines), digest


def corrupt_response(history, oid: str, index: int):
    """Flip the ``index``-th response of ``oid`` the way
    ``repro.workloads.synthetic.corrupted`` flips the last one: every
    non-bool int in the value goes up by one, or ``999`` is appended when
    there is none.  The benchmark picks ``index`` from its seed."""
    from repro.core.actions import Response
    from repro.core.history import History

    actions = list(history.actions)
    positions = [
        position
        for position, action in enumerate(actions)
        if not action.is_invocation and action.oid == oid
    ]
    position = positions[index]
    action = actions[position]
    bad = tuple(
        (v + 1) if isinstance(v, int) and not isinstance(v, bool) else v
        for v in action.value
    )
    if bad == action.value:
        bad = action.value + (999,)
    actions[position] = Response(action.tid, action.oid, action.method, bad)
    return History(actions)


def response_count(history, oid: str) -> int:
    return sum(
        1 for action in history.actions
        if not action.is_invocation and action.oid == oid
    )
