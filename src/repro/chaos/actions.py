"""Chaos actions: faults injected into supervised workers.

A :class:`ChaosAction` is a small picklable description of one fault —
"SIGKILL yourself at the k-th visit to this guard site", "stop
heartbeating and freeze", "corrupt your result envelope" — that the
supervisor ships to a worker alongside the shard it targets.  The worker
applies it via :func:`prepare_task` *before* executing the shard, by
arming a per-process :class:`~repro.guard.FaultInjector` whose exception
factory performs the fault when the armed guard site is reached
(mid-construction, guaranteed: every shard keeps at least one rule, and
the ``fast.rule`` site fires once per rule).

Actions are addressed by ``(shard_index, attempt)`` through a
:class:`ChaosPlan`, so a scenario can fault attempt 0 and let the retry
run clean — or fault every attempt to force a degradation.  In the
pooled comparison pipeline the plan addresses the *construction-piece*
dispatches (phase 1 of :func:`repro.parallel.compare_sharded` — the
phase that owns the ``fast.rule`` site; the indices are longest-first
dispatch order, so index 0 is the heaviest piece).  Everything is
deterministic: the same plan against the same policies produces the
same failures, retries, and final report.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace

from repro.exceptions import FaultInjectedError
from repro.guard.fault import FaultInjector

__all__ = ["ChaosAction", "ChaosPlan", "prepare_task"]

#: The guard site chaos actions arm by default: visited once per rule
#: during a worker's FDD construction, so ``after=1`` lands the fault
#: mid-shard (after the first rule, before the last).
DEFAULT_SITE = "fast.rule"


@dataclass(frozen=True)
class ChaosAction:
    """One fault to apply inside a worker process.

    ``kind``
        * ``"kill"`` — ``os.kill(getpid(), SIGKILL)`` at the armed site:
          the parent sees a dead pipe (**worker-crash**).
        * ``"hang"`` — sleep ``hang_s`` at the armed site; with
          ``stop_heartbeat`` the heartbeat thread is silenced first, so
          the parent sees a stale heartbeat (**worker-hang**), otherwise
          the heartbeat keeps beating and only a configured shard
          deadline catches it (**shard-deadline**).
        * ``"raise"`` — raise
          :class:`~repro.exceptions.FaultInjectedError` at the armed
          site (**worker-error**).
        * ``"corrupt"`` — run the shard normally but flip one byte of
          the pickled result after its checksum was computed
          (**corrupt-result**).
    """

    kind: str
    #: Guard site to arm (ignored for ``"corrupt"``).
    site: str = DEFAULT_SITE
    #: Visits to the site before the fault fires (``fire`` semantics).
    after: int = 1
    #: Sleep length for ``"hang"`` — longer than any supervision
    #: timeout, so the parent always kills first.
    hang_s: float = 60.0
    #: Whether ``"hang"`` silences the heartbeat thread.
    stop_heartbeat: bool = True
    #: Seed picking which byte ``"corrupt"`` flips.
    corrupt_seed: int = 1


class ChaosPlan:
    """Maps ``(shard_index, attempt)`` dispatches to chaos actions.

    Lives in the parent; only the matched :class:`ChaosAction` crosses
    the pipe with its dispatch.  Dispatches with no entry run clean —
    which is how single-fault scenarios let the retry succeed.
    """

    def __init__(self, actions: dict[tuple[int, int], ChaosAction]):
        self._actions = dict(actions)

    def action_for(self, shard_index: int, attempt: int) -> ChaosAction | None:
        """The action for this dispatch, or ``None`` to run clean."""
        return self._actions.get((shard_index, attempt))

    def __len__(self) -> int:
        return len(self._actions)


def _kill_self(site: str) -> BaseException:
    """Exception factory that SIGKILLs the worker instead of raising."""
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60.0)  # SIGKILL delivery is async; never actually returns
    return FaultInjectedError(site)


def prepare_task(action: ChaosAction, task, hb_stop):
    """Apply ``action`` to ``task`` inside the worker (supervisor hook).

    Called by the worker loop before executing a dispatched task that
    carried a chaos action.  Returns ``(task, corrupt_seed)``: for
    ``"corrupt"`` the task runs unmodified and the returned seed tells
    the worker loop to flip a byte of the pickled result *after*
    checksumming; for every other kind the task's fault injector is
    replaced with one armed to perform the fault at ``action.site``, and
    the seed is ``None``.  ``hb_stop`` is the worker's heartbeat-stop
    event (set by hanging actions to simulate a frozen process).
    """
    if action.kind == "corrupt":
        return task, action.corrupt_seed
    if action.kind == "kill":
        factory = _kill_self
    elif action.kind == "hang":

        def factory(site: str) -> BaseException:
            if action.stop_heartbeat:
                hb_stop.set()
            time.sleep(action.hang_s)
            return FaultInjectedError(site)  # parent kills us first

    elif action.kind == "raise":
        factory = FaultInjectedError
    else:
        raise ValueError(f"unknown chaos action kind: {action.kind!r}")
    injector = FaultInjector()
    injector.arm(action.site, after=action.after, exception=factory)
    return replace(task, fault=injector), None
