"""repro.sched — the unified scheduler core.

One :class:`Schedulable` protocol (``run_once(quantum) -> StepResult``
plus a cheap ``ready()`` hint), one round-robin :class:`Scheduler`, and
one quiescence/stall protocol.  Every run loop in the system — Fjords,
Execution Objects, the Executor, the server facade, Flux drains —
routes through here.
"""

from repro.sched.protocol import (FunctionUnit, Schedulable, StepResult,
                                  coerce_step_result, unit_ready)
from repro.sched.scheduler import (QuiescenceDetector, Scheduler,
                                   SchedulerStall, drive)

__all__ = [
    "FunctionUnit", "QuiescenceDetector", "Schedulable", "Scheduler",
    "SchedulerStall", "StepResult", "coerce_step_result", "drive",
    "unit_ready",
]
