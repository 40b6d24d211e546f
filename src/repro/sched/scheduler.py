"""The unified scheduler core (Section 4.2.2's executor, generalised).

One :class:`Scheduler` replaces the four hand-rolled run loops the repo
used to carry (``Fjord.step``/``run``, ``ExecutionObject``/``Executor``
passes, ``TelegraphCQServer.step``, Flux drain ticks).  It hosts any
number of :class:`~repro.sched.protocol.Schedulable` units and runs
them round-robin: every live unit runs once per pass, in registration
order, with the caller's quantum.  It provides:

* one progress vocabulary — every pass returns a
  :class:`~repro.sched.protocol.StepResult`;
* one quiescence/stall protocol — :class:`QuiescenceDetector` decides
  "no progress" and "will never finish" the same way everywhere;
* scheduler telemetry — passes, registered units and ready-set
  occupancy, published through the process registry as
  ``tcq_sched_*`` series.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.errors import ExecutionError
from repro.monitor.telemetry import get_registry
import repro.monitor.tracing as tracing
from repro.sched.protocol import StepResult, coerce_step_result, unit_ready

_SCHED_IDS = itertools.count()


class SchedulerStall(ExecutionError):
    """``run_until_finished`` exhausted its pass budget with live units.

    Carries the names of the stuck units so callers can build their own
    diagnostics (Fjord re-raises as a PlanError naming its modules).
    """

    def __init__(self, scheduler: str, stuck: List[str], passes: int):
        self.scheduler = scheduler
        self.stuck = list(stuck)
        self.passes = passes
        super().__init__(
            f"{scheduler}: units {self.stuck} did not finish within "
            f"{passes} passes")


class QuiescenceDetector:
    """The shared stall/idle detector.

    A scheduling pass that reports no progress while every pollable
    source is exhausted is *quiescent*; ``idle_limit`` consecutive such
    passes stop a drive loop.  The default of 1 is bit-compatible with
    every historical loop (they all stopped on the first idle pass).
    """

    def __init__(self, idle_limit: int = 1):
        if idle_limit < 1:
            raise ExecutionError("idle_limit must be >= 1")
        self.idle_limit = idle_limit
        self.idle_passes = 0

    def observe(self, result: StepResult) -> bool:
        """Feed one pass result; returns True once quiescent."""
        if result.worked:
            self.idle_passes = 0
            return False
        self.idle_passes += 1
        return self.idle_passes >= self.idle_limit

    def reset(self) -> None:
        self.idle_passes = 0


class Scheduler:
    """Round-robin cooperative scheduler over Schedulable units."""

    def __init__(self, name: str = "", telemetry: bool = True):
        self.name = name or f"sched#{next(_SCHED_IDS)}"
        self._units: List[Any] = []
        self._by_name: Dict[str, Any] = {}
        self.passes = 0
        if telemetry:
            self._telemetry = get_registry()
            self._telemetry.register_collector(self._publish_telemetry)
        else:
            self._telemetry = None

    # -- membership ---------------------------------------------------------
    def add(self, unit: Any) -> None:
        name = getattr(unit, "name", "") or f"unit{len(self._units)}"
        if name in self._by_name:
            raise ExecutionError(
                f"{self.name}: duplicate schedulable name {name!r}")
        self._units.append(unit)
        self._by_name[name] = unit

    def remove(self, name: str) -> None:
        unit = self._by_name.pop(name, None)
        if unit is not None:
            self._units.remove(unit)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self) -> List[Any]:
        return list(self._units)

    @property
    def live_units(self) -> int:
        return sum(1 for unit in self._units if not unit.finished)

    # -- the pass -----------------------------------------------------------
    def pass_once(self, quantum: Optional[int] = None) -> StepResult:
        """One scheduling pass: every live unit gets one quantum, in
        registration order.  Returns the merged :class:`StepResult`
        (worked = any progressed, finished = every registered unit is
        finished)."""
        self.passes += 1
        tracer = tracing.TRACER
        if tracer.active:
            # Stamp hops recorded during this pass with "sched:pass" so
            # traces attribute each hop to the pass that drove it.
            tracer.current_pass = f"{self.name}:{self.passes}"
        active = [unit for unit in self._units if not unit.finished]
        worked = False
        if active:
            if self._telemetry is not None:
                with self._telemetry.trace("sched_pass",
                                           scheduler=self.name):
                    for unit in active:
                        worked = coerce_step_result(
                            unit.run_once(quantum)).worked or worked
            else:
                for unit in active:
                    worked = coerce_step_result(
                        unit.run_once(quantum)).worked or worked
        if all(unit.finished for unit in self._units):
            return StepResult(worked, finished=True)
        return StepResult.BUSY if worked else StepResult.IDLE

    # -- drive loops --------------------------------------------------------
    def run_until_quiescent(self, max_passes: int = 1_000_000,
                            quantum: Optional[int] = None,
                            idle_limit: int = 1) -> int:
        """Pass until quiescent (or ``max_passes``); returns the number
        of passes taken, counting the final idle pass — the historical
        contract of every loop this replaces."""
        detector = QuiescenceDetector(idle_limit)
        taken = 0
        while taken < max_passes:
            taken += 1
            if detector.observe(self.pass_once(quantum)):
                break
        return taken

    def run_until_finished(self, max_passes: int = 1_000_000,
                           quantum: Optional[int] = None) -> int:
        """Pass until every unit reports finished; raises
        :class:`SchedulerStall` naming the stuck units otherwise."""
        taken = 0
        while taken < max_passes:
            taken += 1
            if self.pass_once(quantum).finished:
                return taken
        stuck = [name for name, unit in self._by_name.items()
                 if not unit.finished]
        raise SchedulerStall(self.name, stuck, max_passes)

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passes": self.passes,
            "units": len(self._units),
            "live_units": self.live_units,
        }

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        if reg is None:
            return
        reg.counter("tcq_sched_passes_total",
                    "Scheduling passes per scheduler",
                    ("sched",), collected=True) \
            .labels(self.name).set_total(self.passes)
        reg.gauge("tcq_sched_units", "Registered schedulable units",
                  ("sched",), collected=True).labels(self.name) \
            .set(len(self._units))
        reg.gauge("tcq_sched_ready_units",
                  "Ready-set occupancy: live units reporting ready work",
                  ("sched",), collected=True).labels(self.name) \
            .set(sum(1 for unit in self._units
                     if not unit.finished and unit_ready(unit)))

    def __repr__(self) -> str:
        return f"Scheduler({self.name}, {len(self._units)} units)"


def drive(step: Any, max_passes: int = 1_000_000,
          idle_limit: int = 1) -> int:
    """Drive a bare step callable to quiescence with the shared
    detector; returns passes taken (counting the final idle pass).

    The escape hatch for components that keep their own step function
    but should share the one idle protocol (the server facade, legacy
    benchmarks).
    """
    detector = QuiescenceDetector(idle_limit)
    taken = 0
    while taken < max_passes:
        taken += 1
        if detector.observe(coerce_step_result(step())):
            break
    return taken
