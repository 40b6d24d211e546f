"""Tests for repro.sched: the unified scheduler core — the Schedulable
protocol, the round-robin scheduler, the quiescence/stall protocol, and
a hypothesis property (every live unit runs exactly once per pass, in
registration order, across add/remove between passes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sched import (FunctionUnit, QuiescenceDetector, Scheduler,
                         SchedulerStall, StepResult, coerce_step_result,
                         drive)


class Worker:
    """A fully instrumented schedulable test double."""

    def __init__(self, name, work=3, ready=True):
        self.name = name
        self.work_left = work
        self._ready = ready
        self.runs = 0
        self.quanta_seen = []

    @property
    def finished(self):
        return self.work_left <= 0

    def ready(self):
        return self._ready and not self.finished

    def run_once(self, quantum=None):
        self.runs += 1
        self.quanta_seen.append(quantum)
        if self.finished:
            return StepResult.DONE
        self.work_left -= 1
        return StepResult.DONE if self.finished else StepResult.BUSY


class TestStepProtocol:
    def test_coerce(self):
        assert coerce_step_result(True) is StepResult.BUSY
        assert coerce_step_result(False) is StepResult.IDLE
        assert coerce_step_result(None) is StepResult.IDLE
        busy = StepResult(True)
        assert coerce_step_result(busy) is busy

    def test_truthiness_is_worked(self):
        assert StepResult.BUSY and StepResult.DONE
        assert not StepResult.IDLE
        assert not StepResult(False, finished=True)

    def test_function_unit_forces_finished(self):
        state = {"left": 1}

        def step(_q):
            state["left"] -= 1
            return True

        unit = FunctionUnit("u", step,
                            is_finished=lambda: state["left"] <= 0)
        result = unit.run_once()
        assert result.worked and result.finished
        assert unit.run_once() is StepResult.DONE   # no step after finish
        assert state["left"] == 0

    def test_quiescence_detector(self):
        det = QuiescenceDetector(idle_limit=2)
        assert not det.observe(StepResult.BUSY)
        assert not det.observe(StepResult.IDLE)
        assert det.observe(StepResult.IDLE)
        det.reset()
        assert not det.observe(StepResult.IDLE)

    def test_detector_rejects_bad_limit(self):
        with pytest.raises(ExecutionError):
            QuiescenceDetector(idle_limit=0)

    def test_drive_counts_final_idle_pass(self):
        state = {"left": 3}

        def step():
            if state["left"]:
                state["left"] -= 1
                return True
            return False

        assert drive(step) == 4      # 3 working passes + the idle one


class TestScheduler:
    def test_run_until_finished(self):
        sched = Scheduler(telemetry=False)
        a, b = Worker("a", work=2), Worker("b", work=5)
        sched.add(a)
        sched.add(b)
        passes = sched.run_until_finished()
        assert passes == 5
        assert a.finished and b.finished
        assert a.runs == 2           # finished units are never re-run

    def test_run_until_quiescent_counts_idle_pass(self):
        sched = Scheduler(telemetry=False)
        sched.add(FunctionUnit("never-done", lambda q: False))
        assert sched.run_until_quiescent() == 1
        state = {"left": 2}

        def step(_q):
            if state["left"]:
                state["left"] -= 1
                return True
            return False

        sched2 = Scheduler(telemetry=False)
        sched2.add(FunctionUnit("worker", step))
        assert sched2.run_until_quiescent() == 3

    def test_stall_raises_with_stuck_names(self):
        sched = Scheduler(name="test", telemetry=False)
        sched.add(FunctionUnit("stuck", lambda q: True))
        with pytest.raises(SchedulerStall) as exc:
            sched.run_until_finished(max_passes=7)
        assert exc.value.stuck == ["stuck"]
        assert "did not finish within 7 passes" in str(exc.value)

    def test_duplicate_names_rejected(self):
        sched = Scheduler(telemetry=False)
        sched.add(Worker("a"))
        with pytest.raises(ExecutionError):
            sched.add(Worker("a"))

    def test_stats_shape(self):
        sched = Scheduler(telemetry=False)
        sched.add(Worker("a", work=1))
        sched.run_until_finished()
        stats = sched.stats()
        assert stats["passes"] == 1
        assert stats["units"] == 1 and stats["live_units"] == 0

    def test_quantum_passes_through(self):
        sched = Scheduler(telemetry=False)
        w = Worker("w", work=5)
        sched.add(w)
        sched.pass_once(quantum=10)
        sched.pass_once()
        assert w.quanta_seen == [10, None]


class TestRoundRobin:
    def test_round_robin_ignores_ready(self):
        """Bit-compat: round_robin polls idle units exactly as the
        historical loops did."""
        sched = Scheduler(telemetry=False)
        lazy = Worker("lazy", work=5, ready=False)
        sched.add(lazy)
        sched.pass_once()
        assert lazy.runs == 1


# Each op is ("add",), ("remove", i), ("finish", i) or ("pass",), with
# i indexing the current members: membership churns between passes.
OPS = st.lists(
    st.one_of(st.just(("add",)), st.just(("pass",)),
              st.tuples(st.sampled_from(["remove", "finish"]),
                        st.integers(0, 7))),
    min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(ops=OPS, worked=st.lists(st.booleans(), min_size=8, max_size=8))
def test_every_live_unit_runs_once_per_pass_in_order(ops, worked):
    """Round-robin property: each pass runs every live (unfinished)
    member exactly once, in registration order, whether or not it made
    progress last time and whatever joined, left or finished since the
    previous pass."""
    sched = Scheduler(telemetry=False)
    log = []
    members = []
    finished = set()

    def make(name, works):
        def step(_q):
            log.append(name)
            return works
        return FunctionUnit(name, step,
                            is_finished=lambda: name in finished)

    for n, op in enumerate(ops):
        if op[0] == "add":
            name = f"u{n}"
            sched.add(make(name, worked[n % len(worked)]))
            members.append(name)
        elif op[0] == "pass":
            log.clear()
            sched.pass_once()
            assert log == [m for m in members if m not in finished]
        elif members:
            name = members[op[1] % len(members)]
            if op[0] == "remove":
                sched.remove(name)
                members.remove(name)
            else:
                finished.add(name)
    assert [u.name for u in sched.units] == members
