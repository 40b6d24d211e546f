"""Runtime statistics: the evidence adaptive policies act on.

Streaming sources offer no reliable a-priori statistics (Section 1.1),
so everything the routing policies, the executor, and the QoS controller
know is *observed online*.  This module centralises the estimators:

* :class:`SelectivityTracker` — windowed pass-rate estimates per
  operator;
* :class:`RateEstimator` — arrival/service rates over a sliding window
  of ticks (drives overload detection);
* :class:`LatencyTracker` — per-tuple latency quantiles via a reservoir.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional


class SelectivityTracker:
    """Sliding-window selectivity estimate for one operator.

    Keeps the last ``window`` observations as a bit deque; the estimate
    is their mean.  A full-history counter is kept alongside so tests
    can compare "fresh" vs "stale" views (the drift experiments rely on
    the fresh one reacting).

    The accessors are the :attr:`windowed_rate` and
    :attr:`lifetime_rate` properties — the vocabulary the telemetry
    snapshot uses.
    """

    def __init__(self, window: int = 256):
        self._window: Deque[int] = deque(maxlen=window)
        self.total_seen = 0
        self.total_passed = 0

    def observe(self, passed: bool) -> None:
        self._window.append(1 if passed else 0)
        self.total_seen += 1
        if passed:
            self.total_passed += 1

    @property
    def windowed_rate(self) -> float:
        """Pass rate over the sliding window (1.0 before evidence)."""
        if not self._window:
            return 1.0
        return sum(self._window) / len(self._window)

    @property
    def lifetime_rate(self) -> float:
        """Pass rate over the full history (1.0 before evidence)."""
        if not self.total_seen:
            return 1.0
        return self.total_passed / self.total_seen



def sample_drift(old: Dict[str, float], new: Dict[str, float]) -> float:
    """Selectivity drift between two ``{operator: selectivity}``
    samples: the max absolute per-operator delta over the operators
    present in both.

    This is the §4.3 "rate of change" signal shared by the
    :class:`~repro.core.adaptivity.AdaptivityController` and the
    :class:`~repro.core.freeze.PlanFreezer`.
    """
    deltas = [abs(new[name] - value)
              for name, value in old.items() if name in new]
    return max(deltas, default=0.0)


class StabilityCounter:
    """Consecutive-identical-observation streak counter.

    The :class:`~repro.core.freeze.PlanFreezer` feeds it the operator
    route each batch of a footprint class actually took; the streak
    length is the "how settled is this plan?" evidence that gates
    freezing (the complement of :func:`sample_drift`, which gates
    thawing)."""

    __slots__ = ("last", "streak")

    def __init__(self) -> None:
        self.last: Optional[object] = None
        self.streak = 0

    def observe(self, value: object) -> int:
        """Record one observation; returns the current streak length."""
        if value == self.last:
            self.streak += 1
        else:
            self.last = value
            self.streak = 1
        return self.streak

    def reset(self) -> None:
        self.last = None
        self.streak = 0


class RateEstimator:
    """Events-per-tick over a sliding window of ticks."""

    def __init__(self, window_ticks: int = 32):
        self._events: Deque[int] = deque(maxlen=window_ticks)

    def tick(self, n_events: int) -> None:
        self._events.append(n_events)

    def rate(self) -> float:
        if not self._events:
            return 0.0
        return sum(self._events) / len(self._events)

    def peak(self) -> int:
        return max(self._events, default=0)


class LatencyTracker:
    """Reservoir-sampled latency distribution."""

    def __init__(self, reservoir: int = 1024, seed: int = 0):
        self.reservoir_size = reservoir
        self._samples: List[float] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def observe(self, latency: float) -> None:
        self._seen += 1
        if len(self._samples) < self.reservoir_size:
            self._samples.append(latency)
            return
        j = self._rng.randrange(self._seen)
        if j < self.reservoir_size:
            self._samples[j] = latency

    def quantile(self, q: float) -> Optional[float]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    @property
    def count(self) -> int:
        return self._seen


class EngineMonitor:
    """Aggregates the per-component estimators for one engine instance,
    and renders a flat snapshot for logging and the QoS controller."""

    def __init__(self) -> None:
        self.selectivities: Dict[str, SelectivityTracker] = {}
        self.arrival = RateEstimator()
        self.service = RateEstimator()
        self.latency = LatencyTracker()
        self.dropped = 0

    def selectivity(self, operator: str) -> SelectivityTracker:
        tracker = self.selectivities.get(operator)
        if tracker is None:
            tracker = SelectivityTracker()
            self.selectivities[operator] = tracker
        return tracker

    def overload_factor(self) -> float:
        """arrival rate / service rate; > 1 means falling behind."""
        service = self.service.rate()
        if service <= 0:
            return 0.0 if self.arrival.rate() <= 0 else float("inf")
        return self.arrival.rate() / service

    def snapshot(self) -> Dict[str, object]:
        return {
            "arrival_rate": self.arrival.rate(),
            "service_rate": self.service.rate(),
            "overload": self.overload_factor(),
            "latency_p50": self.latency.quantile(0.5),
            "latency_p95": self.latency.quantile(0.95),
            "dropped": self.dropped,
            "selectivities": {
                name: tracker.windowed_rate
                for name, tracker in self.selectivities.items()
            },
        }
