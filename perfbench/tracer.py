"""Spans around the calls into each layer's public entry points.

The traced run wraps entry points of ``repro`` from the benchmark's own
files (nothing inside ``src/repro`` is changed): each wrapped call opens
a span, and closing it charges the span's *self* time (its duration
minus the time its child spans cover) to the span's name.  Aggregates
are kept for every call; full span records (name, start, end, parent,
batch id) are kept in memory for a sample of batches and written out as
Chrome trace-event JSON at the end.

Counts come from the program's own counters where it has them
(``CACQEngine.stats()``, ``SteM.probe_hits``, ``GroupedFilter.seen``,
``Flux.backlog_history``, ``processed_count``); the span hooks only
remember which objects were used so those counters can be read at the
end, plus the few counts no object keeps (bytes through the frame codec,
rows returned by store scans, shed rows).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


#: full span records are kept for every SAMPLE_EVERY-th batch, up to
#: MAX_SPANS per process (aggregates are kept for every call).
SAMPLE_EVERY = 16
MAX_SPANS = 50_000


class Tracer:
    """In-memory span recorder for one process.  It records nothing
    until :meth:`start`, so set-up work is never traced."""

    def __init__(self, process: str):
        self.process = process
        self.start()
        self.enabled = False

    def start(self, async_mode: bool = False) -> None:
        """Forget everything recorded (the wrappers stay installed) and
        begin recording; called when a measured phase starts.  With
        ``async_mode``, spans opened inside asyncio tasks nest per task,
        not per thread."""
        self.async_mode = async_mode
        self.batch = -1
        #: name -> [calls, self seconds, total seconds]
        self.agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        #: objects whose own counters are read at the end, by kind.
        self.objects: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self.spans: List[tuple] = []
        self.roots: List[tuple] = []
        self._stacks: Dict[Any, list] = {}
        self._next_id = 0
        self.enabled = True

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        key = id(asyncio.current_task()) if self.async_mode else None
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        self._next_id += 1
        parent = stack[-1][3] if stack else 0
        frame = [name, perf_counter(), 0.0, self._next_id, parent, stack]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        t = perf_counter()
        name, start, child, sid, parent, stack = frame
        stack.pop()
        dur = t - start
        a = self.agg[name]
        a[0] += 1
        a[1] += dur - child
        a[2] += dur
        if stack:
            stack[-1][2] += dur
        else:
            self.roots.append((start, t))
        if self.batch % SAMPLE_EVERY == 0 and \
                len(self.spans) < MAX_SPANS:
            tid = id(stack) & 0xFFFF
            self.spans.append((name, start, t, sid, parent, self.batch, tid))
        return dur

    def keep(self, kind: str, obj: Any) -> None:
        self.objects[kind][id(obj)] = obj

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by at least one root span."""
        total, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(self.roots):
            s, e = max(s, t0), min(e, t1)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    # -- output ------------------------------------------------------------
    def raw(self) -> Dict[str, Any]:
        """Aggregates plus the counters of every kept object, as plain
        numbers that can be summed across processes."""
        c = dict(self.counters)
        for engine in self.objects["cacq"].values():
            st = engine.stats()
            for key in ("tuples_in", "results_out", "filter_probes",
                        "stem_probes"):
                c[f"cacq.{key}"] = c.get(f"cacq.{key}", 0) + st[key]
        for gf in self.objects["gf"].values():
            c["gf.seen"] = c.get("gf.seen", 0) + gf.seen
            c["gf.passed"] = c.get("gf.passed", 0) + gf.passed_count
        for stem in self.objects["stem"].values():
            c["stem.probes"] = c.get("stem.probes", 0) + stem.probes
            c["stem.probe_hits"] = c.get("stem.probe_hits", 0) + \
                stem.probe_hits
            c["stem.state_rows"] = c.get("stem.state_rows", 0) + len(stem)
        return {"agg": {k: list(v) for k, v in self.agg.items()},
                "counters": c}

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        named = {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": self.process}}
        return [named] + [
            {"name": name, "ph": "X", "pid": pid, "tid": tid,
             "ts": round(start * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": sid, "parent": parent, "batch": batch}}
            for name, start, end, sid, parent, batch, tid in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self) -> None:
        if self.tracer.enabled:
            self.frame = self.tracer.begin(self.name)

    def __exit__(self, *exc: Any) -> None:
        if self.frame is not None:
            self.tracer.end(self.frame)
            self.frame = None


_NO_SPAN = contextlib.nullcontext()


def span(tracer: Optional[Tracer], name: str) -> Any:
    """A span around the benchmark's own code (the load generator, the
    Flux submission path); a no-op when the run is not traced."""
    return _NO_SPAN if tracer is None else _Span(tracer, name)


def merge_raw(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counters: Dict[str, float] = defaultdict(float)
    for part in parts:
        for name, (calls, self_s, total) in part["agg"].items():
            a = agg[name]
            a[0] += calls
            a[1] += self_s
            a[2] += total
        for key, value in part["counters"].items():
            counters[key] += value
    return {"agg": dict(agg), "counters": dict(counters)}


def write_chrome(path: str, events: List[Dict[str, Any]],
                 metadata: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata}, fh)


# -- wrapping entry points ----------------------------------------------------

def _wrap(tracer: Tracer, owner: Any, attr: str, name: str,
          hook: Optional[Callable[[tuple, Any], None]] = None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return orig(*args, **kwargs)
        frame = tracer.begin(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.end(frame)
        if hook is not None:
            hook(args, result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_async(tracer: Tracer, owner: Any, attr: str,
                names: Dict[str, str]) -> None:
    """Wrap ``async def request(self, op, **fields)``; the span name is
    chosen by ``op`` and unlisted ops are not traced."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    async def wrapper(self, op, **fields):
        name = names.get(op)
        if not tracer.enabled or name is None:
            return await orig(self, op, **fields)
        frame = tracer.begin(name)
        try:
            return await orig(self, op, **fields)
        finally:
            tracer.end(frame)

    setattr(owner, attr, wrapper)


def _wrap_everywhere(tracer: Tracer, module: Any, attr: str, name: str,
                     hook: Optional[Callable[[tuple, Any], None]] = None
                     ) -> None:
    """Wrap a module-level function in its module and in every loaded
    ``repro`` module that imported it by name."""
    orig = getattr(module, attr)
    holders = [m for key, m in list(sys.modules.items())
               if key.startswith("repro") and m is not None
               and getattr(m, attr, None) is orig]
    for holder in holders:
        _wrap(tracer, holder, attr, name, hook)


def _keep(tracer: Tracer, kind: str) -> Callable[[tuple, Any], None]:
    def hook(args: tuple, _result: Any) -> None:
        tracer.keep(kind, args[0])
    return hook


def _count(tracer: Tracer, key: str,
           fn: Callable[[tuple, Any], float]) -> Callable[[tuple, Any], None]:
    def hook(args: tuple, result: Any) -> None:
        tracer.counters[key] += fn(args, result)
    return hook


def instrument_engine(tracer: Tracer) -> None:
    """Spans for the layers an engine process runs: query front end,
    ingress, CACQ, grouped filters, SteMs, executor and windows."""
    from repro.core.cacq import CACQEngine
    from repro.core.engine import TelegraphCQServer
    from repro.core.executor import Executor
    from repro.core.grouped_filter import GroupedFilter
    from repro.core.stem import SteM
    from repro.core.windows import HistoricalStore
    from repro.ingress.ingress import IngressPoint
    from repro.query.optimizer import WindowedPlan
    from repro.sched.scheduler import Scheduler

    _wrap(tracer, TelegraphCQServer, "submit", "query.submit")
    _wrap(tracer, WindowedPlan, "evaluate", "query.window_evaluate")
    _wrap(tracer, IngressPoint, "admit", "ingress.admit",
          _count(tracer, "ingress.shed_rows",
                 lambda a, r: len(a[1]) - r if hasattr(a[1], "__len__")
                 else 0))
    _wrap(tracer, IngressPoint, "admit_one", "ingress.admit",
          _count(tracer, "ingress.shed_rows", lambda a, r: 0 if r else 1))
    _wrap(tracer, CACQEngine, "push_tuple", "core.cacq.push_tuple",
          _keep(tracer, "cacq"))
    _wrap(tracer, CACQEngine, "add_query", "core.cacq.add_query",
          _keep(tracer, "cacq"))
    _wrap(tracer, CACQEngine, "remove_query", "core.cacq.remove_query")
    _wrap(tracer, GroupedFilter, "matching", "core.grouped_filter.matching",
          _keep(tracer, "gf"))
    _wrap(tracer, SteM, "build", "core.stem.build", _keep(tracer, "stem"))
    _wrap(tracer, SteM, "probe", "core.stem.probe", _keep(tracer, "stem"))
    _wrap(tracer, SteM, "probe_stored", "core.stem.probe",
          _keep(tracer, "stem"))
    _wrap(tracer, Executor, "step", "core.executor.step",
          _count(tracer, "executor.worked", lambda a, r: 1 if r else 0))
    _wrap(tracer, HistoricalStore, "scan", "core.windows.scan",
          _count(tracer, "windows.rows_scanned", lambda a, r: len(r)))
    _wrap(tracer, Scheduler, "pass_once", "sched.pass_once",
          _count(tracer, "sched.worked",
                 lambda a, r: 1 if r.worked else 0))


def instrument_client(tracer: Tracer) -> None:
    """Spans for the client doors the benchmark process calls."""
    from repro.client.connection import LocalConnection
    from repro.core.engine import Cursor
    from repro.net.aioclient import AsyncFrameClient

    _wrap(tracer, LocalConnection, "push_rows", "client.push_rows")
    _wrap(tracer, LocalConnection, "submit", "client.submit")
    _wrap(tracer, Cursor, "fetch", "client.fetch")
    _wrap(tracer, Cursor, "fetch_windows", "client.fetch")
    _wrap_async(tracer, AsyncFrameClient, "request",
                {"PUSH": "client.push_rows", "SUBMIT": "client.submit"})


def instrument_net(tracer: Tracer) -> None:
    """Spans for the service side of the wire (service process only:
    the Flux pipes share the frame codec and must not be counted)."""
    import repro.net.frames as frames
    from repro.net.service import NetworkPump

    def encoded(args: tuple, result: Any) -> None:
        tracer.counters["net.encode.bytes"] += len(result)
        # Frames that answer no request are the service's pushes of
        # streamed rows, however many rows each one carries; the rows
        # are counted by the service itself (see service_launcher.py).
        if args[0].get("id") is None:
            tracer.counters["net.stream_frames"] += 1

    _wrap_everywhere(tracer, frames, "encode_frame", "net.frames.encode",
                     encoded)
    _wrap(tracer, frames.FrameDecoder, "feed", "net.frames.decode",
          _count(tracer, "net.decode.bytes", lambda a, r: len(a[1])))
    _wrap(tracer, NetworkPump, "run_once", "net.pump.run_once")


def instrument_flux(tracer: Tracer) -> None:
    """Conductor-side spans of the Flux plane (worker-internal spans
    would need code inside ``repro.flux``)."""
    from repro.flux.flux import Flux
    from repro.flux.procs import MultiprocessBackend

    _wrap(tracer, Flux, "tick", "flux.tick", _keep(tracer, "flux"))
    _wrap(tracer, Flux, "route", "flux.route")
    _wrap(tracer, MultiprocessBackend, "enqueue", "flux.procs.enqueue")
    _wrap(tracer, MultiprocessBackend, "step", "flux.procs.step")
    _wrap(tracer, MultiprocessBackend, "wait_for_acks",
          "flux.procs.wait_for_acks")
