"""The four workloads.

Each workload function sets its workload up, runs the measured phase
for at least ``plan.seconds`` seconds *and* at least
``plan.min_samples`` latency samples, then checks every result against
the plain-Python oracle.  ``setup_s`` is the median of ``plan.setups``
timed set-ups.  The in-process closed loops set up once before the
phase and time the other set-ups on fresh connections spread over the
phase (see :class:`_SetupSampler`); net-stream and flux-join, whose
set-up spawns processes, set up ``plan.setups`` times before the phase
and run on the last.  Engine-side peak memory
is read when the run reaches its fixed sample count, so it does not
depend on how far past that point a faster or slower engine gets
(net-stream reads it at the end: its offered load is fixed, so its row
count is too).

A traced run (``tracer`` given) records spans only in the measured
phase, and a closed loop's traced phase is exactly ``plan.min_samples``
batches, so per-layer totals are for the same work however fast the
engine is (net-stream's offered schedule is fixed already).

The load generator is this one process: closed loops call the client
door and wait; the open loop (``net-stream``) runs one asyncio thread
with two connections.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import math
import os
import resource
import select
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import gen
import oracle
from oracle import digest_add
from service_launcher import TRACING_LINE
from tracer import Tracer, span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
#: a measured phase never runs longer than this, even short of its
#: fixed sample count (a run must end well inside three minutes).
HARD_CAP_S = 100.0
#: net-stream's per-cursor streaming credit, topped up a quarter at a time.
CREDIT = 256
#: workloads without query churn submit one probe query (and cancel it
#: at once) every PROBE_EVERY batches or frames of the measured phase,
#: so ``submit()`` is timed under live traffic, spread over the run.
PROBE_EVERY = 4


@dataclass
class Plan:
    seed: int
    seconds: float
    #: the workload's fixed latency sample count: the run measures at
    #: least this many, and the tail is the percentile with 10 samples
    #: beyond it at this count.
    min_samples: int
    setups: int
    sizes: Dict[str, Any] = field(default_factory=dict)
    out_dir: str = ""


@dataclass
class Outcome:
    rows: int = 0
    elapsed: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: submit() times by query: each churn submit is a query of its own,
    #: probes and flux-join's set-ups submit the same queries repeatedly.
    submit_latencies: Dict[Any, List[float]] = field(default_factory=dict)
    setups: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    #: per-layer values only the workload can see (Flux conductor state,
    #: worker boot), by metric name.
    extra: Dict[str, float] = field(default_factory=dict)
    #: per-layer raw aggregates and Chrome events from other processes.
    remote_raw: List[Dict[str, Any]] = field(default_factory=list)
    remote_events: List[Dict[str, Any]] = field(default_factory=list)
    window: tuple = (0.0, 0.0)
    #: seconds the closed loop took for its first ``min_samples`` batches
    #: (the work a traced run does), for the tracing-overhead ratio.
    fixed_count_elapsed: float = 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a child process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _check_digests(what: str, got: Dict[Any, List[int]],
                   want: Dict[Any, List[int]], out: Outcome) -> None:
    for key in sorted(set(got) | set(want), key=repr):
        g, w = got.get(key, [0, 0]), want.get(key, [0, 0])
        if g != w:
            out.mismatches.append(
                f"{what} {key!r}: got {g[0]} rows, oracle {w[0]} rows"
                + ("" if g[0] != w[0] else " (same count, other rows)"))


def _phase_over(plan: Plan, tracer: Optional[Tracer], n: int,
                elapsed: float) -> bool:
    """Whether a closed loop has measured enough after ``n`` batches."""
    if tracer is not None:
        return n >= plan.min_samples
    return elapsed >= plan.seconds and (
        n >= plan.min_samples or elapsed >= HARD_CAP_S)


def _at_fixed_count(out: Outcome, t0: float, rss: Any) -> None:
    """Readings taken when a closed loop reaches its fixed sample count."""
    out.fixed_count_elapsed = perf_counter() - t0
    out.peak_rss_mb = rss()


class _SetupSampler:
    """Times the extra set-ups of an in-process closed loop during its
    measured phase.

    Set-up takes milliseconds, and on a shared host the speed of a
    single busy CPU drifts over seconds by up to 2x, so set-ups timed
    back to back all land in one phase and their median flips between
    runs.  Spread over the phase, they see the same mix of phases as
    the throughput does.  Set-up ``k`` is due after ``k/plan.setups`` of
    ``plan.seconds`` of measured time, but never before the fixed sample
    count (it would raise the peak memory read there) and never in a
    traced run (its spans would be charged to the phase).  Each is torn
    down at once, and the time spent is kept out of the phase's clock.
    """

    def __init__(self, plan: Plan, tracer: Optional[Tracer], setup,
                 teardown, out: Outcome):
        self.plan, self.setup, self.teardown = plan, setup, teardown
        self.out = out
        self.due = [] if tracer else [
            plan.seconds * k / plan.setups for k in range(1, plan.setups)]
        #: seconds spent on set-ups inside the phase.
        self.paused = 0.0

    def measured(self, t0: float) -> float:
        """Seconds of measured phase since ``t0``."""
        return perf_counter() - t0 - self.paused

    def after_batch(self, n: int, t0: float) -> bool:
        """Runs a set-up if one is due after ``n`` batches; returns
        whether it did."""
        if not self.due or n < self.plan.min_samples or \
                self.measured(t0) < self.due[0]:
            return False
        self.due.pop(0)
        s = perf_counter()
        state, seconds = self.setup()
        self.teardown(state)
        self.out.setups.append(seconds)
        self.paused += perf_counter() - s
        return True


def _repeat_setups(plan: Plan, setup, teardown) -> Any:
    """Run ``setup`` (returning (state, seconds)) ``plan.setups`` times,
    tearing down all but the last; returns the last state and the
    times.  The count is fixed: set-up leaves state behind in the
    process, so a varying count would change what is measured."""
    times, state = [], None
    for _ in range(plan.setups):
        if state is not None:
            teardown(state)
        state, seconds = setup()
        times.append(seconds)
    return state, times


# -- cacq-select ----------------------------------------------------------

def cacq_select(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
    from repro.client import connect

    g = gen.SelectGen(plan.seed, plan.sizes["queries"])
    out = Outcome()
    specs = g.initial_specs()

    def setup():
        t = perf_counter()
        conn = connect()
        conn.create_stream("quotes", *gen.QUOTE_COLUMNS)
        cursors = [conn.submit(gen.select_sql(s)) for s in specs]
        return (conn, cursors), perf_counter() - t

    (conn, cursor_list), seconds = setup()
    out.setups.append(seconds)
    sampler = _SetupSampler(plan, tracer, setup, lambda st: st[0].close(),
                            out)
    try:
        # slot -> (generation, cursor); digests keyed by (slot, generation)
        slots = {i: (0, c) for i, c in enumerate(cursor_list)}
        digests: Dict[tuple, List[int]] = {(i, 0): [0, 0] for i in slots}
        batches = g.batches()
        churn = g.churn()
        out.attempted = len(specs)
        n = 0
        t0 = prev_end = last_done = perf_counter()
        if tracer:
            tracer.start()
        while not _phase_over(plan, tracer, n, sampler.measured(t0)):
            if tracer:
                tracer.batch = n
            with span(tracer, "loadgen"):
                rows = next(batches)
            s = perf_counter()
            out.lags.append(s - last_done)
            conn.push_rows("quotes", rows)
            fetched = [(slot, c.fetch()) for slot, (_g, c) in slots.items()]
            last_done = perf_counter()
            out.latencies.append(last_done - s)
            with span(tracer, "loadgen"):
                for slot, got in fetched:
                    d = digests[slot, slots[slot][0]]
                    for r in got:
                        digest_add(d, r.values)
            out.rows += len(rows)
            out.attempted += len(rows)
            if g.is_churn_point(n):
                with span(tracer, "loadgen"):
                    slot, spec = next(churn)
                generation, old = slots[slot]
                conn.cancel(old)
                s = perf_counter()
                slots[slot] = (generation + 1,
                               conn.submit(gen.select_sql(spec)))
                out.submit_latencies[slot, generation + 1] = [
                    perf_counter() - s]
                digests[slot, generation + 1] = [0, 0]
                out.attempted += 2
            n += 1
            if n == plan.min_samples:
                _at_fixed_count(out, t0, self_peak_rss_mb)
            if sampler.after_batch(n, t0):
                last_done = perf_counter()
            prev_end = perf_counter()
        out.elapsed = prev_end - t0 - sampler.paused
        out.window = (t0, prev_end)
        out.peak_rss_mb = out.peak_rss_mb or self_peak_rss_mb()
        if tracer:
            tracer.enabled = False
    finally:
        conn.close()
    _check_digests("cursor", digests, oracle.select_expected(g, n), out)
    return out


# -- cacq-join-window -----------------------------------------------------

def cacq_join_window(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
    from repro.client import connect

    g = gen.JoinGen(plan.seed)
    out = Outcome()
    sqls = [gen.join_sql(x) for x in g.thresholds()]
    window_sqls = [gen.window_sql(w, h) for w, h in g.window_specs()]

    def setup():
        t = perf_counter()
        conn = connect()
        conn.create_stream("orders", *gen.ORDER_COLUMNS)
        conn.create_stream("payments", *gen.PAYMENT_COLUMNS)
        cursors = [conn.submit(sql) for sql in sqls + window_sqls]
        return (conn, cursors), perf_counter() - t

    (conn, cursors), seconds = setup()
    out.setups.append(seconds)
    sampler = _SetupSampler(plan, tracer, setup, lambda st: st[0].close(),
                            out)
    joins, windows = cursors[:len(sqls)], cursors[len(sqls):]
    digests = [[0, 0] for _ in joins]
    fired: List[List[tuple]] = [[] for _ in windows]
    columns = [f"orders.{c}" for c in gen.ORDER_COLUMNS] + \
        [f"payments.{c}" for c in gen.PAYMENT_COLUMNS]

    def absorb(join_rows, window_rows) -> None:
        for d, got in zip(digests, join_rows):
            for r in got:
                digest_add(d, tuple(r[c] for c in columns))
        for f, got in zip(fired, window_rows):
            f.extend((t, rows[0]["avg_amount"]) for t, rows in got)

    try:
        batches = g.batches()
        out.attempted = len(cursors)
        n = 0
        t0 = prev_end = last_done = perf_counter()
        if tracer:
            tracer.start()
        while not _phase_over(plan, tracer, n, sampler.measured(t0)):
            if tracer:
                tracer.batch = n
            with span(tracer, "loadgen"):
                events = next(batches)
                orders = [r for s, r in events if s == "orders"]
                payments = [r for s, r in events if s == "payments"]
            s = perf_counter()
            out.lags.append(s - last_done)
            conn.push_rows("orders", orders)
            conn.push_rows("payments", payments)
            while conn.step():
                pass
            join_rows = [c.fetch() for c in joins]
            window_rows = [c.fetch_windows() for c in windows]
            last_done = perf_counter()
            out.latencies.append(last_done - s)
            with span(tracer, "loadgen"):
                absorb(join_rows, window_rows)
            out.rows += len(events)
            out.attempted += len(events)
            if n % PROBE_EVERY == 0:
                sql = (sqls + window_sqls)[
                    n // PROBE_EVERY % (len(sqls) + len(window_sqls))]
                s = perf_counter()
                probe = conn.submit(sql)
                out.submit_latencies.setdefault(sql, []).append(
                    perf_counter() - s)
                conn.cancel(probe)
                out.attempted += 2
            n += 1
            if n == plan.min_samples:
                _at_fixed_count(out, t0, self_peak_rss_mb)
            if sampler.after_batch(n, t0):
                last_done = perf_counter()
            prev_end = perf_counter()
        out.elapsed = prev_end - t0 - sampler.paused
        out.window = (t0, prev_end)
        out.peak_rss_mb = out.peak_rss_mb or self_peak_rss_mb()
        if tracer:
            tracer.enabled = False
        conn.run()
        absorb([c.fetch() for c in joins],
               [c.fetch_windows() for c in windows])
    finally:
        conn.close()
    want = oracle.JoinExpected(g, n)
    _check_digests("join", dict(enumerate(digests)),
                   dict(enumerate(want.join)), out)
    for i, (got, exp) in enumerate(zip(fired, want.windows)):
        differ = sum(1 for (t, v), (te, ve) in zip(got, exp)
                     if t != te or not math.isclose(v, ve, rel_tol=1e-12))
        if differ or len(got) != len(exp):
            out.mismatches.append(
                f"window query {i}: {len(got)} windows fired, oracle "
                f"{len(exp)}; {differ} differ")
    return out


# -- flux-join ------------------------------------------------------------

def flux_join(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
    from repro.core.tuples import Schema
    from repro.flux.parallel_cacq import ParallelCACQ
    from repro.flux.procs import MultiprocessBackend, live_worker_pids
    from repro.query.catalog import Catalog
    from repro.query.optimizer import compile_query
    from repro.query.parser import parse

    g = gen.JoinGen(plan.seed)
    selections = gen.selection_specs(plan.seed)
    sqls = [gen.join_sql(x) for x in g.thresholds()] + \
        [gen.selection_sql(s) for s in selections]
    schemas = {"orders": Schema.of("orders", *gen.ORDER_COLUMNS),
               "payments": Schema.of("payments", *gen.PAYMENT_COLUMNS)}
    catalog = Catalog()
    for schema in schemas.values():
        catalog.create_stream(schema)
    out = Outcome()
    boots: List[float] = []

    def engine_rss() -> float:
        """The conductor plus every worker."""
        return self_peak_rss_mb() + sum(
            proc_peak_rss_mb(pid) for pid in live_worker_pids())

    def submit(pc: Any, sql: str) -> None:
        # ParallelCACQ takes compiled predicates: the query front end
        # (parse + compile) is this workload's submission path.
        compiled = compile_query(parse(sql), catalog)
        pc.add_query([b for b, _o in compiled.bindings], compiled.predicate)

    def engine(backend: Any) -> Any:
        pc = ParallelCACQ(backend, "oid", n_partitions=8)
        for schema in schemas.values():
            pc.register_stream(schema)
        return pc

    def setup():
        t = perf_counter()
        backend = MultiprocessBackend(workers=2)
        booted = perf_counter() - t
        try:
            pc = engine(backend)
            for sql in sqls:
                submit(pc, sql)
            b = perf_counter()
            pc.flux                        # boots the workers
            boots.append(booted + perf_counter() - b)
        except BaseException:
            backend.close()
            raise
        return (backend, pc), perf_counter() - t

    (backend, pc), out.setups = _repeat_setups(
        plan, setup, lambda st: st[0].close())
    # A running ParallelCACQ takes no more queries, so submit() is timed
    # on a second engine over the same workers that is never started:
    # every PROBE_EVERY ticks of the measured phase it takes one more
    # query through the same front end and add_query.
    probe_pc = engine(backend)
    try:
        flux = pc.flux
        batches = g.batches()
        clocks = {"orders": 0, "payments": 0}
        out.attempted = len(sqls)
        n = 0
        t0 = prev_end = last_done = perf_counter()
        if tracer:
            tracer.start()
        while not _phase_over(plan, tracer, n, perf_counter() - t0):
            if tracer:
                tracer.batch = n
            with span(tracer, "loadgen"):
                tuples = []
                for stream, row in next(batches):
                    clocks[stream] += 1
                    tuples.append(schemas[stream].make(
                        *row, timestamp=clocks[stream]))
            s = perf_counter()
            out.lags.append(s - last_done)
            pc.tick(tuples)
            while flux.unacked_total():
                pc.tick()
            last_done = perf_counter()
            out.latencies.append(last_done - s)
            out.rows += len(tuples)
            out.attempted += len(tuples)
            if n % PROBE_EVERY == 0:
                sql = sqls[n // PROBE_EVERY % len(sqls)]
                s = perf_counter()
                submit(probe_pc, sql)
                out.submit_latencies.setdefault(sql, []).append(
                    perf_counter() - s)
                out.attempted += 1
            n += 1
            if n == plan.min_samples:
                _at_fixed_count(out, t0, engine_rss)
            prev_end = perf_counter()
        out.elapsed = prev_end - t0
        out.window = (t0, prev_end)
        out.peak_rss_mb = out.peak_rss_mb or engine_rss()
        if tracer:
            tracer.enabled = False
        pc.drain()
        counts = pc.delivered_counts()
        if tracer:
            out.extra.update(_flux_layer_values(pc, backend, boots))
    finally:
        backend.close()
    want = oracle.JoinExpected(g, n, selections)
    expected = want.join_counts + want.selection_counts
    for i, (got_n, want_n) in enumerate(zip(counts, expected)):
        if got_n != want_n:
            out.mismatches.append(
                f"query {i} ({sqls[i]}): delivered {got_n}, oracle {want_n}")
    return out


def _flux_layer_values(pc: Any, backend: Any,
                       boots: List[float]) -> Dict[str, float]:
    flux = pc.flux
    processed = [backend.processed_count(m) for m in backend.machine_ids()]
    mean = sum(processed) / len(processed)
    state_rows = 0
    for pid in flux.primary:
        state = flux.partition_state(pid)
        state_rows += sum(len(s) for s in state.engine.stems.values())
    boots = sorted(boots)
    return {
        "flux.procs.boot_s": boots[len(boots) // 2],
        "flux.backlog_max_rows": max(
            (sum(h.values()) for h in flux.backlog_history), default=0),
        "flux.worker_imbalance": max(processed) / mean if mean else 0.0,
        "core.stem.state_rows": state_rows,
    }


# -- net-stream -----------------------------------------------------------

class _Service:
    """One ``python -m repro.net`` process (or the traced launcher)."""

    def __init__(self, trace_path: Optional[str]):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        args = ["--host", "127.0.0.1", "--port", "0", "--admin-port", "0"]
        if trace_path is None:
            cmd = [sys.executable, "-u", "-m", "repro.net"] + args
        else:
            cmd = [sys.executable, "-u",
                   os.path.join(HERE, "service_launcher.py"),
                   "--out", trace_path, "--"] + args
        self.trace_path = trace_path
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT)
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "wire protocol on" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("wire protocol on ")[1]
                        .split(",")[0].rsplit(":", 1)[1])
        return self.port

    def stop(self) -> None:
        """SIGTERM (the traced launcher writes its spans on it), then
        SIGKILL; always reaped.  SIGINT is not used: the service's own
        asyncio shutdown can hang."""
        proc = self.proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        proc.stdout.close()

    def start_tracing(self, timeout: float = 10.0) -> None:
        """Tell the traced launcher the measured phase starts; returns
        once it records spans."""
        self.proc.send_signal(signal.SIGUSR1)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if TRACING_LINE not in line:
            raise RuntimeError(f"service did not start tracing: {line!r}")

    def gone(self) -> bool:
        if self.proc.poll() is None:
            return False
        try:
            os.kill(self.proc.pid, 0)
        except ProcessLookupError:
            return True
        return False


#: every service started by this process, reaped by :func:`reap_all`.
SERVICES: List[_Service] = []


def reap_all() -> List[int]:
    """Stop and reap every process this one started: services, spinners
    and Flux workers still running, then multiprocessing's resource
    tracker.  Returns the pids that had to be stopped here."""
    from multiprocessing import resource_tracker
    from repro.flux import procs

    leaked = []
    for service in SERVICES:
        if not service.gone():
            leaked.append(service.proc.pid)
            service.stop()
    for spinner in SPINNERS:
        if spinner.poll() is None:
            leaked.append(spinner.pid)
            spinner.kill()
            spinner.wait()
    workers = procs.live_worker_pids()
    if workers:
        leaked.extend(sorted(workers))
        procs._sweep_backends()
    # Spawning the Flux workers starts a resource-tracker process that
    # exits only once every holder of its pipe has, so it would outlive
    # this process; with the workers gone, closing the pipe ends it and
    # ``_stop`` waits for it.
    if not procs.live_worker_pids():
        resource_tracker._resource_tracker._stop()
    return leaked


def net_stream(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_net_stream(plan, tracer))


async def _net_stream(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
    from repro.net.aioclient import AsyncFrameClient
    from repro.net.frames import STREAM_ROW

    g = gen.NetGen(plan.seed)
    keys = g.filter_keys()
    rate = float(plan.sizes["rate"])
    out = Outcome()

    class Consumer(AsyncFrameClient):
        """Stamps each streamed row on arrival and tops up credit."""

        def reset(self, cursor_keys: Dict[int, int]) -> None:
            self.cursor_keys = cursor_keys
            self.digests = {k: [0, 0] for k in cursor_keys.values()}
            self.arrivals: List[tuple] = []
            self.unthanked = {c: 0 for c in cursor_keys}
            self.received = 0

        def _on_frame(self, frame: Dict[str, Any]) -> None:
            if frame.get("type") != STREAM_ROW:
                super()._on_frame(frame)
                return
            now = perf_counter()
            cid = frame["cursor"]
            values = tuple(frame["row"]["v"])
            digest_add(self.digests[self.cursor_keys[cid]], values)
            self.arrivals.append((values[0], now))
            self.received += 1
            self.unthanked[cid] += 1
            if self.unthanked[cid] >= CREDIT // 4:
                self.send("CREDIT", cursor=cid, n=self.unthanked[cid])
                self.unthanked[cid] = 0

    async def setup_once(trace_path: Optional[str]):
        t = perf_counter()
        service = _Service(trace_path)
        SERVICES.append(service)
        port = service.wait_ready()
        sender = AsyncFrameClient("127.0.0.1", port)
        await sender.connect("loadgen")
        await sender.request("DDL", action="create_stream", name="ticks",
                             columns=list(gen.TICK_COLUMNS))
        consumer = Consumer("127.0.0.1", port)
        await consumer.connect("consumer")
        cursor_keys = {}
        for k in keys:
            reply = await consumer.request(
                "SUBMIT", query=f"SELECT * FROM ticks WHERE key = {k}",
                stream=True, credit=CREDIT)
            cursor_keys[reply["cursor"]] = k
        consumer.reset(cursor_keys)
        return (service, sender, consumer), perf_counter() - t

    async def probe(consumer: Consumer, k: int) -> None:
        """A non-streaming query, submitted and cancelled at once."""
        s = perf_counter()
        reply = await consumer.request(
            "SUBMIT", query=f"SELECT * FROM ticks WHERE key = {k}")
        out.submit_latencies.setdefault(k, []).append(perf_counter() - s)
        await consumer.request("CANCEL", cursor=reply["cursor"])

    async def teardown(state) -> None:
        service, sender, consumer = state
        await sender.close()
        await consumer.close()
        service.stop()

    trace_dir = os.path.join(plan.out_dir, "service")
    times = []
    state = None
    for i in range(plan.setups):
        if state is not None:
            await teardown(state)
        path = None
        if tracer and i == plan.setups - 1:
            path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
        state, seconds = await setup_once(path)
        times.append(seconds)
    out.setups = times
    service, sender, consumer = state
    # The generator's own collector pauses would delay sends and
    # arrival stamps and be charged to the engine; the service (the
    # system under test) keeps its collector.
    gc.disable()
    try:
        frames = g.frames()
        interval = gen.FRAME_ROWS / rate
        expected_rows = 0
        pushes = []
        probes = []
        due_times = []
        out.attempted = len(keys)
        f = 0
        if tracer:
            service.start_tracing()
            tracer.start(async_mode=True)
        t0 = perf_counter()
        while True:
            due = t0 + f * interval
            if due - t0 >= plan.seconds and (
                    len(consumer.arrivals) >= plan.min_samples
                    or due - t0 >= HARD_CAP_S):
                break
            if tracer:
                tracer.batch = f
            delay = due - perf_counter()
            if delay > 0:
                with span(tracer, "loadgen.pace"):
                    await asyncio.sleep(delay)
            out.lags.append(perf_counter() - due)
            with span(tracer, "loadgen"):
                rows = next(frames)
                expected_rows += sum(1 for r in rows if r[1] in keys)
            due_times.append(due)
            pushes.append(asyncio.ensure_future(
                sender.request("PUSH", stream="ticks",
                               rows=[list(r) for r in rows])))
            out.rows += len(rows)
            out.attempted += len(rows)
            if f % PROBE_EVERY == 0:
                probes.append(asyncio.ensure_future(probe(
                    consumer, keys[f // PROBE_EVERY % len(keys)])))
                out.attempted += 2
            f += 1
        replies = await asyncio.gather(*pushes)
        await asyncio.gather(*probes)
        out.failed += sum(int(r.get("shed", 0)) for r in replies)
        deadline = perf_counter() + 60
        while consumer.received < expected_rows - out.failed:
            if perf_counter() > deadline:
                out.mismatches.append(
                    f"consumer received {consumer.received} of "
                    f"{expected_rows} rows")
                break
            await asyncio.sleep(0.001)
        last = consumer.arrivals[-1][1] if consumer.arrivals else \
            perf_counter()
        out.elapsed = last - t0
        out.window = (t0, last)
        # The offered load is fixed, so the row count at the end of the
        # phase is too: that is where the service's memory is read.
        out.peak_rss_mb = proc_peak_rss_mb(service.proc.pid)
        out.latencies = [arrived - due_times[seq // gen.FRAME_ROWS]
                         for seq, arrived in consumer.arrivals]
        if tracer:
            tracer.enabled = False
    finally:
        gc.enable()
        await teardown(state)
    if tracer and service.trace_path:
        import json
        with open(service.trace_path) as fh:
            dumped = json.load(fh)
        out.remote_raw.append(dumped["raw"])
        out.remote_events.extend(dumped["events"])
    _check_digests("cursor key", consumer.digests,
                   oracle.net_expected(g, f), out)
    return out


#: every spinner started by this process, reaped by :func:`reap_all`.
SPINNERS: List[subprocess.Popen] = []


@contextmanager
def _other_cpu_busy():
    """Pins this process to one CPU and keeps a second CPU busy with a
    spinning process until the block ends.

    The in-process closed loops keep one CPU busy.  On a shared 2-vCPU
    host a lone busy vCPU ran up to about 1.6x faster in some minutes
    than in others, presumably as the host's turbo and core-sharing
    state follow the load on its other vCPU.  In alternating runs,
    cacq-join-window's batch p50 spread (IQR/median) was .30 with the
    second vCPU idle and .11 with it spinning, about 15% slower.  The
    other workloads keep both CPUs busy themselves.  With a single CPU
    there is nothing to do."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    SPINNERS.append(spinner)
    try:
        os.sched_setaffinity(spinner.pid, {cpus[1]})
        os.sched_setaffinity(0, {cpus[0]})
        yield
    finally:
        os.sched_setaffinity(0, cpus)
        spinner.kill()
        spinner.wait()


def _beside_busy_cpu(workload):
    @functools.wraps(workload)
    def run(plan: Plan, tracer: Optional[Tracer]) -> Outcome:
        with _other_cpu_busy():
            return workload(plan, tracer)
    return run


BY_NAME = {
    "cacq-select": _beside_busy_cpu(cacq_select),
    "cacq-join-window": _beside_busy_cpu(cacq_join_window),
    "net-stream": net_stream,
    "flux-join": flux_join,
}
