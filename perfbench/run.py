"""perfbench: the TelegraphCQ reproduction's wall-clock benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cacq-select --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Four workloads drive the engine through its public doors
(``repro.client.connect()``, the ``python -m repro.net`` service over
TCP, and ``ParallelCACQ`` on ``MultiprocessBackend``); see
``BENCHMARK.json`` for why each exists.  Every run checks every result
against the plain-Python oracle in ``oracle.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with spans around the layer entry
points, and prints the per-layer metrics derived from those spans and
from the program's own counters; the sampled spans are written as a
Chrome trace under ``.perfbench_out/``.  Spans cover only the traced
run's measured phase, which for the closed loops is the fixed sample
count of batches, so per-layer totals do not grow with engine speed.
``--smoke`` runs all four workloads at a tiny size in both modes and
checks that every metric is emitted with its unit and that the oracle
passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process
exits 1 on any oracle mismatch or leaked process, and 2 when the
repository's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("cacq-select", "cacq-join-window", "net-stream", "flux-join")

#: Per-workload sizes.  ``min_samples`` is the fixed latency sample
#: count N; the tail metric is the percentile with 10 samples beyond it
#: at N, i.e. p(1 - 10/N).  N is 50 (p80) everywhere: on a shared 2-CPU
#: box p90 moved between runs about 1.7 times as much as throughput
#: (flux-join IQR/median .14-.25 against .08-.15), p80 about as much,
#: and past about p90 net-stream's latencies are set by stalls whose
#: share swings between runs (5-12% of rows).  ``rate``
#: (rows/s) is net-stream's offered load: about half of the highest
#: rate one connection sustains with a p99 under 50 ms over a 20 s run
#: on a 2-CPU box (about 6000 rows/s).  ``queries`` is cacq-select's
#: standing-query count: in alternating runs (second CPU busy) its batch
#: p50 spread (IQR/median) was .46 with 500 against .30 with 200, and
#: throughput .28 against .20, as the larger per-row working set follows
#: the host's cache load.
#: ``setups`` is how many times a
#: run sets the workload up (``setup_s`` is their median): more where
#: set-up is cheap.  Smoke runs set the closed loops up twice, so the
#: set-ups inside the measured phase run too.
PLANS = {
    "cacq-select": dict(min_samples=50, setups=20, sizes=dict(queries=200)),
    "cacq-join-window": dict(min_samples=50, setups=20),
    "net-stream": dict(min_samples=50, setups=8, sizes=dict(rate=3000)),
    "flux-join": dict(min_samples=50, setups=5),
}
SMOKE = {
    "cacq-select": dict(min_samples=10, setups=2, sizes=dict(queries=40)),
    "cacq-join-window": dict(min_samples=10, setups=2),
    "net-stream": dict(min_samples=50, setups=1, sizes=dict(rate=2000)),
    "flux-join": dict(min_samples=10, setups=1),
}

E2E = [("rows_per_s", "rows/s"), ("latency_p50_ms", "ms"),
       ("latency_tail_ms", "ms"), ("submit_p50_ms", "ms"),
       ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("client.push_rows.self_s", "s"), ("client.fetch.calls", "count"),
    ("client.fetch.self_s", "s"), ("client.submit.self_s", "s"),
    ("query.submit.calls", "count"), ("query.submit.self_s", "s"),
    ("query.window_evaluate.self_s", "s"),
    ("ingress.admit.calls", "count"), ("ingress.admit.self_s", "s"),
    ("ingress.shed_rows", "rows"),
    ("core.cacq.push_tuple.calls", "count"),
    ("core.cacq.push_tuple.self_s", "s"),
    ("core.cacq.add_query.self_s", "s"),
    ("core.cacq.remove_query.self_s", "s"),
    ("core.cacq.filter_probes_per_row", "probes/row"),
    ("core.cacq.stem_probes_per_row", "probes/row"),
    ("core.cacq.results_per_row", "results/row"),
    ("core.grouped_filter.matching.calls", "count"),
    ("core.grouped_filter.matching.self_s", "s"),
    ("core.grouped_filter.pass_ratio", "ratio"),
    ("core.stem.build.calls", "count"), ("core.stem.build.self_s", "s"),
    ("core.stem.probe.calls", "count"), ("core.stem.probe.self_s", "s"),
    ("core.stem.hit_ratio", "ratio"), ("core.stem.state_rows", "rows"),
    ("core.executor.step.calls", "count"),
    ("core.executor.step.self_s", "s"),
    ("core.executor.worked_ratio", "ratio"),
    ("core.windows.scan.calls", "count"), ("core.windows.scan.self_s", "s"),
    ("core.windows.rows_scanned", "rows"),
    ("net.frames.decode.self_s", "s"), ("net.frames.decode.bytes", "bytes"),
    ("net.frames.encode.self_s", "s"), ("net.frames.encode.bytes", "bytes"),
    ("net.pump.run_once.calls", "count"), ("net.pump.run_once.self_s", "s"),
    ("net.rows_per_stream_frame", "rows/frame"),
    ("net.bytes_per_row", "bytes/row"),
    ("sched.pass_once.calls", "count"), ("sched.pass_once.self_s", "s"),
    ("sched.worked_ratio", "ratio"),
    ("flux.tick.calls", "count"), ("flux.tick.self_s", "s"),
    ("flux.route.self_s", "s"), ("flux.procs.enqueue.self_s", "s"),
    ("flux.procs.step.self_s", "s"),
    ("flux.procs.wait_for_acks.wait_s", "s"), ("flux.procs.boot_s", "s"),
    ("flux.backlog_max_rows", "rows"), ("flux.worker_imbalance", "ratio"),
    ("loadgen.self_s", "s"), ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_share", "ratio"),
]


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_quantile(min_samples):
    return 1.0 - 10.0 / min_samples


def e2e_metrics(out, plan):
    return {
        "rows_per_s": out.rows / out.elapsed,
        "latency_p50_ms": statistics.median(out.latencies) * 1e3,
        "latency_tail_ms": percentile(
            out.latencies, tail_quantile(plan.min_samples)) * 1e3,
        # Median over queries of each query's median, all timed during
        # the measured phase: cacq-select times its churn submits, the
        # other workloads a probe submit every few batches or frames.
        # The mix holds cheap and costly queries, and the plain median
        # of a mix lands at the edge of one group.
        "submit_p50_ms": statistics.median(
            statistics.median(v) for v in out.submit_latencies.values())
        * 1e3,
        "setup_s": statistics.median(out.setups),
        "peak_rss_mb": out.peak_rss_mb,
    }


def layer_metrics(raw, plain, traced, tracer):
    """Per-layer values plus the base of every ratio.  ``traced`` did a
    fixed amount of work (a closed loop's first ``min_samples``
    batches), so ``calls`` and ``self_s`` totals fall as the engine
    improves; the tracing overhead compares it with the untraced run's
    rate over the same batches."""
    agg, c = raw["agg"], raw["counters"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def ratio(num, base):
        return num / base if base else 0.0

    tuples_in = c.get("cacq.tuples_in", 0)
    t0, t1 = traced.window
    if plain.fixed_count_elapsed:
        plain_rate = traced.rows / plain.fixed_count_elapsed
    else:                        # open loop: the offered rate, both runs
        plain_rate = plain.rows / plain.elapsed
    bases = {
        "core.cacq.*_per_row": tuples_in,
        "core.grouped_filter.pass_ratio": c.get("gf.seen", 0),
        "core.stem.hit_ratio": c.get("stem.probes", 0),
        "core.executor.worked_ratio": calls("core.executor.step"),
        "net.rows_per_stream_frame": c.get("net.stream_frames", 0),
        "net.bytes_per_row": traced.rows,
        "sched.worked_ratio": calls("sched.pass_once"),
        "trace.overhead_ratio": plain_rate,
        "trace.unattributed_share": t1 - t0,
    }
    values = {
        "client.push_rows.self_s": self_s("client.push_rows"),
        "client.fetch.calls": calls("client.fetch"),
        "client.fetch.self_s": self_s("client.fetch"),
        "client.submit.self_s": self_s("client.submit"),
        "query.submit.calls": calls("query.submit"),
        "query.submit.self_s": self_s("query.submit"),
        "query.window_evaluate.self_s": self_s("query.window_evaluate"),
        "ingress.admit.calls": calls("ingress.admit"),
        "ingress.admit.self_s": self_s("ingress.admit"),
        "ingress.shed_rows": c.get("ingress.shed_rows", 0),
        "core.cacq.push_tuple.calls": calls("core.cacq.push_tuple"),
        "core.cacq.push_tuple.self_s": self_s("core.cacq.push_tuple"),
        "core.cacq.add_query.self_s": self_s("core.cacq.add_query"),
        "core.cacq.remove_query.self_s": self_s("core.cacq.remove_query"),
        "core.cacq.filter_probes_per_row": ratio(
            c.get("cacq.filter_probes", 0), tuples_in),
        "core.cacq.stem_probes_per_row": ratio(
            c.get("cacq.stem_probes", 0), tuples_in),
        "core.cacq.results_per_row": ratio(
            c.get("cacq.results_out", 0), tuples_in),
        "core.grouped_filter.matching.calls": calls(
            "core.grouped_filter.matching"),
        "core.grouped_filter.matching.self_s": self_s(
            "core.grouped_filter.matching"),
        "core.grouped_filter.pass_ratio": ratio(
            c.get("gf.passed", 0), c.get("gf.seen", 0)),
        "core.stem.build.calls": calls("core.stem.build"),
        "core.stem.build.self_s": self_s("core.stem.build"),
        "core.stem.probe.calls": calls("core.stem.probe"),
        "core.stem.probe.self_s": self_s("core.stem.probe"),
        "core.stem.hit_ratio": ratio(
            c.get("stem.probe_hits", 0), c.get("stem.probes", 0)),
        "core.stem.state_rows": c.get("stem.state_rows", 0),
        "core.executor.step.calls": calls("core.executor.step"),
        "core.executor.step.self_s": self_s("core.executor.step"),
        "core.executor.worked_ratio": ratio(
            c.get("executor.worked", 0), calls("core.executor.step")),
        "core.windows.scan.calls": calls("core.windows.scan"),
        "core.windows.scan.self_s": self_s("core.windows.scan"),
        "core.windows.rows_scanned": c.get("windows.rows_scanned", 0),
        "net.frames.decode.self_s": self_s("net.frames.decode"),
        "net.frames.decode.bytes": c.get("net.decode.bytes", 0),
        "net.frames.encode.self_s": self_s("net.frames.encode"),
        "net.frames.encode.bytes": c.get("net.encode.bytes", 0),
        "net.pump.run_once.calls": calls("net.pump.run_once"),
        "net.pump.run_once.self_s": self_s("net.pump.run_once"),
        "net.rows_per_stream_frame": ratio(
            c.get("net.stream_rows", 0), c.get("net.stream_frames", 0)),
        "net.bytes_per_row": ratio(
            c.get("net.decode.bytes", 0) + c.get("net.encode.bytes", 0),
            traced.rows),
        "sched.pass_once.calls": calls("sched.pass_once"),
        "sched.pass_once.self_s": self_s("sched.pass_once"),
        "sched.worked_ratio": ratio(c.get("sched.worked", 0),
                                    calls("sched.pass_once")),
        "flux.tick.calls": calls("flux.tick"),
        "flux.tick.self_s": self_s("flux.tick"),
        "flux.route.self_s": self_s("flux.route"),
        "flux.procs.enqueue.self_s": self_s("flux.procs.enqueue"),
        "flux.procs.step.self_s": self_s("flux.procs.step"),
        "flux.procs.wait_for_acks.wait_s": agg.get(
            "flux.procs.wait_for_acks", [0, 0.0, 0.0])[2],
        "flux.procs.boot_s": 0.0,
        "flux.backlog_max_rows": 0,
        "flux.worker_imbalance": 0.0,
        "loadgen.self_s": self_s("loadgen"),
        "loadgen.lag_p99_ms": percentile(traced.lags, 0.99) * 1e3,
        "trace.overhead_ratio": ratio(traced.rows / traced.elapsed,
                                      plain_rate),
        "trace.unattributed_share": 1.0 - ratio(tracer.covered(t0, t1),
                                                t1 - t0),
    }
    values.update(traced.extra)
    return values, bases


def fingerprint(seed):
    """Where and on what a result was measured."""
    import platform
    from importlib import metadata

    def read(path):
        with open(path) as fh:
            return fh.read().strip()

    git_sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = read(head)
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            git_sha = read(ref_path) if os.path.isfile(ref_path) else None
        else:
            git_sha = ref
    src = hashlib.sha256()
    src_root = os.path.join(ROOT, "src", "repro")
    for base, dirs, files in sorted(os.walk(src_root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "REPRO_SANITIZE": os.environ.get("REPRO_SANITIZE"),
    }


class Runner:
    """Runs workloads in this process; instruments it at most once."""

    def __init__(self):
        self.tracer = None

    def _traced(self):
        """The process's tracer; the workload starts it when its
        measured phase starts."""
        import tracer as tr
        if self.tracer is None:
            self.tracer = tr.Tracer("loadgen")
            tr.instrument_engine(self.tracer)
            tr.instrument_client(self.tracer)
            tr.instrument_flux(self.tracer)
        return self.tracer

    def run(self, workload, seed, seconds, trace, smoke=False):
        """Returns (result line dict, details dict)."""
        import tracer as tr
        import workloads

        spec = dict((SMOKE if smoke else PLANS)[workload])
        plan = workloads.Plan(seed=seed, seconds=seconds,
                              out_dir=OUT_DIR, **spec)
        run_workload = workloads.BY_NAME[workload]
        details = {"workload": workload, "plan": spec, "seconds": seconds,
                   "tail_percentile": 100 * tail_quantile(plan.min_samples)}
        outcomes = [run_workload(plan, None)]
        if trace:
            t = self._traced()
            traced = run_workload(plan, t)
            outcomes.append(traced)
            raw = tr.merge_raw([t.raw()] + traced.remote_raw)
            values, bases = layer_metrics(raw, outcomes[0], traced, t)
            units = PER_LAYER
            details["ratio_bases"] = bases
            trace_path = os.path.join(
                OUT_DIR, f"trace-{workload}-seed{seed}.json")
            tr.write_chrome(trace_path,
                            t.chrome_events(os.getpid())
                            + traced.remote_events,
                            {"workload": workload, "seed": seed})
            details["chrome_trace"] = os.path.relpath(trace_path, ROOT)
        else:
            values = e2e_metrics(outcomes[0], plan)
            units = E2E
        mismatches = [m for o in outcomes for m in o.mismatches]
        leaked = workloads.reap_all()
        if leaked:
            mismatches.append(f"leaked processes {leaked}")
        details["samples"] = [len(o.latencies) for o in outcomes]
        details["rows"] = [o.rows for o in outcomes]
        details["mismatches"] = mismatches
        result = {
            "correct": not mismatches,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units},
        }
        return result, details


def smoke(runner):
    """Tiny runs of every workload in both modes; checks each metric is
    emitted with its unit and the oracle passes."""
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((0, E2E), (1, PER_LAYER)):
            result, details = runner.run(workload, 1, 0.3, trace,
                                         smoke=True)
            metrics = result["metrics"]
            for name, unit in expected:
                got = metrics.get(name)
                if got is None or got.get("unit") != unit or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {name}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{details['mismatches']}")
            print(f"smoke {workload} trace={trace}: "
                  f"{len(metrics)} metrics, correct={result['correct']}",
                  flush=True)
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def _terminate(signum, _frame):
    # Turn SIGTERM into SystemExit so every ``finally`` reaps workers
    # and the service process.
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    signal.signal(signal.SIGTERM, _terminate)
    # Plan-check advisories (TCQ205 on 200 standing queries) are expected.
    warnings.simplefilter("ignore")
    runner = Runner()
    try:
        if args.smoke:
            return smoke(runner)
        result, details = runner.run(args.workload, args.seed,
                                     args.seconds, args.trace)
    finally:
        import workloads
        workloads.reap_all()
    details["env"] = fingerprint(args.seed)
    details["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for problem in details["mismatches"]:
        print(f"MISMATCH: {problem}")
    print("env " + json.dumps(details["env"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
