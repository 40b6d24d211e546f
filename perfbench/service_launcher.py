"""Run the network service with the benchmark's spans installed.

``python perfbench/service_launcher.py --out FILE -- [service args]``
wraps the same layer entry points the in-process traced run wraps, then
calls :func:`repro.net.service.main` unchanged.  Spans are recorded
from SIGUSR1 on (the benchmark sends it when its measured phase starts,
after set-up, and waits for the ``tracing`` line on standard output).
On SIGTERM the span aggregates and sampled Chrome trace events are
written to ``FILE`` for the benchmark process to merge, and the process
exits at once: the service's own SIGINT shutdown can hang in asyncio's
task cancellation, so the benchmark never relies on it.
"""

import json
import os
import signal
import sys

TRACING_LINE = "perfbench: tracing"


def main(argv):
    out = argv[argv.index("--out") + 1]
    service_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer
    from repro.net import service

    t = tracer.Tracer("service")
    tracer.instrument_engine(t)
    tracer.instrument_net(t)
    services = []
    streamed_before = 0
    init = service.TelegraphCQService.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    service.TelegraphCQService.__init__ = remember

    def streamed():
        return sum(s.rows_streamed_total for s in services)

    def start(_signum, _frame):
        nonlocal streamed_before
        t.start()
        t.batch = 0                       # one batch: every span sampled
        streamed_before = streamed()
        print(TRACING_LINE, flush=True)

    def dump_and_exit(_signum, _frame):
        t.enabled = False
        # Rows streamed, as the service counts them, for the
        # rows-per-stream-frame ratio.
        t.counters["net.stream_rows"] = streamed() - streamed_before
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"raw": t.raw(),
                       "events": t.chrome_events(os.getpid())}, fh)
        os._exit(0)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGTERM, dump_and_exit)
    return service.main(service_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
