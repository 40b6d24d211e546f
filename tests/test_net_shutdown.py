"""``python -m repro.net`` shuts down cleanly on SIGINT under traffic.

The service runs as a real process; a feeder connection pushes rows
while a second connection drains a credit-streamed cursor, and SIGINT
arrives mid-stream.  The process must exit 0 within 10 s every time.
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.client import connect

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
RUNS = 8


def _start_service():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.net", "--port", "0",
         "--admin-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"wire protocol on [^:]+:(\d+),", banner)
    if match is None:
        proc.kill()
        proc.wait()
        pytest.fail(f"service did not start: {banner!r} "
                    f"{proc.stderr.read()}")
    return proc, int(match.group(1))


def _sigint_mid_stream(delay):
    proc, port = _start_service()
    stop = threading.Event()
    feeder = reader = None
    try:
        url = f"tcp://127.0.0.1:{port}"
        feeder = connect(url)
        feeder.create_stream("s", "k", "v")
        reader = connect(url)
        cursor = reader.submit("SELECT * FROM s WHERE k = 1",
                               stream=True, credit=32)

        # Both loops end with an error once the service goes away.
        def push():
            n = 0
            try:
                while not stop.is_set():
                    feeder.push_rows("s", [[j % 4, n + j]
                                           for j in range(64)])
                    n += 64
            except Exception:
                pass

        def drain():
            try:
                while not stop.is_set():
                    cursor.fetch(16)
                    cursor.grant(16)
            except Exception:
                pass

        threads = [threading.Thread(target=push, daemon=True),
                   threading.Thread(target=drain, daemon=True)]
        for t in threads:
            t.start()
        time.sleep(delay)
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            code = None
        stop.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        stop.set()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for conn in (feeder, reader):
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
    return code, stderr


@pytest.mark.net
def test_sigint_mid_stream_exits_cleanly():
    for run in range(RUNS):
        code, stderr = _sigint_mid_stream(0.3 + 0.05 * run)
        assert code == 0, (f"run {run}: exit {code} "
                           f"(None = still running after 10 s)\n{stderr}")
