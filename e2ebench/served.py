"""The served workloads: ``repro serve`` in its own process, one client.

The server runs in its default configuration (warm worker pool sized
automatically, two job threads, in-memory artifacts, no auth) on a free
local port, started through ``e2ebench/serve.py`` so that its resource
tracker exists before its pool does (see there why).  Set-up time is
measured from spawning the server to its first ``/healthz`` answer,
which the server only gives once its worker pool is warm; the client
blocks on that request instead of polling.
"""

from __future__ import annotations

import http.client
import socket
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass

from . import host, procs
from .stats import median
from .trace import Span, self_time_by_request


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


@dataclass
class Server:
    proc: subprocess.Popen[bytes]
    port: int
    setup_s: float

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        procs.stop(self.proc)


class BootError(RuntimeError):
    """The server did not come up."""


def boot() -> Server:
    """Spawn ``repro serve`` (through ``e2ebench.serve``) and wait until it
    answers ``/healthz``."""
    port = free_port()
    start = time.perf_counter()
    proc = procs.spawn(
        [sys.executable, "-m", "e2ebench.serve", "serve", "--port", str(port)],
        stderr_name="server",
    )
    try:
        assert proc.stdout is not None
        # The server prints its address once the socket is bound, before
        # it warms the pool; a request sent now is answered only after.
        while True:
            line = proc.stdout.readline()
            if not line:
                raise BootError(f"server exited with code {proc.wait()} before listening")
            if b"listening on" in line:
                break
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BootError(f"/healthz answered HTTP {response.status}")
    except BaseException:
        procs.stop(proc, interrupt=False)
        raise
    return Server(proc, port, time.perf_counter() - start)


def boot_times(count: int) -> list[float]:
    """Set-up times of ``count`` servers, each stopped again once up."""
    times = []
    for _ in range(count):
        server = boot()
        times.append(server.setup_s)
        server.stop()
    return times


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
ARTIFACTS = {
    "schedule_jobs": ("results.csv",),
    "paper_jobs": ("results.csv", "frontier.json"),
}

#: Server boots per untraced run; set-up time is their median.  The
#: first also warms the page cache.  ``BOOTS_AFTER`` of them come after
#: the timed window, so that the median spans the host's speed over the
#: whole run rather than over the few seconds before the window.
BOOTS = 5
BOOTS_AFTER = 2
#: Untimed requests before the window opens.
WARMUP = 2


def run(workload: str, seed: int, seconds: float, trace: bool, min_timed: int) -> dict:
    """One run of a served workload; returns the raw figures.

    Traced, each request is sent to the server (for queue wait and
    delivery) and then replayed layer by layer in a replay process
    (``e2ebench.library_process``).
    """
    from . import library, workloads
    from .client import ServiceClient
    from .report import MIN_TIMED, Record, Window

    artifacts = ARTIFACTS[workload]
    stream = workloads.requests(workload, seed)
    records: list[Record] = []
    outputs: dict[int, dict[str, bytes]] = {}
    bodies: dict[int, bytes] = {}
    peak_rss = 0.0
    layer_totals: dict[str, float] = {}
    with ExitStack() as cleanup:
        replay = None
        if trace:
            replay = library.start()
            cleanup.callback(procs.stop, replay.proc, interrupt=False)
            layer_totals["setup.pool_warm_s"] = median(replay.call({"kind": "warm"})["pool_warm"])
        setups = boot_times(0 if trace else BOOTS - BOOTS_AFTER - 1)
        server = boot()
        cleanup.callback(server.stop)
        setups.append(server.setup_s)
        client = ServiceClient("127.0.0.1", server.port)
        cleanup.callback(client.close)
        for _ in range(WARMUP):
            request = next(stream)
            client.run_job(request.body, artifacts)
            if replay is not None:
                replay.call({"kind": "replay", "index": -1, "body": request.body.decode()})
        if replay is not None:
            replay.call({"kind": "start_window"})
        window = Window(seconds, min_timed)
        succeeded = 0
        while window.open(succeeded):
            request = next(stream)
            outcome = client.run_job(request.body, artifacts)
            record = Record(request.index, request.scenarios, outcome.latency, outcome.error)
            if outcome.ok:
                record.queue_wait = outcome.queue_wait
                if outcome.elapsed_seconds is not None:
                    record.delivery = outcome.latency - outcome.elapsed_seconds
                outputs[request.index] = outcome.artifacts
            bodies[request.index] = request.body
            # Memory over a fixed number of requests, so that it does
            # not grow with throughput.
            if len(records) < MIN_TIMED:
                peak_rss = max(peak_rss, host.tree_peak_rss_mb(server.pid))
            if replay is not None:
                reply = replay.call(
                    {"kind": "replay", "index": request.index, "body": request.body.decode()}
                )
                record.spans = [Span(**span) for span in reply["spans"]]
                record.self_times = self_time_by_request(record.spans).get(request.index, {})
                record.counts = reply["counts"]
                record.error = record.error or reply.get("error")
            records.append(record)
            succeeded += record.error is None
        wall_s = window.elapsed()
        if replay is not None:
            layer_totals.update(replay.finish()["totals"])
        else:
            server.stop()
            setups += boot_times(BOOTS_AFTER)
    return {
        "records": records,
        "outputs": outputs,
        "bodies": bodies,
        "setups": setups,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss,
        "layer_totals": layer_totals,
    }
