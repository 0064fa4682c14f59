"""The layer-by-layer replay of traced runs, in a fresh interpreter.

Run as ``python -m e2ebench.library_process``.  It imports ``repro``,
writes ``ready`` and then answers one JSON line per JSON request line on
stdin:

``{"kind": "warm"}``
    starts the warm worker pool the way ``repro serve`` does
    (``warm_default_pool``), three times, and returns the timings; the
    pool then serves the replays below.
``{"kind": "replay", "index": i, "body": "..."}``
    replays one served job in this process, layer by layer, through the
    warm pool, a private solve cache and an in-memory artifact store.
``{"kind": "start_window"}``
    zeroes the pool and cache counters.
``{"kind": "exit"}``
    returns the pool and cache figures, stops the pool and exits.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from multiprocessing import resource_tracker
from typing import Any

from .procs import OUT

#: Pool starts timed by ``warm``; the last pool is kept.
POOL_STARTS = 3


class Library:
    """The request handlers; state is the replay pool, cache and store."""

    def __init__(self) -> None:
        self.pool: Any = None
        self.cache: Any = None
        self.store: Any = None
        self._zero: tuple[Any, tuple[int, int]] | None = None

    def warm(self, message: dict[str, Any]) -> dict[str, Any]:
        from repro.api import SolveCache
        from repro.exec import shutdown_default_pool, warm_default_pool
        from repro.service import InMemoryArtifactStore

        # As for the server (see e2ebench/serve.py): a tracker the
        # workers inherit, so recycling one does not unlink live packs.
        resource_tracker.ensure_running()
        self.cache = SolveCache()
        self.store = InMemoryArtifactStore()
        times = []
        for i in range(POOL_STARTS):
            start = time.perf_counter()
            self.pool = warm_default_pool()
            times.append(time.perf_counter() - start)
            if i < POOL_STARTS - 1:
                shutdown_default_pool()
        return {"pool_warm": times}

    def replay(self, message: dict[str, Any]) -> dict[str, Any]:
        from . import layers
        from .trace import Tracer

        tracer = Tracer()
        tracer.request = message["index"]
        transport = layers.TracingTransport(self.pool, tracer)
        counts: dict[str, Any] = {}
        reply: dict[str, Any] = {"counts": counts}
        try:
            with tracer.span("request"):
                plan, _, size = layers.replay_job(
                    message["body"].encode(), tracer, cache=self.cache, transport=transport,
                    store=self.store, workdir=OUT / "tmp",
                )
            rows = layers.probe_backends(plan.unique, transport.shards, tracer)
            layers.probe_schedules(plan.unique, transport.shards, tracer)
            counts.update({f"backends.{f}_rows": n for f, n in rows.items()})
            counts.update({
                "api.plan_unique": plan.n_unique,
                "api.plan_deduplicated": plan.n_deduplicated,
                "service.artifact_bytes": size,
            })
        except Exception as exc:  # noqa: BLE001 - a failed replay is a failed request
            reply["error"] = f"replay: {type(exc).__name__}: {exc}"
        counts["exec.shards"] = len(transport.shards)
        counts["exec.failed_shards"] = transport.failed
        reply["spans"] = [asdict(s) for s in tracer.spans]
        return reply

    def start_window(self, message: dict[str, Any]) -> dict[str, Any]:
        self._zero = (self.pool.status(), self.cache.stats())
        return {}

    def exit(self, message: dict[str, Any]) -> dict[str, Any]:
        from repro.exec import shutdown_default_pool

        reply: dict[str, Any] = {}
        if self.pool is not None and self._zero is not None:
            status, (hits, misses) = self.pool.status(), self.cache.stats()
            zero_status, (zero_hits, zero_misses) = self._zero
            hits, misses = hits - zero_hits, misses - zero_misses
            reply["totals"] = {
                "exec.shard_retries": status.shard_retries - zero_status.shard_retries,
                "exec.workers_recycled": status.workers_recycled - zero_status.workers_recycled,
                "api.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            }
            shutdown_default_pool()
        return reply


def main() -> None:
    import repro  # noqa: F401 - set-up ends once repro is imported

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    library = Library()
    for line in sys.stdin:
        message = json.loads(line)
        reply = getattr(library, message["kind"])(message)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if message["kind"] == "exit":
            return


if __name__ == "__main__":
    main()
