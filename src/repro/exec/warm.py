"""The persistent warm-worker pool transport.

``PooledTransport`` pays a full process-pool spawn (and scenario-pack
rebuild) on every plan — fine for one big grid, ruinous for the many
small plans of an interactive session or a service loop.
:class:`WarmWorkerPool` keeps a fleet of worker processes alive across
plans and streams shards to whichever worker is free:

* **acquire/release** — workers are leased per shard
  (:meth:`WarmWorkerPool.acquire` / :meth:`WarmWorkerPool.release`)
  and returned to the idle set the moment their result lands, so a
  slow shard never idles the rest of the fleet;
* **health checks** — a heartbeat ping/pong over the worker queues
  (:meth:`check_health`, run at every ``prepare``) recycles silent or
  dead workers before the plan starts, and the harvest loop notices a
  worker that dies *mid-shard* within one poll tick;
* **recycling** — a worker that has solved ``max_tasks_per_worker``
  shards is retired and replaced, bounding any slow leak a backend
  might carry;
* **bounded retry** — a shard whose worker crashed is re-queued onto a
  healthy worker up to ``max_retries`` times before it is reported
  lost (:class:`~repro.exceptions.WorkerCrashError`);
* **graceful degradation** — when workers cannot be (re)started at
  all, the remaining shards solve inline in the parent process; the
  plan still completes, just without parallelism.

The pool is a :class:`~repro.exec.base.Transport`, so
``Experiment.solve(transport=pool)`` (or ``transport="warm"`` for the
process-wide :func:`get_default_pool`) routes a plan through it;
``close()`` only releases per-plan resources — workers stay warm until
:meth:`shutdown` (the default pool is shut down atexit).

Registry caveat: workers inherit the backend registry at fork, so
custom backends registered at runtime are visible to them under the
``fork`` start method (the Linux default).  Under ``spawn`` /
``forkserver`` — or after a worker is recycled under ``spawn`` —
custom backends must be registered at import time of your module (see
docs/execution.md).
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as _queue
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

from ..exceptions import WorkerCrashError
from ..api.shm import PackLayout, ScenarioPack, solve_pack_shard
from .base import Shard, ShardOutcome, Transport, solve_shard_inline

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from ..api.result import Result
    from ..api.scenario import Scenario

__all__ = [
    "WarmWorkerPool",
    "PoolStatus",
    "WorkerStatus",
    "get_default_pool",
    "default_pool_or_none",
    "shutdown_default_pool",
    "warm_default_pool",
    "default_pool_lifespan",
]

#: Tasks a worker solves before it is retired and replaced.
DEFAULT_MAX_TASKS = 256

#: Seconds the harvest loop blocks per poll before re-checking worker
#: liveness — the crash-detection latency bound.
_POLL_TICK = 0.05


def _default_worker_count() -> int:
    """Default fleet size: the CPU count, capped (a solver pool past 8
    workers is usually memory-bound, not CPU-bound)."""
    return max(1, min(8, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _solve_payload(payload: tuple[Any, ...]) -> "list[Result]":
    """Solve one task payload inside a worker."""
    from ..api.backends import get_backend

    if payload[0] == "pack":
        _, name, layout, indices, backend = payload
        assert isinstance(layout, PackLayout)
        return solve_pack_shard(name, layout, list(indices), backend)
    _, scenarios, backend = payload
    return get_backend(backend).solve_batch(list(scenarios))


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a summary.

    An unpicklable exception would die silently in the queue's feeder
    thread and the parent would wait forever for the lost message —
    degrade the error, never the delivery.
    """
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(
    worker_id: int,
    task_queue: "multiprocessing.Queue[tuple[Any, ...]]",
    result_queue: "multiprocessing.Queue[tuple[Any, ...]]",
) -> None:
    """Worker loop: solve tasks, answer pings, stop on request.

    Every task failure — including a stale scenario pack unlinked by an
    abandoned plan — is caught and reported, so a worker only dies by
    ``stop``, recycle, or an actual crash (the parent detects the
    latter via ``Process.is_alive``).
    """
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            result_queue.put(("bye", worker_id, None, None))
            return
        if kind == "ping":
            result_queue.put(("pong", worker_id, message[1], None))
            continue
        _, epoch, shard_id, payload = message
        try:
            results = _solve_payload(payload)
        except Exception as exc:  # noqa: BLE001 - report, never die
            result_queue.put(
                ("error", worker_id, (epoch, shard_id), _picklable_error(exc))
            )
        else:
            result_queue.put(("done", worker_id, (epoch, shard_id), results))


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    worker_id: int
    process: "BaseProcess"
    task_queue: "multiprocessing.Queue[tuple[Any, ...]]"
    tasks_done: int = 0
    busy: "tuple[int, int] | None" = None  # (epoch, shard_id) in flight

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's row of a :class:`PoolStatus`."""

    worker_id: int
    pid: int | None
    alive: bool
    busy: bool
    tasks_done: int


@dataclass(frozen=True)
class PoolStatus:
    """Snapshot of a :class:`WarmWorkerPool` for telemetry and the
    ``repro pool status`` CLI."""

    started: bool
    healthy: bool
    max_workers: int
    workers: tuple[WorkerStatus, ...] = ()
    tasks_completed: int = 0
    worker_crashes: int = 0
    workers_recycled: int = 0
    shard_retries: int = 0
    inline_fallbacks: int = 0

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        if not self.started:
            return (
                f"warm pool: not started (max_workers={self.max_workers}); "
                f"workers spawn lazily on the first plan"
            )
        health = "healthy" if self.healthy else "UNHEALTHY (inline fallback)"
        lines = [
            f"warm pool: {len(self.workers)} worker(s), "
            f"max_workers={self.max_workers}, {health}",
            f"  tasks completed {self.tasks_completed}, "
            f"crashes {self.worker_crashes}, "
            f"recycled {self.workers_recycled}, "
            f"retries {self.shard_retries}, "
            f"inline fallbacks {self.inline_fallbacks}",
        ]
        for ws in self.workers:
            state = "busy" if ws.busy else "idle"
            live = "alive" if ws.alive else "dead"
            lines.append(
                f"  worker {ws.worker_id}: pid={ws.pid} {live} {state} "
                f"tasks_done={ws.tasks_done}"
            )
        return "\n".join(lines)


class WarmWorkerPool(Transport):
    """A persistent pool of solver workers with acquire/release leases.

    Parameters
    ----------
    max_workers:
        Fleet size (default: CPU count capped at 8).
    max_tasks_per_worker:
        Shards a worker solves before being retired and replaced.
    max_retries:
        Crash-retries per shard before it is reported lost.
    heartbeat_timeout:
        Seconds to wait for ping/pong health checks at ``prepare``
        (``None`` disables the pre-plan heartbeat; mid-plan crash
        detection via process liveness is always on).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default,
        ``fork`` on Linux — see the registry caveat in the module
        docstring).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        max_tasks_per_worker: int = DEFAULT_MAX_TASKS,
        max_retries: int = 2,
        heartbeat_timeout: float | None = 5.0,
        start_method: str | None = None,
    ) -> None:
        self.max_workers = max_workers or _default_worker_count()
        self.max_tasks_per_worker = max_tasks_per_worker
        self.max_retries = max_retries
        self.heartbeat_timeout = heartbeat_timeout
        self._start_method = start_method
        self._ctx: "BaseContext | None" = None
        self._result_queue: "multiprocessing.Queue[tuple[Any, ...]] | None" = None
        self._workers: dict[int, _Worker] = {}
        self._retiring: dict[int, _Worker] = {}
        self._idle: deque[int] = deque()
        self._next_worker_id = 0
        self._started = False
        self._unhealthy = False
        # Per-plan state
        self._epoch = 0
        self._scenarios: list["Scenario"] = []
        self._pack: ScenarioPack | None = None
        self._pending: deque[Shard] = deque()
        self._inflight: dict[int, Shard] = {}
        self._retries: dict[int, int] = {}
        self._ready: deque[ShardOutcome] = deque()
        self._pongs: set[object] = set()
        # Lifetime counters (PoolStatus)
        self._tasks_completed = 0
        self._worker_crashes = 0
        self._workers_recycled = 0
        self._shard_retries = 0
        self._inline_fallbacks = 0

    @property
    def parallelism(self) -> int:
        return self.max_workers

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn workers up to ``max_workers`` (idempotent).

        A failed spawn marks the pool unhealthy — plans then degrade to
        inline execution instead of failing.
        """
        if self._ctx is None:
            import multiprocessing
            from multiprocessing import resource_tracker

            # Workers must share the parent's resource tracker: a worker
            # forked before it exists starts its own, which unlinks the
            # live scenario packs it attached to when the worker retires.
            resource_tracker.ensure_running()
            self._ctx = multiprocessing.get_context(self._start_method)
            self._result_queue = self._ctx.Queue()
        self._started = True
        while len(self._workers) < self.max_workers:
            if self._spawn_worker() is None:
                break

    def _spawn_worker(self) -> _Worker | None:
        assert self._ctx is not None and self._result_queue is not None
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue: "multiprocessing.Queue[tuple[Any, ...]]" = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self._result_queue),
            name=f"repro-warm-worker-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            self._unhealthy = True
            return None
        worker = _Worker(worker_id=worker_id, process=process, task_queue=task_queue)
        self._workers[worker_id] = worker
        self._idle.append(worker_id)
        self._unhealthy = False
        return worker

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker (graceful, then terminate) and reset."""
        everyone = list(self._workers.values()) + list(self._retiring.values())
        for worker in everyone:
            if worker.alive:
                try:
                    worker.task_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        deadline = time.monotonic() + timeout
        for worker in everyone:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.alive:
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers.clear()
        self._retiring.clear()
        self._idle.clear()
        self._started = False
        self._ctx = None
        self._result_queue = None

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, timeout: float | None = 0.0) -> _Worker | None:
        """Lease an idle, live worker; ``None`` when none frees up
        within ``timeout`` seconds (``None`` = wait indefinitely).

        Dead idle workers found on the way are replaced, and a worker
        past its task budget is recycled instead of handed out.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            while self._idle:
                worker = self._workers.get(self._idle.popleft())
                if worker is None:
                    continue
                if not worker.alive:
                    self._replace_worker(worker, crashed=True)
                    continue
                if worker.tasks_done >= self.max_tasks_per_worker:
                    self._recycle_worker(worker)
                    continue
                return worker
            if deadline is not None and time.monotonic() >= deadline:
                return None
            if not self._workers:
                return None
            self._pump(timeout=_POLL_TICK)
            self._reap_crashed()

    def release(self, worker: _Worker) -> None:
        """Return a leased worker to the idle set (or retire it when it
        has hit its task budget)."""
        worker.busy = None
        if worker.tasks_done >= self.max_tasks_per_worker:
            self._recycle_worker(worker)
        elif worker.worker_id in self._workers:
            self._idle.append(worker.worker_id)

    def _recycle_worker(self, worker: _Worker) -> None:
        """Retire a worker at its task budget and spawn a successor."""
        if self._workers.pop(worker.worker_id, None) is None:
            return
        self._workers_recycled += 1
        self._retiring[worker.worker_id] = worker
        try:
            worker.task_queue.put(("stop",))
        except (OSError, ValueError):  # pragma: no cover - queue gone
            pass
        if self._started:
            self._spawn_worker()

    def _replace_worker(self, worker: _Worker, *, crashed: bool) -> None:
        """Drop a dead worker and spawn a successor."""
        self._workers.pop(worker.worker_id, None)
        if crashed:
            self._worker_crashes += 1
        if self._started:
            self._spawn_worker()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def check_health(self, timeout: float | None = None) -> dict[int, bool]:
        """Heartbeat every idle worker; recycle the silent and the dead.

        Sends a ping down each idle worker's queue and waits up to
        ``timeout`` (default ``heartbeat_timeout``) for the pongs.
        Returns ``{worker_id: healthy}`` for the checked workers.
        Busy workers are only liveness-checked — their heartbeat is the
        result they are about to deliver.
        """
        wait = self.heartbeat_timeout if timeout is None else timeout
        checked: dict[int, bool] = {}
        tokens: dict[object, int] = {}
        for worker_id in list(self._idle):
            worker = self._workers.get(worker_id)
            if worker is None:
                continue
            if not worker.alive:
                checked[worker_id] = False
                continue
            token = ("hb", self._epoch, worker_id)
            tokens[token] = worker_id
            try:
                worker.task_queue.put(("ping", token))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                checked[worker_id] = False
        deadline = time.monotonic() + (wait or 0.0)
        while tokens and time.monotonic() < deadline:
            self._pump(timeout=_POLL_TICK)
            for token in [t for t in tokens if t in self._pongs]:
                checked[tokens.pop(token)] = True
                self._pongs.discard(token)
        for worker_id in tokens.values():
            checked[worker_id] = False
        for worker_id, healthy in checked.items():
            worker = self._workers.get(worker_id)
            if worker is not None and not healthy:
                try:
                    self._idle.remove(worker_id)
                except ValueError:
                    pass
                if worker.alive:
                    worker.process.terminate()
                self._replace_worker(worker, crashed=True)
        return checked

    def status(self) -> PoolStatus:
        """A :class:`PoolStatus` snapshot (no side effects)."""
        return PoolStatus(
            started=self._started,
            healthy=not self._unhealthy,
            max_workers=self.max_workers,
            workers=tuple(
                WorkerStatus(
                    worker_id=w.worker_id,
                    pid=w.process.pid,
                    alive=w.alive,
                    busy=w.busy is not None,
                    tasks_done=w.tasks_done,
                )
                for w in self._workers.values()
            ),
            tasks_completed=self._tasks_completed,
            worker_crashes=self._worker_crashes,
            workers_recycled=self._workers_recycled,
            shard_retries=self._shard_retries,
            inline_fallbacks=self._inline_fallbacks,
        )

    # ------------------------------------------------------------------
    # Transport protocol
    # ------------------------------------------------------------------
    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        # A new epoch: results of any shard abandoned by a previous
        # plan's interrupted harvest are discarded on arrival.
        self._epoch += 1
        self._scenarios = list(scenarios)
        self._pack = ScenarioPack.create(self._scenarios)
        self._pending.clear()
        self._inflight.clear()
        self._retries.clear()
        self._ready.clear()
        self.start()
        if self.heartbeat_timeout is not None and self._idle:
            self.check_health()

    def submit_shard(self, shard: Shard) -> None:
        self._pending.append(shard)
        self._dispatch()

    def as_completed(self) -> Iterator[ShardOutcome]:
        while self._ready or self._pending or self._inflight:
            if self._ready:
                yield self._ready.popleft()
                continue
            self._dispatch()
            if self._pending and not self._inflight and not self._live_workers():
                # Degraded: no worker could be started (or every one is
                # gone and irreplaceable) — finish the plan inline.
                shard = self._pending.popleft()
                self._inline_fallbacks += 1
                yield solve_shard_inline(
                    self._scenarios, shard, retries=self._retries.get(shard.shard_id, 0)
                )
                continue
            if self._inflight or self._pending:
                self._pump(timeout=_POLL_TICK)
                self._reap_crashed()

    def close(self) -> None:
        """End-of-plan cleanup: dispose the scenario pack, keep the
        workers warm.  (Use :meth:`shutdown` to stop the fleet.)"""
        if self._pack is not None:
            self._pack.dispose()
            self._pack = None
        self._scenarios = []
        self._pending.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _live_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.alive)

    def _payload(self, shard: Shard) -> tuple[Any, ...]:
        if self._pack is not None:
            name, layout, indices = self._pack.task(shard.indices)
            return ("pack", name, layout, indices, shard.backend)
        return (
            "list",
            [self._scenarios[u] for u in shard.indices],
            shard.backend,
        )

    def _dispatch(self) -> None:
        """Hand pending shards to idle workers (acquire -> send)."""
        while self._pending:
            worker = self.acquire(timeout=0.0)
            if worker is None:
                return
            shard = self._pending.popleft()
            try:
                worker.task_queue.put(
                    ("task", self._epoch, shard.shard_id, self._payload(shard))
                )
            except (OSError, ValueError):  # pragma: no cover - queue gone
                self._pending.appendleft(shard)
                self._replace_worker(worker, crashed=True)
                continue
            worker.busy = (self._epoch, shard.shard_id)
            self._inflight[shard.shard_id] = shard

    def _pump(self, timeout: float | None = None) -> None:
        """Drain the result queue, releasing workers and collecting
        fresh outcomes into the ready deque.

        Blocks up to ``timeout`` seconds for the *first* message, then
        takes whatever else is immediately available.
        """
        if self._result_queue is None:
            return
        block = timeout is not None and timeout > 0
        while True:
            try:
                message = self._result_queue.get(
                    block=block, timeout=timeout if block else None
                )
            except _queue.Empty:
                return
            block = False
            kind, worker_id, tag, body = message
            if kind == "pong":
                self._pongs.add(tag)
                continue
            if kind == "bye":
                retired = self._retiring.pop(worker_id, None)
                if retired is not None:
                    retired.process.join(timeout=1.0)
                continue
            # "done" / "error" for (epoch, shard_id) == tag
            epoch, shard_id = tag
            worker = self._workers.get(worker_id) or self._retiring.get(worker_id)
            if worker is not None and worker.busy == (epoch, shard_id):
                worker.tasks_done += 1
                self.release(worker)
            if epoch != self._epoch:
                continue  # stale: an abandoned plan's shard
            shard = self._inflight.pop(shard_id, None)
            if shard is None:
                continue  # already retried elsewhere / unknown
            retries = self._retries.get(shard_id, 0)
            if kind == "done":
                self._tasks_completed += 1
                self._ready.append(
                    ShardOutcome(
                        shard=shard,
                        results=tuple(body),
                        worker=f"warm-{worker_id}",
                        retries=retries,
                    )
                )
            else:
                # A shard *exception* is deterministic — retrying it on
                # another worker would fail identically, so report it.
                self._ready.append(
                    ShardOutcome(
                        shard=shard,
                        error=body,
                        worker=f"warm-{worker_id}",
                        retries=retries,
                    )
                )

    def _reap_crashed(self) -> None:
        """Detect workers that died mid-shard; retry or fail their work."""
        for worker in list(self._workers.values()):
            if worker.alive:
                continue
            busy = worker.busy
            self._replace_worker(worker, crashed=True)
            if busy is None:
                continue
            epoch, shard_id = busy
            if epoch != self._epoch:
                continue  # stale shard died with its worker; nothing to do
            shard = self._inflight.pop(shard_id, None)
            if shard is None:
                continue
            retries = self._retries.get(shard_id, 0) + 1
            self._retries[shard_id] = retries
            if retries <= self.max_retries:
                self._shard_retries += 1
                self._pending.appendleft(shard)
                self._dispatch()
            else:
                self._ready.append(
                    ShardOutcome(
                        shard=shard,
                        error=WorkerCrashError(1, len(shard)),
                        worker=f"warm-{worker.worker_id}",
                        retries=retries,
                    )
                )


# ----------------------------------------------------------------------
# The process-wide default pool
# ----------------------------------------------------------------------
_default_pool: WarmWorkerPool | None = None


def get_default_pool(max_workers: int | None = None) -> WarmWorkerPool:
    """The process-wide reusable pool behind ``transport="warm"``.

    Created lazily on first use (sized by ``max_workers`` then, default
    CPU-capped); later calls return the same pool regardless of
    ``max_workers`` — one warm fleet per process, shared by every plan.
    Shut down automatically atexit, or explicitly via
    :func:`shutdown_default_pool`.
    """
    global _default_pool
    if _default_pool is None:
        _default_pool = WarmWorkerPool(max_workers=max_workers)
    return _default_pool


def default_pool_or_none() -> WarmWorkerPool | None:
    """The process-wide pool if one has been created, else ``None`` —
    a peek that never creates the pool (``repro pool status`` uses it)."""
    return _default_pool


def shutdown_default_pool() -> None:
    """Stop the default pool's workers (a later ``get_default_pool``
    starts a fresh one)."""
    global _default_pool
    if _default_pool is not None:
        _default_pool.shutdown()
        _default_pool = None


def warm_default_pool(max_workers: int | None = None) -> WarmWorkerPool:
    """Eagerly start (and heartbeat) the process-wide pool.

    ``get_default_pool`` alone spawns nothing — workers appear lazily
    at the first plan's ``prepare``, which is the right behaviour for
    scripts but wrong for a long-lived server: the first request should
    not pay the fleet spawn.  This helper is the *startup* half of the
    server lifespan story: spawn the fleet now, heartbeat it, and
    return the pool ready to serve.
    """
    pool = get_default_pool(max_workers)
    pool.start()
    if pool.heartbeat_timeout is not None and pool._idle:
        pool.check_health()
    return pool


@contextmanager
def default_pool_lifespan(
    max_workers: int | None = None, *, drain_timeout: float = 5.0
) -> "Iterator[WarmWorkerPool]":
    """Tie the process-wide pool to an application lifespan.

    A long-lived server cannot rely on the atexit hook alone: atexit
    only runs at interpreter exit, while a server wants its fleet
    spawned *before* the first request (startup warm) and drained
    deterministically when the app stops — not when the process dies.
    ``with default_pool_lifespan(n):`` is that contract:

    * entry — :func:`warm_default_pool` spawns and heartbeats the
      fleet;
    * exit — :func:`shutdown_default_pool` stops every worker
      (graceful ``stop`` message first, ``terminate`` after
      ``drain_timeout`` seconds), even on error paths.

    The atexit hook stays registered as the backstop for processes
    that never exit the lifespan cleanly (``kill -9`` excepted — the
    workers are daemons and die with the parent).
    """
    pool = warm_default_pool(max_workers)
    try:
        yield pool
    finally:
        global _default_pool
        if _default_pool is pool:
            pool.shutdown(timeout=drain_timeout)
            _default_pool = None
        else:  # pragma: no cover - pool swapped mid-lifespan
            pool.shutdown(timeout=drain_timeout)


atexit.register(shutdown_default_pool)
