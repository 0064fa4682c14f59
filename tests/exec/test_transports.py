"""Unit contracts of the transport layer (:mod:`repro.exec`).

Crash/fault *integration* coverage lives in test_crash_recovery.py;
here we pin the seams: the resolve mapping, the inline outcome
semantics, and the warm pool's acquire/release, heartbeat, recycling
and degradation machinery.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.api.experiment import Experiment
from repro.api.scenario import Scenario
from repro.exceptions import InvalidParameterError
from repro.exec import (
    InlineTransport,
    PooledTransport,
    Shard,
    WarmWorkerPool,
    get_default_pool,
    resolve_transport,
    shutdown_default_pool,
    solve_shard_inline,
)

from .conftest import CHAOS_BACKEND


class TestResolveTransport:
    def test_none_maps_to_processes_semantics(self):
        assert isinstance(resolve_transport(None, None), InlineTransport)
        assert isinstance(resolve_transport(None, 1), InlineTransport)
        pooled = resolve_transport(None, 3)
        assert isinstance(pooled, PooledTransport)
        assert pooled.max_workers == 3

    def test_strings_select_kinds(self):
        assert isinstance(resolve_transport("inline", 4), InlineTransport)
        assert isinstance(resolve_transport("pooled", 2), PooledTransport)
        try:
            warm = resolve_transport("warm", 2)
            assert isinstance(warm, WarmWorkerPool)
            # The default pool is process-wide: same object on re-resolve.
            assert resolve_transport("warm", None) is warm
        finally:
            shutdown_default_pool()

    def test_instance_passes_through(self):
        tp = InlineTransport()
        assert resolve_transport(tp, 8) is tp

    def test_unknown_string_raises_typed(self):
        with pytest.raises(InvalidParameterError):
            resolve_transport("teleport", None)


class TestInlineTransport:
    def _scenarios(self, hera_xscale):
        return [
            Scenario(config=hera_xscale, rho=2.5 + 0.5 * i) for i in range(3)
        ]

    def test_outcomes_in_submission_order(self, hera_xscale):
        scenarios = self._scenarios(hera_xscale)
        tp = InlineTransport()
        tp.prepare(scenarios)
        shards = [
            Shard(shard_id=i, backend="firstorder", indices=(i,))
            for i in range(3)
        ]
        for shard in shards:
            tp.submit_shard(shard)
        outcomes = list(tp.as_completed())
        tp.close()
        assert [o.shard.shard_id for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.worker == "inline" for o in outcomes)
        assert all(len(o.results) == 1 for o in outcomes)

    def test_shard_exception_becomes_error_outcome(self, chaos_scenarios):
        scenarios = chaos_scenarios(["poison"])
        shard = Shard(shard_id=0, backend=CHAOS_BACKEND, indices=(0,))
        outcome = solve_shard_inline(scenarios, shard)
        assert not outcome.ok
        assert outcome.results is None
        assert "poisoned" in str(outcome.error)

    def test_parallelism_is_one(self):
        assert InlineTransport().parallelism == 1
        assert PooledTransport(max_workers=5).parallelism == 5


class TestWarmPoolMachinery:
    def test_acquire_release_lease_semantics(self):
        pool = WarmWorkerPool(max_workers=1, heartbeat_timeout=None)
        try:
            pool.start()
            worker = pool.acquire(timeout=5.0)
            assert worker is not None and worker.alive
            # The only worker is leased out: nothing to acquire.
            assert pool.acquire(timeout=0.0) is None
            pool.release(worker)
            again = pool.acquire(timeout=5.0)
            assert again is worker
            pool.release(again)
        finally:
            pool.shutdown()

    def test_heartbeat_reports_healthy_workers(self):
        pool = WarmWorkerPool(max_workers=2, heartbeat_timeout=10.0)
        try:
            pool.start()
            checked = pool.check_health()
            assert len(checked) == 2
            assert all(checked.values())
        finally:
            pool.shutdown()

    def test_max_tasks_recycling_replaces_workers(self, chaos_scenarios):
        pool = WarmWorkerPool(
            max_workers=2, max_tasks_per_worker=1, heartbeat_timeout=None
        )
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", "", ""]))
            results = exp.solve(cache=False, transport=pool)
            assert all(r.feasible for r in results)
            status = pool.status()
            assert status.tasks_completed == 4
            # Every task retires its worker; successors handled the
            # rest of the plan.
            assert status.workers_recycled >= 2
        finally:
            pool.shutdown()

    def test_unhealthy_pool_degrades_to_inline(self, chaos_scenarios, monkeypatch):
        def refuse(self):
            self._unhealthy = True
            return None

        monkeypatch.setattr(WarmWorkerPool, "_spawn_worker", refuse)
        pool = WarmWorkerPool(max_workers=2)
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", ""]))
            results = exp.solve(cache=False, transport=pool)
            assert all(r.feasible for r in results)
            status = pool.status()
            assert not status.healthy
            assert status.inline_fallbacks == 3
            assert status.workers == ()
        finally:
            pool.shutdown()

    def test_status_describe_before_start(self):
        pool = WarmWorkerPool(max_workers=3)
        text = pool.status().describe()
        assert "not started" in text
        assert "max_workers=3" in text

    def test_pool_reuse_across_plans(self, chaos_scenarios):
        pool = WarmWorkerPool(max_workers=2, heartbeat_timeout=5.0)
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", "", ""]))
            first = exp.solve(cache=False, transport=pool)
            pids = {w.pid for w in pool.status().workers}
            second = exp.solve(cache=False, transport=pool)
            # Same fleet served both plans: no respawn between them.
            assert {w.pid for w in pool.status().workers} == pids
            for a, b in zip(first, second):
                assert a.scenario == b.scenario
                assert a.best == b.best
        finally:
            pool.shutdown()


class TestDefaultPool:
    def test_default_pool_is_reused_and_shut_down(self):
        try:
            pool = get_default_pool(max_workers=2)
            assert get_default_pool() is pool
        finally:
            shutdown_default_pool()
        fresh = get_default_pool(max_workers=2)
        try:
            assert fresh is not pool
        finally:
            shutdown_default_pool()


# A fresh interpreter, so no resource tracker exists before the pool
# forks: recycled workers (max_tasks_per_worker=3) must not unlink the
# parent's live scenario packs.
_TRACKER_PROBE = textwrap.dedent(
    """
    import numpy as np
    from repro.api.experiment import Experiment
    from repro.exec import WarmWorkerPool

    pool = WarmWorkerPool(max_workers=2, max_tasks_per_worker=3)
    pool.start()
    try:
        for k in range(4):
            rhos = tuple(float(r) for r in np.linspace(2.0 + k, 2.5 + k, 8))
            rows = Experiment.over(["hera-xscale"], rhos).solve(
                transport=pool, cache=False
            )
            print(len(rows))
    finally:
        pool.shutdown()
    """
)


class TestWarmPoolSharedMemory:
    def test_recycled_workers_keep_scenario_packs(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("REPRO_DISABLE_SHM", None)  # the packs are what gets lost
        proc = subprocess.run(
            [sys.executable, "-c", _TRACKER_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["8"] * 4
        assert "resource_tracker" not in proc.stderr
