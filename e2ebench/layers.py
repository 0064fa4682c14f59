"""The traced replay: each layer's public function, called in turn.

A request is replayed in process through the same public calls the
service makes for a job — spec codec, plan compile, plan execution over
a transport, analysis and CSV export, artifact store — each inside its
own span, so the self time of every layer can be compared with the
end-to-end latency of the untraced run.  Two probes then re-run parts
of the request outside its path, cache off:

* the executed shards, inline through ``solve_shard_inline``, timed per
  *row family* (two-speed pairs, fail-stop rows, general schedules) so
  the names survive any change to the backend registry;
* the general-schedule shards through ``ScheduleGrid.from_points`` and
  ``solve_schedule_grid`` separately, so the per-row Python around the
  kernel (``api.materialise_s``) can be read off by subtraction.

Only ``repro``'s public API is used.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exec import Shard, ShardOutcome, Transport, solve_shard_inline
from repro.reporting import write_results_csv
from repro.schedules import ScheduleGrid, solve_schedule_grid
from repro.service import parse_experiment_spec

from .trace import Tracer

if TYPE_CHECKING:
    from repro import Scenario
    from repro.api import ExecutionPlan, ResultSet, SolveCache
    from repro.service import ArtifactStore

#: Row families, in report order.
FAMILIES = ("pair", "failstop", "schedule")


def row_family(scenario: "Scenario") -> str:
    """What a row asks for: a fail-stop solve, a general schedule, or
    the paper's two-speed pair."""
    if scenario.mode in ("combined", "failstop"):
        return "failstop"
    if scenario.schedule is not None and scenario.schedule.as_two_speed() is None:
        return "schedule"
    return "pair"


class TracingTransport(Transport):
    """Delegates every call to ``delegate`` and records its spans.

    ``exec.prepare`` (scenario pack and heartbeat), ``exec.dispatch``
    (shard submission and plan close) and ``exec.harvest`` (time blocked
    waiting for the next completed shard).  The executed shards and the
    failed outcomes are kept for the probes and the counters.
    """

    def __init__(self, delegate: Transport, tracer: Tracer) -> None:
        self.delegate = delegate
        self.tracer = tracer
        self.scenarios: tuple["Scenario", ...] = ()
        self.shards: list[Shard] = []
        self.failed = 0

    @property
    def parallelism(self) -> int:
        return self.delegate.parallelism

    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        self.scenarios = tuple(scenarios)
        self.shards = []
        with self.tracer.span("exec.prepare"):
            self.delegate.prepare(scenarios)

    def submit_shard(self, shard: Shard) -> None:
        self.shards.append(shard)
        with self.tracer.span("exec.dispatch"):
            self.delegate.submit_shard(shard)

    def as_completed(self) -> Iterator[ShardOutcome]:
        outcomes = iter(self.delegate.as_completed())
        while True:
            start = time.perf_counter()
            outcome = next(outcomes, None)
            self.tracer.add("exec.harvest", start, time.perf_counter())
            if outcome is None:
                return
            if not outcome.ok:
                self.failed += 1
            yield outcome

    def close(self) -> None:
        with self.tracer.span("exec.dispatch"):
            self.delegate.close()


def replay_job(
    body: bytes,
    tracer: Tracer,
    *,
    cache: "SolveCache",
    transport: TracingTransport,
    store: "ArtifactStore",
    workdir: Path,
) -> tuple["ExecutionPlan", "ResultSet", int]:
    """Replay one served job in process; returns the plan, the results
    and the artifact bytes stored."""
    with tracer.span("service.spec_parse"):
        spec = parse_experiment_spec(json.loads(body))
    with tracer.span("api.plan_compile"):
        plan = spec.experiment().plan(spec.backend)
    with tracer.span("api.execute"):
        results = plan.execute(cache=cache, transport=transport)
    exports: list[tuple[str, bytes]] = []
    if "csv" in spec.artifacts:
        with tracer.span("reporting.csv"):
            path = workdir / "results.csv"
            write_results_csv(path, results)
            exports.append(("results.csv", path.read_bytes()))
    if "frontier" in spec.analyses:
        with tracer.span("analysis.frontier"):
            exports.append(("frontier.json", str(results.frontier().to_json()).encode()))
    job_id = f"replay-{tracer.request}"
    with tracer.span("service.artifact_put"):
        for name, data in exports:
            store.put(job_id, name, data)
    return plan, results, sum(len(data) for _, data in exports)


def probe_backends(
    scenarios: Sequence["Scenario"], shards: Sequence[Shard], tracer: Tracer
) -> dict[str, int]:
    """Re-solve the executed shards inline, one span per row family;
    returns the rows solved per family."""
    rows = dict.fromkeys(FAMILIES, 0)
    for shard in shards:
        family = row_family(scenarios[shard.indices[0]])
        with tracer.span(f"backends.{family}_rows"):
            solve_shard_inline(scenarios, shard)
        rows[family] += len(shard)
    return rows


def probe_schedules(
    scenarios: Sequence["Scenario"], shards: Sequence[Shard], tracer: Tracer
) -> None:
    """Grid build and lockstep kernel of every general-schedule shard."""
    for shard in shards:
        rows = [scenarios[u] for u in shard.indices if row_family(scenarios[u]) == "schedule"]
        if not rows:
            continue
        points = [(sc.resolved_config(), sc.schedule, sc.resolved_errors()) for sc in rows]
        rhos = np.array([sc.rho for sc in rows])
        with tracer.span("schedules.grid_build"):
            grid = ScheduleGrid.from_points(points)
        with tracer.span("schedules.kernel"):
            solve_schedule_grid(grid, rhos)
