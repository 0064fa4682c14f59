"""Per-request records and the metrics the benchmark prints.

End-to-end metrics come only from untraced runs; per-layer metrics only
from traced runs.  Every timing is a median (or the p90) over the timed
requests; no metric is a mean.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any

from . import host, stats
from .checks import Row
from .trace import Span

#: Timed requests a run needs so that p90 has ten samples beyond it.
MIN_TIMED = stats.samples_needed(90)

#: Spans on a request's path; their self times, plus the delivery time,
#: should add up to the end-to-end latency.
PATH_SPANS = (
    "request",
    "service.spec_parse",
    "api.plan_compile",
    "api.execute",
    "exec.prepare",
    "exec.dispatch",
    "exec.harvest",
    "analysis.frontier",
    "reporting.csv",
    "service.artifact_put",
)

#: Per-layer time metric -> the span whose per-request self time it is.
SPAN_METRICS = {
    "service.spec_parse_s": "service.spec_parse",
    "service.artifact_put_s": "service.artifact_put",
    "api.plan_compile_s": "api.plan_compile",
    "api.execute_self_s": "api.execute",
    "exec.prepare_s": "exec.prepare",
    "exec.dispatch_s": "exec.dispatch",
    "exec.harvest_s": "exec.harvest",
    "backends.pair_rows_s": "backends.pair_rows",
    "backends.failstop_rows_s": "backends.failstop_rows",
    "backends.schedule_rows_s": "backends.schedule_rows",
    "schedules.grid_build_s": "schedules.grid_build",
    "schedules.kernel_s": "schedules.kernel",
    "analysis.frontier_s": "analysis.frontier",
    "reporting.csv_s": "reporting.csv",
}

#: Per-request counts reported as their median.
COUNT_METRICS = (
    "api.plan_unique",
    "api.plan_deduplicated",
    "exec.shards",
    "service.artifact_bytes",
    "backends.pair_rows",
    "backends.failstop_rows",
    "backends.schedule_rows",
)

#: Units of the figures measured outside the requests (default: s).
EXTRA_UNITS = {
    "exec.shard_retries": "count",
    "exec.workers_recycled": "count",
    "api.cache_hit_ratio": "ratio",
    "host.steal_ticks": "count",
}


@dataclass
class Record:
    """One timed request."""

    index: int
    scenarios: int
    latency: float
    error: str | None = None
    rows: list[Row] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    delivery: float = 0.0
    queue_wait: float = 0.0
    spans: list[Span] = field(default_factory=list)
    self_times: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


class Window:
    """The timed window: at least ``seconds`` long and at least
    ``min_timed`` succeeded requests, never longer than ``cap`` seconds.
    The cap leaves a run on a host twice as slow as usual time to reach
    ``min_timed`` and still exit well within three minutes."""

    def __init__(self, seconds: float, min_timed: int) -> None:
        self.seconds = seconds
        self.min_timed = min_timed
        self.cap = max(seconds, 120.0)
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def open(self, done: int) -> bool:
        elapsed = self.elapsed()
        if elapsed >= self.cap:
            return False
        return elapsed < self.seconds or done < self.min_timed


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(records: list[Record], setups: list[float], peak_rss_mb: float,
               wall_s: float) -> dict[str, Any]:
    """The end-to-end metrics of an untraced run whose timed window
    lasted ``wall_s`` seconds."""
    ok = [r for r in records if r.ok]
    latencies = [r.latency for r in ok]
    return {
        "setup_s": _metric(stats.median(setups), "s"),
        "latency_p50_s": _metric(stats.median(latencies), "s"),
        "latency_p90_s": _metric(stats.percentile(latencies, 90), "s"),
        "scenarios_per_s": _metric(sum(r.scenarios for r in ok) / wall_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _median_of(records: list[Record], fn: Any) -> float:
    values = [fn(r) for r in records]
    return stats.median(values) if values else 0.0


def per_layer(records: list[Record], extra: dict[str, float]) -> dict[str, Any]:
    """The per-layer metrics of a traced run; ``extra`` carries the
    set-up, cache, pool and host figures measured outside the requests."""
    ok = [r for r in records if r.ok]
    out: dict[str, Any] = {}
    for name, span in SPAN_METRICS.items():
        out[name] = _metric(_median_of(ok, lambda r, s=span: r.self_times.get(s, 0.0)), "s")
    out["service.queue_wait_s"] = _metric(_median_of(ok, lambda r: r.queue_wait), "s")
    out["service.delivery_s"] = _metric(_median_of(ok, lambda r: r.delivery), "s")
    out["api.materialise_s"] = _metric(
        _median_of(
            ok,
            lambda r: r.self_times.get("backends.schedule_rows", 0.0)
            - r.self_times.get("schedules.grid_build", 0.0)
            - r.self_times.get("schedules.kernel", 0.0),
        ),
        "s",
    )
    out["unattributed_s"] = _metric(
        _median_of(
            ok,
            lambda r: r.latency - r.delivery - sum(r.self_times.get(s, 0.0) for s in PATH_SPANS),
        ),
        "s",
    )
    for name in COUNT_METRICS:
        out[name] = _metric(_median_of(ok, lambda r, n=name: r.counts.get(n, 0)), "count")
    out["exec.failed_shards"] = _metric(
        sum(r.counts.get("exec.failed_shards", 0) for r in records), "count"
    )
    for name, value in extra.items():
        out[name] = _metric(value, EXTRA_UNITS.get(name, "s"))
    return out


class HostContext:
    """Calibration loop and CPU steal over the run, reported beside the
    metrics so a noisy host can be told apart from a slower program."""

    def __init__(self) -> None:
        self.calibration_s = host.calibration_seconds()
        self._steal = host.steal_ticks()

    def finish(self) -> dict[str, float]:
        return {
            "host.calibration_s": self.calibration_s,
            "host.steal_ticks": float(host.steal_ticks() - self._steal),
        }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
