"""Seeded request streams of the two workloads.

Every stream is a pure function of its seed (``random.Random``, no
global state), and each request is serialised once, with sorted keys,
so the same seed gives a byte-identical stream.  The program under test
only ever sees the generated request bodies.

``schedule_jobs``
    One job = 2 general schedules x 2 error models (exponential and
    Weibull) x a fresh 100-point rho window on one configuration: 400
    rows, every one a cache miss, solved by the batched schedule
    kernel; the job asks for the results CSV.
``paper_jobs``
    One job = the paper's rows on its two headline configurations: the
    two-speed silent-error rows at 60 rho values each, half of them
    repeating points of the last few jobs exactly (so about half the
    rows are cache hits), after one fresh fail-stop row
    (``mode="combined"``), drawn stratified so that every run solves the
    same mix; the job asks for the frontier analysis and the results CSV.
"""

from __future__ import annotations

import json
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("schedule_jobs", "paper_jobs")

SCHEDULE_CONFIG = "hera-xscale"
SCHEDULES = ("geom:0.4,1.5,1", "esc:0.4,0.6,0.8")
ERROR_MODELS = ("exp:mtbf=3e5", "weibull:shape=0.7,mtbf=3e5")
SCHEDULE_WINDOW = 100

#: The configurations of the paper's headline tables and figures.
PAPER_CONFIGS = ("hera-xscale", "atlas-crusoe")
PAPER_RHOS = 60
PAPER_RECENT_JOBS = 4

#: Range of the fail-stop row's rho and fail-stop fraction, each cut into
#: ``FAILSTOP_STRATA`` equal strata.
FAILSTOP_RHO = (1.8, 6.0)
FAILSTOP_FRACTION = (0.05, 0.95)
FAILSTOP_STRATA = 6


@dataclass(frozen=True)
class Request:
    """One generated request: its index, JSON body and row count."""

    index: int
    body: bytes
    scenarios: int

    @property
    def payload(self) -> dict[str, Any]:
        return json.loads(self.body)


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _schedule_jobs(rng: random.Random) -> Iterator[dict[str, Any]]:
    seen: set[float] = set()  # no point ever repeats: every row misses the cache
    while True:
        lo = round(rng.uniform(2.2, 3.2), 4)
        rhos: list[float] = []
        while len(rhos) < SCHEDULE_WINDOW:
            rho = round(rng.uniform(lo, lo + 3.0), 6)
            if rho not in seen:
                seen.add(rho)
                rhos.append(rho)
        rhos.sort()
        yield {
            "grid": {
                "configs": [SCHEDULE_CONFIG],
                "rhos": rhos,
                "schedules": list(SCHEDULES),
                "error_models": list(ERROR_MODELS),
            },
            "artifacts": ["csv"],
        }


def _failstop_rows(rng: random.Random) -> Iterator[dict[str, Any]]:
    # Stratified: every block of jobs holds each configuration equally
    # often, one rho from each stratum of the rho range and one fraction
    # from each stratum of the fraction range.  Any seed then gives a run
    # the same mix of fail-stop work, so runs differ by the host, not by
    # what the seed happened to draw.
    n = FAILSTOP_STRATA
    while True:
        configs = rng.sample(PAPER_CONFIGS * (n // len(PAPER_CONFIGS)), n)
        for config, i, j in zip(configs, rng.sample(range(n), n), rng.sample(range(n), n)):
            yield {
                "config": config,
                "rho": round(_in_stratum(rng, FAILSTOP_RHO, i), 6),
                "mode": "combined",
                "failstop_fraction": round(_in_stratum(rng, FAILSTOP_FRACTION, j), 4),
            }


def _in_stratum(rng: random.Random, bounds: tuple[float, float], k: int) -> float:
    lo, hi = bounds
    width = (hi - lo) / FAILSTOP_STRATA
    return rng.uniform(lo + k * width, lo + (k + 1) * width)


def _paper_jobs(rng: random.Random) -> Iterator[dict[str, Any]]:
    recent: deque[list[float]] = deque(maxlen=PAPER_RECENT_JOBS)
    seen: set[float] = set()  # a fresh point is new to the whole stream
    failstop = _failstop_rows(rng)
    while True:
        pool = sorted({rho for job in recent for rho in job})
        repeats = rng.sample(pool, min(len(pool), PAPER_RHOS // 2))
        fresh: list[float] = []
        while len(fresh) < PAPER_RHOS - len(repeats):
            rho = round(rng.uniform(1.6, 6.0), 6)
            if rho not in seen:
                seen.add(rho)
                fresh.append(rho)
        recent.append(fresh)
        rhos = sorted(repeats + fresh)
        # The fail-stop row goes first: its shard then runs beside the
        # two-speed shards instead of after them.
        yield {
            "scenarios": [next(failstop)] + [{"config": config, "rho": rho}
                                             for config in PAPER_CONFIGS for rho in rhos],
            "analyses": ["frontier"],
            "artifacts": ["csv"],
        }


_GENERATORS = {
    "schedule_jobs": _schedule_jobs,
    "paper_jobs": _paper_jobs,
}


def scenario_count(payload: dict[str, Any]) -> int:
    """Rows a request asks for."""
    if "scenarios" in payload:
        return len(payload["scenarios"])
    grid = payload["grid"]
    n = 1
    for axis in ("configs", "rhos", "schedules", "error_models"):
        n *= len(grid.get(axis, [None]))
    return n


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The endless request stream of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    for index, payload in enumerate(_GENERATORS[workload](rng)):
        yield Request(index, _encode(payload), scenario_count(payload))
