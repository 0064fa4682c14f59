"""The correctness gate, run after the timed window.

A request passes when

* its output has exactly one row per requested scenario;
* every feasible row respects its bound (time overhead <= rho);
* and, for the seeded sample of rows drawn across the run, a one-by-one
  re-solve in this process (``Scenario.solve(cache=False)``) picks the
  same best speed pair with an energy overhead within 1e-9 relative.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

#: Relative tolerance on the re-solved energy overhead.
ENERGY_RTOL = 1e-9
#: Slack on ``time_overhead <= rho`` for the CSV's 10 significant digits.
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class Row:
    """One output row, as the checks need it."""

    config: str
    rho: float
    mode: str
    fraction: float | None
    schedule: str
    errors: str
    feasible: bool
    sigma1: float | None = None
    sigma2: float | None = None
    energy_overhead: float | None = None
    time_overhead: float | None = None

    def key(self) -> tuple[Any, ...]:
        fraction = "" if self.fraction is None else f"{self.fraction:.6g}"
        return (self.config, f"{self.rho:.10g}", fraction, self.schedule, self.errors)


def _opt(text: str) -> float | None:
    return float(text) if text else None


def parse_results_csv(data: bytes) -> list[Row]:
    """The rows of a ``results.csv`` artifact (configurations named by
    their catalog key, as requests name them)."""
    import repro

    catalog = {repro.get_configuration(n).name: n for n in repro.configuration_names()}
    rows = []
    for rec in csv.DictReader(io.StringIO(data.decode())):
        feasible = rec["energy_overhead"] != ""
        rows.append(
            Row(
                config=catalog.get(rec["config"], rec["config"]),
                rho=float(rec["rho"]),
                mode=rec["mode"],
                fraction=_opt(rec["failstop_fraction"]),
                schedule=rec["schedule"],
                errors=rec["errors"],
                feasible=feasible,
                sigma1=_opt(rec["sigma1"]),
                sigma2=_opt(rec["sigma2"]),
                energy_overhead=_opt(rec["energy_overhead"]),
                time_overhead=_opt(rec["time_overhead"]),
            )
        )
    return rows


def requested_rows(payload: dict[str, Any]) -> list[tuple[Any, ...]]:
    """Row keys a job asks for (a grid or a scenario list), spelled as
    the CSV spells them."""
    import repro

    if "scenarios" in payload:
        return [
            (sc["config"], f"{sc['rho']:.10g}",
             "" if sc.get("failstop_fraction") is None else f"{sc['failstop_fraction']:.6g}",
             _spec(repro.parse_schedule, sc.get("schedule")),
             _spec(repro.parse_error_model, sc.get("errors")))
            for sc in payload["scenarios"]
        ]
    grid = payload["grid"]
    schedules = [_spec(repro.parse_schedule, s) for s in grid.get("schedules", [None])]
    models = [_spec(repro.parse_error_model, m) for m in grid.get("error_models", [None])]
    return [
        (cfg, f"{rho:.10g}", "", sched, model)
        for cfg in grid["configs"]
        for rho in grid["rhos"]
        for sched in schedules
        for model in models
    ]


def _spec(parse: Any, spec: str | None) -> str:
    return "" if spec is None else parse(spec).spec()


def check_rows(expected: Sequence[tuple[Any, ...]], rows: Sequence[Row]) -> list[str]:
    """Row-count and bound checks of one request's output."""
    problems = []
    if Counter(expected) != Counter(r.key() for r in rows):
        problems.append(
            f"{len(rows)} rows do not match the {len(expected)} requested scenarios one to one"
        )
    for r in rows:
        if r.feasible and r.time_overhead > r.rho * (1 + BOUND_RTOL):  # type: ignore[operator]
            problems.append(f"row {r.key()} breaks its bound: time overhead {r.time_overhead}")
    return problems


def sample_rows(
    candidates: Sequence[tuple[int, Row]], seed: int, counts: dict[str, int]
) -> list[tuple[int, Row]]:
    """A seeded sample of ``(request index, row)`` pairs: ``counts[mode]``
    rows of each mode, so that rare row kinds are re-solved too."""
    rng = random.Random(f"check:{seed}")
    sample = []
    for mode, count in counts.items():
        rows = [c for c in candidates if c[1].mode == mode]
        sample += rng.sample(rows, min(count, len(rows)))
    return sample


def resolve_row(row: Row) -> list[str]:
    """Re-solve ``row`` alone, cache off, and compare."""
    import repro

    scenario = repro.Scenario(
        config=row.config,
        rho=row.rho,
        mode=row.mode,
        failstop_fraction=row.fraction if row.mode in ("combined", "failstop") else None,
        schedule=repro.parse_schedule(row.schedule) if row.schedule else None,
        errors=repro.parse_error_model(row.errors) if row.errors else None,
    )
    try:
        best = scenario.solve(cache=False).best
    except repro.InfeasibleBoundError:
        best = None
    if best is None or not row.feasible:
        if (best is None) != (not row.feasible):
            return [f"row {row.key()}: feasibility differs from a one-by-one re-solve"]
        return []
    problems = []
    if (f"{best.sigma1:.6g}", f"{best.sigma2:.6g}") != (f"{row.sigma1:.6g}", f"{row.sigma2:.6g}"):
        problems.append(
            f"row {row.key()}: best pair ({row.sigma1}, {row.sigma2}) != re-solve "
            f"({best.sigma1}, {best.sigma2})"
        )
    energy = float(best.energy_overhead)
    if abs(energy - row.energy_overhead) > ENERGY_RTOL * abs(energy):  # type: ignore[operator]
        problems.append(
            f"row {row.key()}: energy {row.energy_overhead} != re-solve {energy}"
        )
    return problems
