"""End-to-end benchmark of the solver service: one command, two workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper_jobs --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays
the same seeded requests layer by layer and reports the per-layer
metrics instead.  Both run the correctness gate after the timed window.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from e2ebench import checks, report, served, stats, workloads  # noqa: E402
from e2ebench.procs import OUT  # noqa: E402

#: Rows re-solved one by one per run, by mode, drawn with the run's seed.
SAMPLE_ROWS = {
    "schedule_jobs": {"silent": 8},
    "paper_jobs": {"silent": 10, "combined": 2},
}


def gate(workload: str, result: dict, seed: int) -> None:
    """Attach correctness problems to the records (outside the window)."""
    by_index = {rec.index: rec for rec in result["records"]}
    for rec in result["records"]:
        outputs = result["outputs"].get(rec.index)
        if outputs is None:
            continue
        payload = json.loads(result["bodies"][rec.index])
        rec.rows = checks.parse_results_csv(outputs["results.csv"])
        if "frontier.json" in outputs and not json.loads(outputs["frontier.json"]):
            rec.problems.append("empty frontier artifact")
        if rec.error is None:
            rec.problems += checks.check_rows(checks.requested_rows(payload), rec.rows)
    candidates = [
        (rec.index, row) for rec in result["records"] if rec.error is None for row in rec.rows
    ]
    for index, row in checks.sample_rows(candidates, seed, SAMPLE_ROWS[workload]):
        by_index[index].problems += checks.resolve_row(row)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` once and return the result object.  Only the
    untraced run needs the 100 requests its p90 rests on."""
    context = report.HostContext()
    min_timed = 0 if trace else report.MIN_TIMED
    result = served.run(workload, seed, seconds, trace, min_timed)
    gate(workload, result, seed)
    records = result["records"]
    for rec in records:
        for problem in ([rec.error] if rec.error else []) + rec.problems:
            report.log(f"request {rec.index} failed: {problem}")
    host = context.finish()
    write_records(workload, seed, trace, records)
    correct = not any(rec.problems for rec in records)
    if trace:
        extra = {**result["layer_totals"],
                 "setup.import_s": stats.median(import_times()), **host}
        metrics = report.per_layer(records, extra)
    else:
        try:
            metrics = report.end_to_end(
                records, result["setups"], result["peak_rss_mb"], result["wall_s"]
            )
        except stats.TooFewSamples as exc:
            # Unless the time cap closed it, the window holds 100
            # requests without errors; fewer of them pass only when the
            # gate found wrong outputs.  Report those, not the sample size.
            if correct:
                raise
            report.log(f"e2ebench: {exc}; no metrics for a run with wrong outputs")
            metrics = {}
    print("host: " + json.dumps(host), flush=True)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for rec in records if not rec.ok),
        "metrics": metrics,
    }


def import_times(count: int = 3) -> list[float]:
    """``import repro, repro.service`` timed inside fresh interpreters."""
    import subprocess

    from e2ebench.procs import child_env

    code = (
        "import time; t = time.perf_counter(); import repro, repro.service; "
        "print(time.perf_counter() - t)"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, check=True, timeout=60,
        ).stdout)
        for _ in range(count)
    ]


def write_records(workload: str, seed: int, trace: bool, records: list) -> None:
    """Write every timed request's figures (and, traced, its spans and
    layer self times) to ``e2ebench/out/`` once the run is over."""
    OUT.mkdir(parents=True, exist_ok=True)
    rows = [
        {"index": r.index, "latency": r.latency, "delivery": r.delivery,
         "queue_wait": r.queue_wait, "ok": r.ok, "self_times": r.self_times, "counts": r.counts,
         "spans": [asdict(s) for s in r.spans]}
        for r in records
    ]
    name = f"{'trace' if trace else 'requests'}-{workload}-{seed}.json"
    (OUT / name).write_text(json.dumps(rows, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except stats.TooFewSamples as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
