"""Steadiness check: run a workload over several seeds, report spreads.

Usage (from the repository root)::

    python3 e2ebench/steady.py --workload paper_jobs --seeds 1-10 --seconds 25

For each metric it prints the median over the runs and the interquartile
distance as a share of that median, next to the metric's bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged.
Every run's result line is appended to ``e2ebench/out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from e2ebench.stats import median, relative_spread  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    log = ROOT / "e2ebench" / "out" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for seed in seeds_of(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        with log.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall,
                                 "host": lines[-2], **result}) + "\n")
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']} "
              f"failed {result['failed']} correct {result['correct']}  {lines[-2]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = relative_spread(vals) if len(vals) > 1 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28s} median {median(vals):.6g}  spread {spread:.3f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
