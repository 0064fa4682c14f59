"""Host context and process measurements (stdlib, Linux ``/proc``).

The calibration loop and the CPU steal ticks are reported beside the
metrics, never folded into them: when a parent/change pair disagrees,
they tell a noisy host apart from a change in the code.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

_CALIBRATION_ITERATIONS = 300_000


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python integer loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host (``/proc/stat``), 0 where
    the kernel does not report them."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def _status_kb(pid: int, key: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def processes() -> dict[int, tuple[str, int, int]]:
    """``{pid: (state, parent pid, process group)}`` of every process."""
    table: dict[int, tuple[str, int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        state, ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        table[int(entry)] = (state, int(ppid), int(pgrp))
    return table


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    parents = {child: ppid for child, (_, ppid, _) in processes().items()}
    tree = [pid]
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        kids = [child for child, parent in parents.items() if parent == current]
        tree.extend(kids)
        frontier.extend(kids)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (``VmHWM``) of ``pid``'s process tree."""
    return sum(_status_kb(p, "VmHWM") for p in process_tree(pid)) / 1024.0
