"""The replay process of traced runs: ``repro`` in a fresh interpreter.

A traced served run replays each request layer by layer in one
``e2ebench.library_process``, so that every process the replay's worker
pool starts stays inside a process group the benchmark stops and waits
for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Any

from . import procs


@dataclass(eq=False)
class LibraryProcess:
    """A running ``e2ebench.library_process``."""

    proc: subprocess.Popen[bytes]

    def call(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request line and read its reply line."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"library process exited with code {self.proc.wait()}")
        return json.loads(line)

    def finish(self) -> dict[str, Any]:
        """Ask for the closing figures, then wait until the process and
        everything it started have ended."""
        try:
            return self.call({"kind": "exit"})
        finally:
            procs.stop(self.proc, interrupt=False)


def start() -> LibraryProcess:
    """Start a library process; returns once ``repro`` is imported."""
    proc = procs.spawn(
        [sys.executable, "-m", "e2ebench.library_process"], stdin=True, stderr_name="library"
    )
    assert proc.stdout is not None
    if proc.stdout.readline().strip() != b"ready":
        procs.stop(proc, interrupt=False)
        raise RuntimeError(f"library process did not start (exit code {proc.wait()})")
    return LibraryProcess(proc)
