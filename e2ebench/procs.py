"""Child processes of the benchmark: environment, start and stop.

Every child runs from the checkout's own sources (``PYTHONPATH=src``)
with no ``REPRO_*`` variable set, so the program runs in its default
configuration, and with ``TMPDIR`` inside the checkout's output
directory, so nothing the benchmark starts writes outside the checkout.
Each child gets its own session; stopping one kills whatever of its
process group is left and waits until all of it has ended.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path

from .host import processes

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "e2ebench" / "out"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(args: list[str], *, stdin: bool = False, stderr_name: str = "child") -> subprocess.Popen[bytes]:
    """Start ``args`` in a new session with piped stdout; stderr goes to
    a log file in the output directory."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{stderr_name}.stderr.log", "ab") as err:
        return subprocess.Popen(
            args,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            start_new_session=True,
        )


def _group_members(pgid: int) -> list[int]:
    """Live (not zombie) processes of process group ``pgid``."""
    return [
        pid for pid, (state, _, pgrp) in processes().items() if pgrp == pgid and state != "Z"
    ]


def stop(proc: subprocess.Popen[bytes], *, grace: float = 15.0, interrupt: bool = True) -> None:
    """Stop ``proc`` (SIGINT first when ``interrupt``, so it can drain),
    then kill and reap anything left in its process group."""
    if proc.poll() is None and interrupt:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + 5.0
    while True:
        members = _group_members(proc.pid)
        if not members:
            break
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            proc.wait(timeout=5.0)
        if time.monotonic() > deadline:
            break
        time.sleep(0.02)
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()
