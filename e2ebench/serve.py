"""``python -m repro serve``, with the resource tracker started first.

Run as ``python -m e2ebench.serve serve --port N``: it starts the
``multiprocessing`` resource tracker, then hands its arguments to the
unchanged ``python -m repro`` command line, so the server runs in its
default configuration.

Why the tracker first: ``repro serve`` warms its worker pool at start-up,
before anything in the server has started a resource tracker.  Each
forked worker that maps a shared-memory scenario pack then starts a
tracker of its own, and when the worker is recycled (after 256 tasks)
that tracker unlinks the pack the server is still using; the next shards
of that job fail with ``FileNotFoundError: ... '/psm_...'``.  A tracker
started before the pool is inherited by every worker, as it is when the
pool starts lazily after the first pack, and the packs live until the
server disposes of them.  The served workloads would otherwise fail a
varying few jobs per hundred, which no two runs reproduce.
"""

from __future__ import annotations

import runpy
import sys
from multiprocessing import resource_tracker


def main() -> None:
    resource_tracker.ensure_running()
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
