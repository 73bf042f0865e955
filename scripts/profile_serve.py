#!/usr/bin/env python
"""Profile a live ``svc-repro serve`` daemon, one ``cProfile`` per thread.

    PYTHONPATH=src python scripts/profile_serve.py --out /tmp/serve.pstats -- \\
        --scale small --port 7421 --journal-dir /tmp/journal --fsync

Everything after ``--`` goes to ``repro.cli serve`` unchanged, and the daemon
runs in this process (same ready line on stdout, same signals).  Each thread
gets its own profiler the moment it starts (``threading.setprofile``) — the
event loop, every ``admission-worker-N``, anything else — and every
``--every`` seconds the snapshots are rewritten to disk:

* ``OUT``: all threads merged;
* ``OUT.<thread-name>``: one thread alone — what share of the *loop thread's*
  time is fsync, the DP, the codec (the numbers ROADMAP item 3 quotes).

Times are wall-clock, so a thread's waits show as what they are (``select``
on the loop, ``Condition.wait`` in a worker): subtract them to get busy time.

The files are rewritten while the daemon runs, each by an atomic rename,
because the e2e harness ends its daemons with ``SIGKILL``: a dump at exit
would never be written.  A frame still on the stack is not yet counted, so
read a file after the load has stopped or accept the last few seconds
missing.  Read one with ``python -m pstats OUT`` (``sort cumtime``,
``stats 30``).

To profile a benchmark workload, start the harness with its daemon command
replaced by this script (a scratch wrapper that rewrites the ``-m repro.cli
serve`` prefix of ``loadgen.ServerProcess``'s argv is enough); profiling
slows the daemon two- to threefold, so read shares, not rates.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_profiles: Dict[str, cProfile.Profile] = {}
#: The periodic dump and the one at exit write the same scratch names.
_dump_lock = threading.Lock()


class _Snapshot:
    """What ``pstats.Stats`` reads, taken without disabling the profiler."""

    def __init__(self, profile: cProfile.Profile) -> None:
        profile.snapshot_stats()
        self.stats = profile.stats

    def create_stats(self) -> None:
        pass


def _profile_this_thread(*_event) -> None:
    """``threading.setprofile`` hook: runs once, on a thread's first call."""
    profile = cProfile.Profile()
    try:
        profile.enable()  # replaces this hook as the thread's profile function
    except ValueError:
        # Python >= 3.12: the first profiler already sees every thread.
        sys.setprofile(None)
        return
    _profiles[threading.current_thread().name] = profile


def _write(stats: pstats.Stats, path: Path) -> None:
    scratch = path.with_name(path.name + ".tmp")
    stats.dump_stats(scratch)
    os.replace(scratch, path)


def dump(out: Path) -> None:
    merged: Optional[pstats.Stats] = None
    with _dump_lock:
        for name, profile in list(_profiles.items()):
            snapshot = _Snapshot(profile)
            if not snapshot.stats:
                continue
            stats = pstats.Stats(snapshot)
            _write(stats, out.with_name(f"{out.name}.{name}"))
            merged = stats if merged is None else merged.add(stats)
        if merged is not None:
            _write(merged, out)


def _dump_forever(out: Path, every: float) -> None:
    while True:
        time.sleep(every)
        dump(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("serve.pstats"))
    parser.add_argument(
        "--every", type=float, default=3.0, metavar="SECONDS",
        help="rewrite the pstats files this often (default: 3)",
    )
    parser.add_argument("serve_args", nargs="*", help="after --: flags of `serve`")
    args = parser.parse_args(argv)

    from repro.service.server import serve_main

    # The dumper starts before the hook is installed: it is not profiled.
    threading.Thread(
        target=_dump_forever, args=(args.out, args.every), daemon=True
    ).start()
    threading.setprofile(_profile_this_thread)
    _profile_this_thread()  # the main thread runs the event loop
    try:
        return serve_main(args.serve_args)
    finally:
        dump(args.out)


if __name__ == "__main__":
    sys.exit(main())
