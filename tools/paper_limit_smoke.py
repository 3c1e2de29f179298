#!/usr/bin/env python
"""Smoke test: the paper's own limits stay bounded in memory and time.

Optimizes ``bert`` at ``small`` under ``TensatConfig(extraction="greedy")``
-- the paper's exploration limits (50k e-nodes, 15 iterations, k_multi = 1)
with greedy extraction, since an ILP at 50k e-nodes is not expected to
return -- in a child process, and asserts that

* exploration stops on the node limit,
* the child's peak RSS stays under ``RSS_LIMIT_MB``,
* the child's wall time, interpreter start included, stays under
  ``WALL_LIMIT_S``.

The child also runs under an address-space rlimit, so a regression fails
with ``MemoryError`` instead of exhausting the host.  Exit code 0 means
every check passed; the last line of standard output is the measurement
as one JSON object.

Usage::

    python tools/paper_limit_smoke.py
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODEL, SCALE = "bert", "small"
RSS_LIMIT_MB = 1024.0
WALL_LIMIT_S = 300.0
#: Address-space cap for the child: far above the RSS limit (the interpreter
#: and its native libraries map more than they touch), far below a host's RAM.
ADDRESS_SPACE_LIMIT = 6 * 1024**3


def child() -> None:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro import TensatConfig, optimize
    from repro.models import build_model

    result = optimize(build_model(MODEL, SCALE), config=TensatConfig(extraction="greedy"))
    stats = result.stats
    print(json.dumps({
        "stop_reason": stats.stop_reason,
        "iterations": stats.exploration_iterations,
        "enodes": stats.num_enodes,
        "eclasses": stats.num_eclasses,
        "exploration_s": round(stats.exploration_seconds, 2),
        "cycle_prefilter_s": round(stats.cycle_prefilter_seconds, 2),
        "speedup_percent": round(stats.speedup_percent, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }))


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def main() -> int:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            capture_output=True,
            text=True,
            timeout=WALL_LIMIT_S,
            preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired:
        print(f"SMOKE FAIL: {MODEL}/{SCALE} did not finish within {WALL_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    wall = time.monotonic() - start
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"SMOKE FAIL: child exited with {proc.returncode}", file=sys.stderr)
        return 1
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    measured["wall_s"] = round(wall, 1)

    failures = []
    if measured["stop_reason"] != "node_limit":
        failures.append(f"stop reason {measured['stop_reason']!r}, expected 'node_limit'")
    if measured["peak_rss_mb"] >= RSS_LIMIT_MB:
        failures.append(f"peak RSS {measured['peak_rss_mb']} MB >= {RSS_LIMIT_MB:.0f} MB")
    if wall >= WALL_LIMIT_S:
        failures.append(f"wall time {wall:.1f} s >= {WALL_LIMIT_S:.0f} s")
    for failure in failures:
        print(f"SMOKE FAIL: {failure}", file=sys.stderr)
    print(json.dumps(measured))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
