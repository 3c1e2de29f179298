"""The statistics the benchmark reports.

* :func:`tail` -- the highest percentile that still has ten samples beyond it,
  with that percentile and the count beside the value;
* :func:`speedup_geomean_pct` -- the paper's quality measure, the geometric
  mean of original cost / optimized cost, minus one, in percent;
* :class:`Tally` -- failed operations against attempted ones;
* :func:`peak_rss_mb` / :func:`current_rss_mb` -- process memory.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

#: A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the tail of ``samples``.

    The value is the highest percentile with at least ``beyond`` samples
    above it: the ``beyond + 1``-th largest sample, whose percentile is the
    share of samples at or below it.  A tail is never below the median, so
    with fewer than ``2 * beyond`` samples no percentile qualifies and the
    maximum is reported, as percentile 100 with 0 samples beyond it.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * beyond:
        return ordered[-1], 100.0, 0
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def speedup_geomean_pct(costs: Iterable[Tuple[float, float]]) -> float:
    """Geometric mean of ``original / optimized`` over ``(original, optimized)``
    cost pairs, minus one, in percent."""
    logs = [math.log(original / optimized) for original, optimized in costs]
    if not logs:
        raise ValueError("speedup of no operations")
    return 100.0 * (math.exp(math.fsum(logs) / len(logs)) - 1.0)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, error: str = "") -> None:
        """Count one attempted operation; a non-empty ``error`` marks it failed."""
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(error)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident memory of this process now (falls back to the peak off Linux)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
