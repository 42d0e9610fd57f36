"""A fixed reference job that measures how fast the host is right now.

Shared hosts change speed by tens of percent over tens of seconds, far more
than the changes the benchmark has to resolve.  ``run.py`` runs this job
(one process per pool worker) before the first repetition and after each
one, and once more, as a single process, right after each set-up probe.  It
reports the deliverable's and the set-up's times as multiples of it, so
host-speed drift cancels out of the end-to-end metrics.  For set-up, a
single reference process tracked the drift best (45 s windows over 12
minutes on a 2-vCPU VM: window medians of raw set-up seconds spread
max/min 1.42, against 1.20 scaled by the two-process job and 1.13 scaled by
a single process).  The job imports nothing from
``repro``: no change to the repository can speed it up or slow it down.

It is interpreter work over a dict of a few MB probed at random, so, like
the simulator's tables and programs, it feels contention for the shared
caches.  A variant over a cache-resident dict tracked the fig13-grid
deliverable worse (30 s windows on a 2-vCPU VM: IQR/median of the ratio
0.096 against 0.074 for this job, 0.169 for raw seconds).

Usage: ``python3 perfbench/reference.py`` prints the job's seconds.
"""

from __future__ import annotations

import time

KEYS = 200_000
PROBES = 700_000


def job(keys: int = KEYS, probes: int = PROBES) -> int:
    """Build a ``keys``-entry dict, then probe it along a 48-bit LCG stream."""
    table = {(i * 2_654_435_761) & 0xFFFF_FFFF: i for i in range(keys)}
    order = list(table)
    x = 12_345
    odd = 0
    for _ in range(probes):
        x = (x * 6_364_136_223_846_793_005 + 1_442_695_040_888_963_407) & 0xFFFF_FFFF_FFFF
        odd += table[order[(x >> 16) % keys]] & 1
    return odd


if __name__ == "__main__":
    started = time.perf_counter()
    job()
    print(time.perf_counter() - started)
