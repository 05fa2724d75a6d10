"""Fixed work that measures the machine's current speed.

The benchmark shares a few cores of a host whose speed drifts by a third or
more within minutes.  ``reference_seconds`` is timed between invocations in
the same process, so every timing metric can be given at the reference
speed: raw seconds × ``NOMINAL_S`` / (reference time measured beside it).
The work mixes what the program spends its time on, integer arithmetic,
tuple building, dict grouping and sorting.  Set-up time is scaled the same
way by the time a fresh interpreter takes to import ``REFERENCE_MODULES``.
Nothing here depends on ``edgedrop``, so a change to the program cannot
move the reference.
"""

from __future__ import annotations

import gc
import time

# Reference time on the reference machine (2-vCPU Intel Xeon VM, Python
# 3.11.7).  Any constant would do; it fixes what "reference speed" means.
NOMINAL_S = 0.020

# Third-party and standard-library modules the CLI imports today, none of
# the program's own; their import took NOMINAL_IMPORT_S on the same machine.
REFERENCE_MODULES = "argparse, csv, dataclasses, fractions, hashlib, json, numpy"
NOMINAL_IMPORT_S = 0.125


def _work() -> int:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    rows = [(i * 7919 % 1009, i, i & 255) for i in range(20_000)]
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    rows.sort(key=lambda r: (r[2], r[0]))
    return acc + len(groups) + rows[0][1]


def reference_seconds() -> float:
    """Wall time of one pass of the reference work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
