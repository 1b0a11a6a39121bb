"""Machine-speed probes taken alongside the timed work.

Shared hosts drift: the same fleet pass can take 1.3 s for a minute and
2.0 s the next, far beyond the regression bounds the benchmark gates on.
The probe is a fixed pure-Python loop (dict, tuple, string and sort work,
like the analyzer's own mix) that shares no code with the program.  Times
are scaled by ``REFERENCE_S / probe``, so they read as the time the same
work takes on a host where the probe takes ``REFERENCE_S``; a slower
program still reads slower, while a slower host mostly does not.  Raw
(unscaled) headline numbers are printed alongside.

Probes run while the process is otherwise idle: between fleet passes,
incremental versions, service segments and set-ups.  Each unit of work
is scaled by the mean of the two probes that bracket it.
"""

from __future__ import annotations

import math
import statistics
import time

#: probe time on the recording host (2-vCPU VM, CPython 3.11) when quiet
REFERENCE_S = 0.04

_ROUNDS = 80_000

#: back-to-back probes per reading, the fastest counting: about one
#: probe in five is hit by a short stall of the host and reads up to
#: twice as long, which would skew the scale of the work it brackets
REPEATS = 3


def _probe_work() -> int:
    table: dict[int, int] = {}
    rows: list[tuple[int, str]] = []
    acc = 0
    for i in range(_ROUNDS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        if not i & 3:
            rows.append((key, str(i)))
        acc ^= key >> (i & 7)
    rows.sort()
    return acc + len(rows) + len(table)


class SpeedProbe:
    """Records probe times; turns bracketing probes into scale factors."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> float:
        """The fastest of ``REPEATS`` back-to-back probes."""
        elapsed = math.inf
        for __ in range(REPEATS):
            started = time.perf_counter()
            _probe_work()
            elapsed = min(elapsed, time.perf_counter() - started)
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for work timed between two probes."""
        return REFERENCE_S / ((before + after) / 2)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

