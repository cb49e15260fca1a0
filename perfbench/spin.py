"""A busy loop that gauges the speed of the CPU it runs on.

Usage::

    python3 perfbench/spin.py

It repeats one fixed chunk of interpreter work (dict reads and writes,
as the server's own work is) and records the thread CPU time each chunk
took, until ``SIGTERM``; then it prints, as one JSON list, the
``time.monotonic`` second each chunk ended at and the CPU nanoseconds
it took, alternately, and exits. :class:`run.Spinners` runs one
at the lowest priority on each CPU, so it only gets the time nothing
else wants, and reads the CPU's speed from it.
"""

from __future__ import annotations

import json
import signal
import sys
import time

#: iterations of the loop per chunk: 0.5-1 ms of CPU on a 2-vCPU Xeon
CHUNK = 4000


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    clock, now = time.thread_time_ns, time.monotonic
    samples = []
    table = {}
    while not stopping:
        t0 = clock()
        for i in range(CHUNK):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        samples.append(now())
        samples.append(clock() - t0)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
