"""Readings of how fast the machine runs Python at a given moment.

A reading is the time of a fixed loop that fills a dict with 1000
(str, int) tuple keys and sorts them, the kind of work fibcat does, with
no fibcat code in it.  The collector is off while the loop runs, so that a
collection owed by earlier work does not land in the reading.

Run as a script, this module is the sampler:

    python3 perfbench/speed.py OUT PERIOD

takes one reading every PERIOD seconds until it gets SIGTERM or its parent
exits, then writes `[[t, seconds], ...]` to OUT, where t is
`time.monotonic()` at the middle of the reading.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import time


def loop_s():
    """One reading."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {(f"{i % 61}->{i % 17}", i % 7): i for i in range(1000)}
        sorted(table)
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_s():
    """The median of three readings."""
    return sorted(loop_s() for _ in range(3))[1]


def sample(out, period):
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    readings = []
    while not stop and os.getppid() == parent:
        start = time.monotonic()
        seconds = loop_s()
        readings.append((start + seconds / 2, seconds))
        time.sleep(period)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(readings, fh)


if __name__ == "__main__":
    sample(sys.argv[1], float(sys.argv[2]))
