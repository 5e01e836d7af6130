"""How fast the machine runs right now, from a fixed pure-Python loop.

On a shared host the same code runs up to half again slower for seconds or
minutes at a time, when neighbours load the cores.  The benchmark times a
fixed chunk of interpreter work (small modular polynomial products, list and
tuple building, dict lookups: the kind of work the library does) between
its timed operations, and scales each operation's wall time by

    REF_CHUNK_S / (chunk time measured around it)

so that end-to-end times read as seconds on the reference machine at its
quiet speed.  The chunk is not library code, so no change to the library
moves it; a change that makes the library faster lowers the scaled time the
same way it lowers the wall time.
"""

from __future__ import annotations

import statistics
import time

# a round figure near the chunk time on the reference machine (2-vCPU VM,
# Intel Xeon 2.1 GHz, Python 3.11.7) at its fastest, so that scaled times
# read close to wall seconds there
REF_CHUNK_S = 2.0e-3
ROUNDS = 250
CHUNKS = 5

_TABLE = {v: (7 * v + 3) % 25 for v in range(25)}


def chunk():
    """One fixed unit of interpreter work; returns a value so it is not idle."""
    a = [3, 1, 4, 1, 5, 9, 2, 6]
    b = [2, 7, 1, 8, 2, 8, 1, 8]
    for _ in range(ROUNDS):
        c = [0] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % 25
        key = tuple(c)
        a, b = b, [_TABLE[v] for v in key[:8]]
    return a


def sample():
    """Median wall time of a few chunks: the machine's current chunk time."""
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up():
    """Run the chunk once untimed, so the first sample of a process is not
    slowed by the interpreter specialising the loop."""
    chunk()
