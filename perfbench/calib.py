"""The reference kernel that measures how fast the host runs at a moment.

    python3 calib.py

A session child starts this as a helper process (`Reference`), pinned to
the session's own CPU, and asks it for a chunk every 50 ms while the script
runs: the helper reads one line from stdin, runs one chunk of a fixed
pure-Python kernel, and writes the chunk's time in seconds as one line to
stdout.  It exits when stdin closes.  The helper is a process of its own so that the
program's heap, garbage collector and peak RSS never see the kernel's table.

The kernel never changes and does not import the program, so its time moves
only with the host's speed.  It is plain interpreter work: random lookups
in a string-keyed table larger than the CPU's caches, a sort of short
strings, and an integer loop.  On the baseline machine the slow phases of
the host stretched this kernel in step with the sessions, though by less
than them in the slowest phases (see README.md, "Steadiness").
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import sys
import time

TABLE_KEYS = 60_000
LOOKUPS = 1_000
SORTED = 4_000
LOOP = 20_000
WARMUP_CHUNKS = 20


def make_table():
    rng = random.Random(1)
    keys = [f"k{i}_{rng.random()}" for i in range(TABLE_KEYS)]
    return keys, {k: (i, k[:5]) for i, k in enumerate(keys)}


def chunk(table):
    """One chunk of the kernel; returns its time in seconds."""
    keys, rows = table
    rng = random.Random(len(keys))
    t = time.perf_counter()
    acc = 0
    for _ in range(LOOKUPS):
        key = keys[rng.randrange(len(keys))]
        row = rows[key]
        acc += row[0] + (row[1] < key)
    words = [(i, str(i)) for i in range(SORTED)]
    words.sort(key=lambda w: w[1])
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t


class Reference:
    """The session side.  `start` makes the helper run a chunk every
    `every_s` seconds of wall time, from a SIGALRM handler, so chunks fall
    inside long commands too.  Each chunk is recorded with `index`, which
    the caller sets to the command being run; `paused` is the total time
    spent in the handler, which the caller leaves out of its timings."""

    def __init__(self):
        os.sched_setaffinity(0, {_current_cpu()})  # the helper inherits it
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.index = -1
        self.chunks = []
        self.paused = 0.0
        self._busy = False
        for _ in range(WARMUP_CHUNKS):
            self.chunk()

    def chunk(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper stopped")
        return float(line)

    def start(self, every_s):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def _tick(self, signum, frame):
        if self._busy:  # a late signal inside the handler itself
            return
        self._busy = True
        t = time.perf_counter()
        self.chunks.append((self.index, self.chunk()))
        self.paused += time.perf_counter() - t
        self._busy = False

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def _current_cpu():
    """The CPU this process runs on now (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[36])


def main() -> int:
    table = make_table()
    gc.collect()
    gc.freeze()  # the table is never collected; keep gc passes off it
    for line in sys.stdin:
        sys.stdout.write(f"{chunk(table)!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
