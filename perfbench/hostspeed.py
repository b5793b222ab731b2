"""A fixed probe of how fast the host runs Python at the moment.

On a shared host the same simulator code ran up to 1.6x slower for
minutes at a time, so runs of the benchmark minutes apart disagreed by
more than any useful bound.  A run therefore times this probe after
each of its timed samples and reports its host times at a reference
host speed: times ``PROBE_REFERENCE_S`` over the median of the run's
probe times.  One probe reads the host over 40 ms and jitters by 15%,
more than a sample of seconds does, so the run's median probe corrects
the drift from run to run and leaves each sample as measured.

The probe runs in a child process of its own, a fresh interpreter that
imports nothing of the simulator, with its garbage collector off.  The
simulator's heap, its garbage and its memory therefore never share a
process with the probe; a change to the simulator reaches the probe
only through the host the two share, and the run's process holds no
memory of the probe's.  The run waits while the probe runs, so the two
never compete for a core.

    python3 perfbench/hostspeed.py     # the probe's time, five times
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from array import array

PROBE_REFERENCE_S = 0.038
"""The probe's median time on the reference host (a 2-core Xeon VM,
Python 3.11)."""

PROBES_PER_SAMPLE = 3
"""Probes after each timed sample: a grid run has only a few samples,
too few probes to take a median of."""

_CHASE_SLOTS = 1 << 21


def _chase_table() -> array:
    # A full-period LCG over 2M slots: 16 MB, past the per-core cache,
    # so each step of the chase waits on the shared cache or memory.
    mask = _CHASE_SLOTS - 1
    return array("q", ((i * 1_103_515_245 + 12_345) & mask for i in range(_CHASE_SLOTS)))


def _probe_kernel(table: array) -> int:
    # Interpreter work (dict lookups, list updates) plus a chase bound by
    # memory latency: the two costs the simulator's loops are made of.
    counts: dict[int, list[int]] = {}
    total = 0
    for i in range(40_000):
        key = (i * 2654435761) & 4095
        entry = counts.get(key)
        if entry is None:
            entry = counts[key] = [key, 0]
        entry[1] += 1
        total += entry[1] & 7
    slot = 0
    for _ in range(150_000):
        slot = table[slot]
    return total + slot


def _serve() -> None:
    """The child's loop: one probe, timed, per line read; stop at EOF."""
    gc.disable()
    table = _chase_table()
    for _ in sys.stdin:
        start = time.perf_counter()
        _probe_kernel(table)
        print(repr(time.perf_counter() - start), flush=True)


class HostSpeed:
    """The probe's process and the probe times of one run.

    Use it as a context manager: leaving the block stops the probe's
    process and waits for it.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._child = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Wait until the child is ready, so that building its table
        # overlaps none of the run's samples.
        try:
            self.probe(1)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._child.stdin.close()  # the child stops at EOF
        except BrokenPipeError:
            pass
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def probe(self, times: int = PROBES_PER_SAMPLE) -> float:
        """Time the probe *times* times and keep the times; return the
        last."""
        for _ in range(times):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            line = self._child.stdout.readline()
            if not line:
                raise RuntimeError("the host-speed probe's process ended early")
            self.probes.append(float(line))
        return self.probes[-1]

    def factor(self) -> float:
        """What the run's host times are multiplied by to read them at
        the reference host speed."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        with HostSpeed() as speed:
            for _ in range(5):
                print(f"{speed.probe(1):.6f} s")
