"""A fixed calibration kernel, sampled while an operation runs.

The benchmark's host is shared: its speed jitters from second to second and
drifts by about a fifth over minutes, in CPU time as much as in wall time.
No statistic of one run's operation times gets rid of the drift.  So while
an operation runs, a wall-clock timer interrupts it every
:data:`INTERVAL_S` seconds and times one run of a small fixed kernel in the
same thread.  The samples see the machine at the same moments as the
operation, and the benchmark reports the operation's own time (the samples
taken out) as a multiple of the kernel's mean time.

The kernel does not touch ``cotwist``: a change to the program moves the
ratio exactly as it moves the operation's wall time.  Its work is a mix like
the program's: exact ``Fraction`` arithmetic, tuple-keyed dictionaries, and
calls on small int64 numpy arrays.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

#: seconds between samples; one kernel run takes ~9 ms on the 2-core
#: reference VM, so sampling costs ~5% of an operation's time
INTERVAL_S = 0.2
#: what :func:`kernel` returns when it did its full work
CHECKSUM = 2749431


def kernel() -> int:
    """One fixed unit of work; returns a checksum of its results.

    It frees nearly every object it makes that the garbage collector
    tracks, so it moves the collector's allocation count by a few at most
    (tuple keys or ``np.roll`` would add thousands).  Each of
    its blocks is far below malloc's mmap threshold (128 KiB), so freeing
    them does not raise that threshold and change where the operation's own
    arrays are put.
    """
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, i % 7 + 1)

    table: dict[int, int] = {}
    for i in range(12000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i

    counts = np.arange(125, dtype=np.int64).reshape(25, 5) % 7
    out = np.zeros((25, 5), dtype=np.int64)
    targets = np.arange(25) * 7 % 25
    shift = np.eye(5, dtype=np.int64)
    for k in range(240):
        np.add.at(out, targets, counts[:, (np.arange(5) - k) % 5])
        out = (out @ shift) % 1_000_003

    return (acc.numerator % 1_000_003 + acc.denominator % 1_000_033
            + sum(table.values()) % 1_000_037 + len(table) + int(out.sum())) % 2**31


class Sampler:
    """Times :func:`kernel` on entering a ``with`` and every :data:`INTERVAL_S`
    seconds inside it.

    ``samples`` holds the seconds of every kernel run so far; a wrong
    checksum is raised on leaving the block.  The garbage collector is off
    while the kernel runs and the kernel hardly moves its allocation count,
    so the operation's collections come about when they would unsampled.
    Sampling still moves the peak resident memory of ``wreath-p3`` by a few
    percent from run to run.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wrong = 0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.wrong += kernel() != CHECKSUM
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.wrong:
            raise SystemExit("calibration kernel returned a wrong checksum")
