"""Host-speed sampling: times scaled to a fixed reference speed.

On a shared VM the speed of a vCPU changes by up to 1.7x from one second
to the next, and its average drifts over minutes, so raw times of the same
code taken minutes apart disagree by more than any useful bound.  The
sampler measures that speed while the program runs.  A SIGALRM timer
interrupts the process every INTERVAL seconds, and the handler times a
fixed calibration kernel that calls no burnside code.  For a timed interval
with samples k_1..k_n (seconds per kernel), the time the interval would
have taken on a host where the kernel takes `ref` seconds is

    (elapsed - time spent in the handler) * mean(ref / k_i)

that is, the work done in each INTERVAL counted at the reference speed.

The slow-downs hit interpreter work and large-array numpy work by
different amounts, so there are two kernels, and a workload is scaled by
the one that does the kind of work it does:

- "interp": tuples, dicts, ints and 64 x 64 matrix products, like the
  permutation, SLP and small-matrix code;
- "array": row updates on a 1 MB int64 array, like GF(p) elimination on
  the large cochain systems.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05
# an interval with fewer samples than this is scaled by its nearest ones
MIN_SAMPLES = 5

_clock = time.perf_counter
_cpu = time.process_time
_SMALL = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 7
_ROWS = (np.arange(128 * 1024, dtype=np.int64).reshape(128, 1024) * 7919) % 5


def interp_kernel():
    d = {}
    acc = 0
    for i in range(1200):
        t = (i, (i * 7) % 13, i ^ 5)
        d[i % 61] = t
        acc += len(t) + t[1]
    b = _SMALL
    for _ in range(4):
        b = (b @ _SMALL) % 7
        acc += int(b[0, 0])
    return acc + len(d)


def array_kernel():
    a = _ROWS.copy()
    for r in range(2):
        a[r + 1 :] = (a[r + 1 :] - np.outer(a[r + 1 :, r], a[r])) % 5
    return int(a[-1, -1])


# kind: (kernel, its time in seconds at the reference speed, about its
# fast-state time on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4)
KERNELS = {
    "interp": (interp_kernel, 0.0015),
    "array": (array_kernel, 0.003),
}

# set-up is scaled by a bare `python -c pass` start instead, which tracks
# process start and import work; this is its time at the reference speed
REF_START_S = 0.05


class Sampler:
    """Samples kernel times while running; scales intervals to the reference speed."""

    def __init__(self, kind):
        self.kernel, self.ref = KERNELS[kind]
        self.samples = []  # (start, wall, cpu) of each kernel run
        self._old = None

    def _handler(self, signum, frame):
        t, c = _clock(), _cpu()
        self.kernel()
        self.samples.append((t, _clock() - t, _cpu() - c))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start, wall, cpu):
        """(wall, cpu) of the interval from `start` at the reference speed."""
        inside = [s for s in self.samples if start <= s[0] < start + wall]
        near = inside
        if len(inside) < MIN_SAMPLES:
            # a short interval: use the samples closest to its middle
            mid = start + wall / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        factor = statistics.fmean(self.ref / k for _, k, _ in near)
        spent = sum(k for _, k, _ in inside)
        spent_cpu = sum(c for _, _, c in inside)
        return (wall - spent) * factor, (cpu - spent_cpu) * factor
