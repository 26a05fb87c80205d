"""Machine-speed normalisation of the timed phases.

The machine the benchmark was built on is a shared 2-vCPU virtual machine
whose speed drifts by up to 1.5x within a minute: raw wall times of the
same work spread by 0.07-0.30 (interquartile / median) over ten runs.
Timing a calibration kernel before and after the phase did not reliably
cancel the drift (in one trial it widened the spread), because the speed
changes within seconds.

`SpeedSampler` therefore samples the speed *during* the phase: a SIGALRM
timer interrupts the main thread every `INTERVAL` seconds to run a fixed
chunk of numpy/scipy work (small array construction, a matmul and a
digamma call per step, the same mix of interpreter and small-kernel work as
the package's hot loops) and records the chunk's thread CPU time.  The
phase's wall time, minus the chunks' own wall time, is scaled by
REFERENCE_CHUNK_S / mean(chunk time): seconds at the speed at which one
chunk takes REFERENCE_CHUNK_S.  Over eight runs this cut the spread of the
scan phase from 0.20 to 0.05.

The chunks add about 4% to a phase's wall time.  The timer is not
inherited by forked LOO workers, so on `loo` the samples come from the
parent process, most of them while it waits for the pool.  Two effects of
the pool are handled as follows:
  - A chunk run while this process has child processes is not subtracted
    from the phase's wall time, since the workers went on with the phase
    meanwhile.  The CPU the chunk takes from them lengthens the phase by
    at most half the chunks' time, about 2%.
  - Such a chunk competes with the workers for the CPUs, which makes
    its CPU time about 3% longer than on an idle machine (measured with one
    and with two busy worker processes: +4.1% and +2.5%, medians of 174
    interleaved trials).  A change that moves the share of the phase spent
    in the pool therefore moves the normaliser by at most that share of 3%.
  Samples taken only outside the pool, or no normalisation at all, did not
  track the pool's wall time: over five loo runs the spread of phase_s was
  0.12-0.17 sampling only the serial parts and 0.19 unnormalised, against
  0.04-0.09 sampling throughout.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
from scipy import special

INTERVAL = 0.05
CHUNK_STEPS = 250
REFERENCE_CHUNK_S = 0.002

_POINTS = np.random.default_rng(0).random((60, 3))


def chunk() -> None:
    """The fixed calibration work, its result discarded."""
    acc = 0.0
    for i in range(CHUNK_STEPS):
        a = 0.001 * i
        rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                        [np.sin(a), np.cos(a), 0.0],
                        [0.0, 0.0, 1.0]])
        proj = _POINTS @ rot.T
        acc += float(proj.max() - proj.min()) + special.digamma(1.0 + a)


class SpeedSampler:
    """Context manager sampling the chunk time while its body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def _sample(self, signum, frame) -> None:
        pool = has_children()
        wall = time.perf_counter()
        cpu = time.thread_time()
        chunk()
        self.samples.append(time.thread_time() - cpu)
        if not pool:
            self.overhead_s += time.perf_counter() - wall

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, wall_s: float) -> float:
        """`wall_s` of the sampled body in seconds at the reference speed."""
        if not self.samples:   # body shorter than one interval
            self.samples.append(_timed_chunk())
        speed = REFERENCE_CHUNK_S / statistics.fmean(self.samples)
        return (wall_s - self.overhead_s) * speed


def has_children() -> bool:
    """Whether this process has a child process, running or unreaped."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _timed_chunk() -> float:
    cpu = time.thread_time()
    chunk()
    return time.thread_time() - cpu
