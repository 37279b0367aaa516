"""Host-speed probe for the jmbeam benchmark.

The 2-vCPU VM this benchmark was built on shares its cores with other
tenants, and its speed drifts by 20% and more over a few minutes: the
same paper-m sweep took from 17.4 s to 30.8 s within one hour. A fixed
reference kernel, timed at 10 Hz inside the processes that run the
channel tasks, slows down with them. Scaling a sweep's wall time by
PROBE_REF_S over the probe's mean time gives its time at a fixed host
speed: four sweeps whose wall times ranged from 21.0 s to 30.4 s came
within 6% of their mean after scaling.

The kernel is the benchmark's own code, so a change to the program does
not change it. It mimics the program's two hot paths: the normal-matrix
factorization and solve of the cone IPM (`socp`), and the compensated
per-realization accumulation of small outer products (`awsmse`).
"""

import contextlib
import os
import signal
import statistics
import time

import numpy as np

# mean probe time that defines the reference host speed; a typical value
# on an Intel Xeon 2-vCPU VM with Python 3.11 and numpy 2.4
PROBE_REF_S = 800e-6
INTERVAL_S = 0.1


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._g = rng.standard_normal((51, 14))
        self._w = rng.random(51) + 0.5
        self._h = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        self.samples = []

    def sample(self):
        """Run the kernel once and append its wall seconds to `samples`.

        Wall, not CPU, time: a process that waits for its vCPU runs
        slower by that much, and so does the probe sampled inside it.
        """
        t0 = time.perf_counter()
        for _ in range(8):
            m = self._g.T @ (self._w[:, None] * self._g)
            np.linalg.solve(np.linalg.cholesky(m), self._g[0])
        s = np.zeros((2, 2, 2), complex)
        c = np.zeros_like(s)
        for hm in self._h:
            t = np.einsum("ik,jk->kij", hm, hm.conj()) - c
            s_new = s + t
            c = (s_new - s) - t
            s = s_new
        self.samples.append(time.perf_counter() - t0)


def scale(samples):
    """Factor that converts a time measured alongside `samples` to the
    reference host speed.

    With no samples (every call ended before the first tick) the probe is
    sampled now instead.
    """
    if not samples:
        probe = SpeedProbe()
        for _ in range(10):
            probe.sample()
        samples = probe.samples
    return PROBE_REF_S / statistics.fmean(samples)


@contextlib.contextmanager
def probed(harness, spool):
    """Sample the probe at 10 Hz inside every `harness.run_single` call.

    `run_single` runs in whichever process runs the channel tasks: this
    one on the serial path, the forked workers on the pool path (they
    inherit the wrapper; interval timers are not inherited, so each call
    starts and stops its own). Each process appends its samples to
    `spool/<pid>`; `spool_samples` reads them back.
    """
    original = harness.run_single
    probe = SpeedProbe()

    def run_single(*args, **kwargs):
        previous = signal.signal(signal.SIGALRM, lambda *_: probe.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return original(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            with open(spool / str(os.getpid()), "a") as f:
                f.writelines(f"{x!r}\n" for x in probe.samples)
            probe.samples.clear()

    spool.mkdir(parents=True, exist_ok=True)
    harness.run_single = run_single
    try:
        yield
    finally:
        harness.run_single = original


def spool_samples(spool):
    return [float(x) for p in sorted(spool.iterdir()) for x in p.read_text().split()]
