"""Host-speed normalisation of the benchmark's timings.

The reference host (2 vCPUs of a shared machine) switches between a fast and
a slow state, often several times a second, and in the slow state the same
Python code takes about 1.5 times as long.  CPU time grows with wall time,
so neither clock removes it, and over a run of a few seconds the share of
slow time decides the result.  The benchmark therefore times a fixed stdlib
loop, the *probe*, right before and right after every op, and every
``INTERVAL_S`` while an op runs (from a ``SIGALRM`` handler), and scales the
op's time by how fast the probe ran around it::

    scaled = (wall time - probe time inside the op)
             * mean((REFERENCE_S / probe) ** EXPONENT)

``REFERENCE_S`` is the probe's time on the reference host in its fast state,
so a scaled time reads as seconds on that host at full speed.  reeskit's
code suffers more from the slow state than the probe does: fitting log pass
time against log probe time over passes of one seed gave slopes of 1.2-1.45
on ``versal``, 1.1-1.2 on ``factor`` and mostly 1.0-1.2 on ``invariants``.
``EXPONENT`` is one value for all of them; with 1, the scaled ``versal``
time still rose by a fifth from a fast-state run to a slow-state one.

The probe is benchmark code: a change to reeskit cannot change it, and a
change that makes reeskit do more or less work moves the scaled time as it
moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

CLOCK = time.perf_counter
PROBE_LOOPS = 10_000
REFERENCE_S = 1.5e-3        # probe time on the reference host, fast state
EXPONENT = 1.2
INTERVAL_S = 0.2


def probe_loop():
    acc, d = 0, {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        d[i & 1023] = acc
    return acc


class HostMeter:
    """Records probe times; ``call`` runs and times one op.

    Use it as a context manager: with ``interval`` set, a ``SIGALRM`` timer
    probes every ``interval`` seconds while the block runs, and the previous
    handler is restored on the way out.  With ``interval=None`` only the
    probes around each op are made, which keeps probe time out of traced
    spans."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts, self.secs = [], []
        self._busy = False
        self._saved = None

    def __enter__(self):
        if self.interval:
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
        return False

    def _on_alarm(self, signum, frame):
        self.probe()

    def probe(self):
        if self._busy:          # the timer fired inside a probe
            return
        self._busy = True
        t0 = CLOCK()
        probe_loop()
        t1 = CLOCK()
        self.starts.append(t0)
        self.secs.append(t1 - t0)
        self._busy = False

    def call(self, fn):
        """Run ``fn()``; returns (scaled s, wall s, value, exception)."""
        self.probe()
        first = len(self.secs) - 1
        t0 = CLOCK()
        try:
            value, exc = fn(), None
        except Exception as e:  # the caller judges the exception
            value, exc = None, e
        t1 = CLOCK()
        self.probe()
        starts, secs = self.starts[first:], self.secs[first:]
        inside = sum(s for t, s in zip(starts, secs) if t0 <= t < t1)
        speed = statistics.fmean((REFERENCE_S / s) ** EXPONENT for s in secs)
        return (t1 - t0 - inside) * speed, t1 - t0, value, exc

    def median_probe_ms(self):
        return statistics.median(self.secs) * 1e3 if self.secs else 0.0
