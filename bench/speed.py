"""A clock that runs at a fixed reference speed, not at the machine's.

The machine this benchmark runs on is a share of a busy host: the same fixed
pure-Python loop takes from 0.75x to 1.5x its usual time depending on the
minute, and the swings last seconds.  Raw wall times therefore move more
between runs of the same code than any regression worth catching.

``Probe`` samples the machine's speed every ``PERIOD_S`` seconds: a signal
handler times ``reference_loop``, a fixed piece of pure-Python float
arithmetic like the library's truncated-series products, which nothing in the
library can speed up or slow down.  ``clock`` then advances by real elapsed
time times ``NOMINAL_S / (median of the last WINDOW reference times)``, and
stops while the probe itself runs.  An interval read on it is the time the
same work would take on a machine where the reference loop takes exactly
``NOMINAL_S``.  A change to the library moves such an interval; a change in
the machine's speed, which moves the reference loop by the same factor,
does not.

With no probe running, ``clock`` is ``time.perf_counter``.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05  # one probe per 50 ms of real time
NOMINAL_S = 0.002  # the reference loop's time at the reference speed
WINDOW = 5  # probes in the running median
_A = [0.1 * i + 0.3 for i in range(12)]
_B = [0.07 * i - 0.2 for i in range(12)]


def reference_loop() -> float:
    """150 truncated products of two 12-term series: about 2 ms."""
    s = 0.0
    for _ in range(150):
        out = [0.0] * 12
        for i, ai in enumerate(_A):
            for j, bj in enumerate(_B[: 12 - i]):
                out[i + j] = out[i + j] + ai * bj
        s += out[5]
    return s


class Probe:
    """While entered, ``clock`` runs at the reference speed.

    Uses ``SIGALRM`` and ``ITIMER_REAL``; restores both on exit.
    """

    def __init__(self):
        self.samples: list[float] = []  # every reference-loop time, in seconds
        # (reference-speed time, perf_counter time, scale) at the last probe,
        # replaced as one tuple so a read never sees half an update
        self._state = (0.0, 0.0, 1.0)
        self._saved = None

    def _sample(self, virtual: float):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._state = (virtual, t1, NOMINAL_S / statistics.median(self.samples[-WINDOW:]))

    def _on_alarm(self, signum, frame):
        virtual, real, scale = self._state
        self._sample(virtual + (perf_counter() - real) * scale)

    def now(self) -> float:
        virtual, real, scale = self._state
        return virtual + (perf_counter() - real) * scale

    def __enter__(self):
        global _active
        for _ in range(WINDOW):  # warm the loop and fill the window
            self._sample(0.0)
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        _active = self
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        _active = None
        return False

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference (1 = nominal)."""
        return NOMINAL_S / statistics.median(self.samples)


_active: Probe | None = None


def clock() -> float:
    """Seconds at the reference speed while a probe runs, else ``perf_counter``."""
    return perf_counter() if _active is None else _active.now()
