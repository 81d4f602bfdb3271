"""Host speed, sampled while the benchmark runs.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x, over spells from a fraction of a second to minutes, with CPU
time equal to wall time: another tenant's work slows every instruction.
No statistic of one run's latencies removes a spell that lasts the
whole run.  So a ``Sampler`` times a fixed probe, written apart from the
package, every ``PERIOD_S`` seconds from a SIGALRM handler, and a span
of wall time is scaled by ``REFERENCE_S`` over the mean time of the
probes in it and just before it: the span as it would read on a host
where the probe takes ``REFERENCE_S``.  A change to the package moves the span and leaves the
probe alone, so it shows in full.

The probe does what the package spends its time on: tuple-keyed
dictionary counts over a walk, integer label arithmetic, a sort and a
rendered string.  Probe time inside a span is taken out of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from collections import Counter

PERIOD_S = 0.02          # one probe per 20 ms of wall time
REFERENCE_S = 0.0004     # the probe's time on the reference host
_CROSSINGS = 100


def probe() -> int:
    """A fixed slice of interpreter work; returns a checksum."""
    labels = {}
    offset = 0
    for c in range(_CROSSINGS):
        sign = 1 if (c * 37) % 5 < 3 else -1
        labels[(c, "O")] = (c % 3, offset)
        offset -= sign
        labels[(c, "U")] = ((c + 1) % 3, offset)
        offset += sign
    terms: Counter = Counter()
    for c in range(_CROSSINGS):
        i, a = labels[(c, "O")]
        j, b = labels[(c, "U")]
        terms[(i, tuple(sorted({i: 1, j: -1}.items())), a - b)] += 1
        terms[(i, (), 0)] -= 1
    text = " + ".join(f"{v}*t{k[0]}^{k[2]}" for k, v in sorted(terms.items()) if v)
    return len(text)


class Sampler:
    """Times ``probe`` every ``PERIOD_S`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list = []     # perf_counter at each probe's start, ascending
        self.times: list = []      # each probe's duration
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        # A tick that lands inside a stalled probe is skipped, so that the
        # two lists stay paired and in order.
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            probe()
            self.times.append(time.perf_counter() - began)
            self.starts.append(began)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, began: float, ended: float) -> float:
        """Wall time of [began, ended] without its probes, at reference speed.

        The host's speed there is the mean of the probes inside the span
        and the last one before it.  A span is scaled as soon as it ends,
        so the probe after it has not run yet.
        """
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_right(self.starts, ended)
        around = self.times[max(lo - 1, 0):hi]
        inside = sum(self.times[lo:hi])
        if not around:          # no probe yet: report the span as measured
            return ended - began - inside
        return (ended - began - inside) * REFERENCE_S * len(around) / sum(around)
