"""Machine-speed probe: times a fixed loop every few milliseconds.

On a shared host the same pure-Python work takes up to twice as long while
co-tenants load the core (identical 1 s loops measured 0.38-0.81 s on a
2-vCPU cloud VM), and these spells last seconds, longer than many passes.
A worker therefore runs this probe in a background thread while it works.
The probe's loop is the benchmark's own code, never the library's, and its
mix (tuple building, dict updates, keyed sorting) resembles the kernel's.

``speed_factor(t0, t1)`` is the probe's mean duration over an interval
divided by ``REFERENCE_S``; dividing a time measured over that interval by
it gives the time at reference speed.  The worker pins itself to one CPU so
the probe measures the core the work runs on.  Only one thread holds the
interpreter lock at a time, so the probe steals about 2.5% of the pass.
"""

from __future__ import annotations

import random
import threading
import time
from array import array

INTERVAL_S = 0.02
# Probe duration on an uncontended 2-vCPU cloud VM (Python 3.11); any fixed
# value works, since only ratios between runs on one machine are compared.
REFERENCE_S = 0.0003

_rng = random.Random(1)
_TERMS = [(tuple(_rng.randrange(4) for _ in range(12)), _rng.randrange(1, 32003))
          for _ in range(100)]
_SHIFT = tuple(_rng.randrange(2) for _ in range(12))
_WEIGHTS = tuple(_rng.randrange(1, 9) for _ in range(12))


def _loop() -> list:
    acc: dict = {}
    for exp, coeff in _TERMS:
        moved = tuple(a + b for a, b in zip(exp, _SHIFT))
        acc[moved] = (acc.get(moved, 0) + coeff * 7) % 32003
    return sorted(acc.items(),
                  key=lambda t: sum(w * x for w, x in zip(_WEIGHTS, t[0])))


class SpeedProbe:
    """Background thread recording (start time, duration) of each loop."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(INTERVAL_S):
            t0 = clock()
            _loop()
            self.took.append(clock() - t0)
            self.at.append(t0)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed_factor(self, t0: float, t1: float) -> float:
        """Mean probe duration over [t0, t1] relative to REFERENCE_S.

        The slowest and fastest 5% of loops are dropped: single loops that
        an interrupt or a thread switch stretched say nothing about the
        spell the work ran in."""
        inside = sorted(d for a, d in zip(self.at, self.took) if t0 <= a <= t1)
        if not inside:
            inside = list(self.took[-1:]) or [REFERENCE_S]
        cut = len(inside) // 20
        kept = inside[cut:len(inside) - cut]
        return sum(kept) / len(kept) / REFERENCE_S
