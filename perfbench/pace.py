"""Machine pace: how fast this process runs plain interpreter work right now.

On a shared host the same solve can take 1.5 times longer from one minute to
the next, because other tenants slow the core, and a whole run can fall in a
slow stretch. A timed region therefore also samples the pace: a SIGALRM timer
runs a fixed probe every INTERVAL_S, between the program's bytecodes, and
records how long it took. The region's time, less the time spent in probes,
divided by the mean probe time and multiplied by REF_PROBE_S, is its time at
reference pace: the time the region would take at the pace at which the
probe takes REF_PROBE_S (see NOTES.md).

The probe is benchmark code, not program code: a change to the program moves
the region's time but not the probe's.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

INTERVAL_S = 0.008
MIN_SAMPLES = 8  # a short region is topped up with probes run right after it
# The probe's time at reference pace: about its median on the 2-vCPU VM
# described in NOTES.md. It only sets the scale of the reported times.
REF_PROBE_S = 2.0e-4

_rng = random.Random(0)
_TABLE = list(range(4096))
_rng.shuffle(_TABLE)
_ASSIGN = [_rng.randrange(3) for _ in range(512)]  # 0 unset, 1 true, 2 false
_CLAUSES = [[_rng.randrange(512) for _ in range(3)] for _ in range(256)]


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = self

    def step(self, k):
        return self.next if (self.value ^ k) & 1 else self


_CELLS = [_Cell(_rng.randrange(1 << 16)) for _ in range(256)]
for _cell in _CELLS:
    _cell.next = _CELLS[_rng.randrange(256)]


def probe() -> int:
    """A fixed bit of interpreter work in three parts: dict updates over a
    shuffled table, a scan of small clauses with data-dependent branches, and
    a chase through objects by method calls."""
    counts = {}
    x = 0
    for i in range(250):
        x = _TABLE[(x + i) & 4095]
        counts[x & 255] = counts.get(x & 255, 0) + 1
    assign = _ASSIGN
    for clause in _CLAUSES:
        for lit in clause:
            v = assign[lit]
            if v == 1:
                x += 1
                break
            if v == 0:
                x -= 1
    cell = _CELLS[0]
    for i in range(300):
        cell = cell.step(i)
        x += cell.value & 3
    return x


class Pacer:
    """Times one region at a time and samples the pace while it runs.

        pacer.start()
        ...                                   # the timed region
        seconds, scaled = pacer.stop()
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._t0 = 0.0

    def _on_alarm(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._spent += perf_counter() - t0

    def start(self, t0: float | None = None) -> None:
        """Start a region now, or at `t0` if the clock was read earlier."""
        self.samples = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = perf_counter() if t0 is None else t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def cancel(self) -> None:
        """Stop the timer without ending a region; safe to call at any time."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stop(self) -> tuple[float, float]:
        """(seconds, seconds at reference pace) of the region, probes left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - self._t0 - self._spent
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self._on_alarm()
        pace = sum(self.samples) / len(self.samples)
        return seconds, seconds * REF_PROBE_S / pace
