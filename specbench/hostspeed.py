"""Host-speed calibration: turn host seconds into nominal-host seconds.

On a shared virtual machine the speed of the host itself drifts: a
fixed pure-Python loop can take 1.75x longer in one second than in the
next, and the drift is invisible to ``process_time`` (steal time is not
reported).  A repetition's raw wall time therefore mixes two things —
the work the program did and how fast the host happened to be.

:class:`HostSampler` separates them.  While it is running, an interval
timer interrupts the process every ``interval_s`` and the handler times
one fixed :func:`probe` (a mix of interpreter-bound and small-array
numpy work, like the simulator).  Each probe is logged as
``(start, duration)``.  Every timed interval is then reported as

    (raw duration - probe time inside it) x REFERENCE_PROBE_S / probe mean

where the probe mean is taken over the probes that fired inside the
interval, widened to its neighbours when the interval is too short to
hold enough of them.  The result is seconds on a host whose probe takes
:data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Probe duration of the nominal host (seconds).  Normalised times read
#: as seconds on a host that runs one :func:`probe` in this long; the
#: value is the median probe time measured on a 2-vCPU x86-64 VM and is
#: committed so that every checkout normalises to the same scale.
REFERENCE_PROBE_S = 0.0008

#: Fewest probes a normaliser is built from; shorter intervals borrow
#: probes from just before and after them.
MIN_PROBES = 9

_PROBE_ARRAY = np.linspace(0.0, 1.0, 512)


class _Cell:
    __slots__ = ("scale", "total")

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.total = 0.0

    def feed(self, x: float) -> float:
        self.total += self.scale * x
        return self.total


_PROBE_CELLS = [_Cell(i * 0.5) for i in range(64)]


def probe() -> float:
    """A fixed slice of work in the simulator's mix: dict and float
    bytecode, method calls on small objects, a sort, tiny numpy calls."""
    table: dict = {}
    acc = 0.0
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0.0) * 0.5 + i
        acc += table[key] if i % 3 else -table[key]
    for j in range(8):
        for cell in _PROBE_CELLS:
            acc += cell.feed(j)
        acc += sorted(_PROBE_CELLS, key=lambda c: c.total)[0].scale
    for cell in _PROBE_CELLS:
        cell.total = 0.0
    arr = _PROBE_ARRAY
    for i in range(12):
        shifted = arr * 1.0001 + i
        acc += float(shifted.sum())
        acc += float(np.argsort(shifted[:64])[0])
    return acc


class RepetitionTimeout(BaseException):
    """Raised inside a repetition that overran its deadline (a
    ``BaseException`` so that no ``except Exception`` in the program
    swallows it)."""


class HostSampler:
    """Interval-timer probes of host speed; see the module docstring.

    ``clock`` and ``probe_fn`` are injectable for tests.  Install with
    :meth:`start` and remove with :meth:`stop` (or use ``with``).
    """

    def __init__(
        self,
        interval_s: float = 0.025,
        probe_fn: Callable[[], object] = probe,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.interval_s = interval_s
        self.probe_fn = probe_fn
        self.clock = clock
        #: ``(start, duration)`` of every probe, in start order.
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: While set, a probe firing past this clock value raises
        #: :class:`RepetitionTimeout` in the interrupted code.
        self.deadline: Optional[float] = None
        self._previous_handler = None
        self._sampling = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "HostSampler":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self) -> "HostSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            # A probe delayed past the next tick: skip the nested one, so
            # that probe intervals never overlap.
            return
        self._sampling = True
        try:
            self.sample()
        finally:
            self._sampling = False
        if self.deadline is not None and self.clock() > self.deadline:
            self.deadline = None
            raise RepetitionTimeout()

    def sample(self) -> None:
        """Time one probe now and log it."""
        t0 = self.clock()
        self.probe_fn()
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    # -- normalisation ---------------------------------------------------

    def probe_time_within(self, start: float, end: float) -> float:
        """Host time spent in probes that started inside ``[start, end)``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def probe_mean(self, start: float, end: float) -> float:
        """Mean probe duration around ``[start, end)``.

        Uses the probes inside the interval; when fewer than
        :data:`MIN_PROBES` fired there, widens symmetrically to the
        nearest neighbours on either side.
        """
        if not self.durations:
            raise RuntimeError("no host-speed probes recorded")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.durations)):
            if lo > 0:
                lo -= 1
            if hi < len(self.durations) and hi - lo < MIN_PROBES:
                hi += 1
        return statistics.fmean(self.durations[lo:hi])

    def normalise(self, start: float, end: float) -> Tuple[float, float]:
        """``(nominal seconds, raw seconds)`` of the interval; raw
        excludes the probes that fired inside it."""
        raw = (end - start) - self.probe_time_within(start, end)
        return raw * REFERENCE_PROBE_S / self.probe_mean(start, end), raw
