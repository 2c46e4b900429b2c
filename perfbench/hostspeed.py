"""Host-speed probe used to calibrate measured times.

On shared hosts the same code runs anywhere between 1x and 2x its best
time, in stretches of seconds to minutes (measured on a 2-vCPU sandbox:
per-run medians of a 1.6 s pass spread by 30-40% between runs). A short,
fixed pure-Python loop, run between the steps of a pass and every
``TICK_S`` inside long steps, tracks that drift: the time since the previous
probe is scaled by ``PROBE_REF_S`` over the mean of the two probes around
it. Scaled times read as seconds on a host where the probe takes
``PROBE_REF_S`` (a quiet Xeon sandbox, Python 3.11); raw times are kept
alongside in every report, and probe time is in neither.
"""

from __future__ import annotations

import contextlib
import resource
import signal
import time

PROBE_LOOPS = 600_000
PROBE_REF_S = 0.022
TICK_S = 0.5


def probe() -> float:
    """Seconds one fixed interpreter-bound loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Calibrated:
    """Raw and probe-scaled wall and CPU seconds of one pass.

    ``mark`` closes the segment since the previous mark and probes; it is
    called between steps and, while ``ticking``, from a SIGALRM timer, which
    Python runs between bytecodes (so after any long numpy call returns).
    """

    def __init__(self):
        self.wall = self.wall_scaled = self.cpu = self.cpu_scaled = 0.0
        self.probes: list[float] = [probe()]
        self._busy = False
        self._since = (time.perf_counter(), cpu_seconds())

    def mark(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        wall = time.perf_counter() - self._since[0]
        cpu = cpu_seconds() - self._since[1]
        self.probes.append(probe())
        factor = PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))
        self.wall += wall
        self.wall_scaled += wall * factor
        self.cpu += cpu
        self.cpu_scaled += cpu * factor
        self._since = (time.perf_counter(), cpu_seconds())
        self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def no_ticks():
    """Hold timer probes back, e.g. while a subprocess shares the CPU; a tick
    that fell inside is delivered on exit."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
