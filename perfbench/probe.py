"""Machine-speed probe, for times that hold still on a shared machine.

On a shared host the speed of one CPU swings by up to 2x within seconds as
other tenants come and go, which swamps any change to the program.  CPU time
does not help: the host slows execution rather than taking the CPU away, so
user+sys time moves with wall time.  While a pass runs, a SIGALRM interval
timer runs a fixed ~0.3 ms pure-Python probe every 20 ms in this thread.
`SpeedProbe.normalized` estimates the pass's seconds on this machine when it
is not contended: it divides each stretch of work between two probes by how
much slower than REFERENCE_PROBE_S the probes around it ran, and leaves the
probes' own time out.  Long calls into numpy slow down less than the
interpreter, by about the square root of the probe's slowdown (measured, see
README.md), so their stretches are divided by that.  Raw wall time is
reported next to it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
WINDOW = 25  # probes on each side of a stretch that set its speed (about 1 s)
NATIVE_GAP_S = 3 * INTERVAL_S  # a longer stretch between probes is a long call into C
REFERENCE_PROBE_S = 2.8e-4  # median probe in a pass on an uncontended 2-vCPU Xeon VM, Python 3.11
NATIVE_EXPONENT = 0.5  # native time ~ probe slowdown ** 0.51 on that VM; set-up ** 0.60 (README.md)


# Dict lookups with tuple keys and small-int arithmetic, like the group code.
# The probe allocates no object the garbage collector tracks, so it never
# triggers a collection: its time depends on the CPU, not on the heap.
_KEYS = [(i & 63, i & 7) for i in range(3000)]
_TABLE = dict.fromkeys(_KEYS, 1)


def _probe_work() -> int:
    s = 0
    for k in _KEYS:
        s += _TABLE[k] * 3 % 7
    return s


def probe_speed(count: int = 50) -> float:
    """Median time of `count` probes run back to back."""
    durations = []
    for _ in range(count):
        t = time.perf_counter()
        _probe_work()
        durations.append(time.perf_counter() - t)
    return statistics.median(durations)


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        _probe_work()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median(self) -> float | None:
        return statistics.median(d for _, d in self.samples) if self.samples else None

    def normalized(self, t0: float, t1: float) -> tuple[float, float]:
        """Uncontended seconds in [t0, t1], and the raw native seconds among them.

        Each stretch between two probes is divided by the slowdown of the
        median of the WINDOW probes on each side.  A stretch longer than
        NATIVE_GAP_S means the signal waited for a long call into C (numpy):
        it is divided by the slowdown ** NATIVE_EXPONENT, and its raw total
        is returned too, so that a shift of work between Python and C shows.
        """
        inside = [s for s in self.samples if t0 <= s[0] and s[0] + s[1] <= t1]
        if not inside:
            return t1 - t0, 0.0
        durations = [d for _, d in inside]
        total, native, prev_end = 0.0, 0.0, t0
        # the stretch after the last probe takes the last probes' speed
        for k, end in enumerate([s[0] for s in inside] + [t1]):
            stretch = end - prev_end
            slowdown = statistics.median(durations[max(0, k - WINDOW): k + WINDOW + 1]) / REFERENCE_PROBE_S
            if stretch > NATIVE_GAP_S:
                native += stretch
                total += stretch / slowdown**NATIVE_EXPONENT
            else:
                total += stretch / slowdown
            if k < len(inside):
                prev_end = end + durations[k]
        return total, native
