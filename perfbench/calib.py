"""The machine's speed, sampled while the benchmark measures.

This benchmark runs on shared machines whose speed swings by up to two times
within seconds, as other tenants come and go; a command's wall time then
follows the machine rather than the program.  So while a repetition runs,
SpeedSampler interrupts it every INTERVAL_S seconds to time a small fixed
pure-Python kernel, and child.py reports each stretch of work between two
kernel runs scaled to a reference speed:

    reported = sum over stretches of  stretch seconds * REFERENCE_S / kernel seconds

The kernel time is the mean of the runs just before and just after the
stretch, and the kernel runs themselves are left out of every time.  The
kernel does not use the package, so a change to the package leaves it alone.
It does the kinds of work the package does: a memoized misere search over
sorted tuples of heaps (the oracle and builder), table lookups and tuple
building in nested loops (the verifier's scan), and a JSON round trip (the
analysis files).
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

# Seconds one kernel run takes, between stretches of package work, on a
# quiet 2-core Intel Xeon VM with Python 3.11; reported times are in seconds
# of that machine.
REFERENCE_S = 0.0036
INTERVAL_S = 0.04  # work between two kernel runs, about 6 % overhead
CHECKSUM = 154     # what kernel() returns; a different value means broken work


def _misere_search(limit: int) -> int:
    """P positions of misere Kayles with total size at most ``limit``."""
    memo: dict[tuple[int, ...], bool] = {}

    def wins(heaps: tuple[int, ...]) -> bool:
        if heaps in memo:
            return memo[heaps]
        result = not heaps  # no move left: the player to move wins misere
        for i, h in enumerate(heaps):
            if result:
                break
            rest = heaps[:i] + heaps[i + 1:]
            for take in (1, 2):
                for left in range(0, (h - take) // 2 + 1):
                    right = h - take - left
                    if right < 0:
                        continue
                    child = tuple(sorted(rest + tuple(p for p in (left, right) if p)))
                    if not wins(child):
                        result = True
                        break
                if result:
                    break
        memo[heaps] = result
        return result

    def positions(total: int, largest: int):
        if total == 0:
            yield ()
            return
        for h in range(min(total, largest), 0, -1):
            for rest in positions(total - h, h):
                yield rest + (h,)

    count = 0
    for total in range(limit + 1):
        for heaps in positions(total, total):
            count += not wins(tuple(sorted(heaps)))
    return count


def _table_scan(size: int) -> int:
    table = [[(a * b + a + b) % size for b in range(size)] for a in range(size)]
    hits = 0
    for a in range(size):
        row = table[a]
        for b in range(size):
            chosen = (a, b, row[b])
            product = table[row[b]][chosen[1]]
            if product in (0, 1, size // 2):
                hits += 1
    return hits


def _json_round_trip(n: int) -> int:
    doc = {"names": [f"e{i}" for i in range(n)],
           "table": [[(i * j) % n for j in range(n)] for i in range(n)]}
    return len(json.loads(json.dumps(doc))["table"])


def kernel() -> int:
    """One fixed unit of work; returns a checksum so that none of it is skipped."""
    return _misere_search(12) + _table_scan(60) + _json_round_trip(40)


def _run_kernel() -> tuple[float, float]:
    """(start, end) of one checked kernel run, as time.monotonic() readings."""
    t0 = time.monotonic()
    got = kernel()
    t1 = time.monotonic()
    if got != CHECKSUM:
        raise RuntimeError(f"calibration kernel checksum {got} != {CHECKSUM}")
    return t0, t1


def median_kernel_s(runs: int = 9) -> float:
    """Median seconds of ``runs`` kernel runs in a row."""
    return statistics.median(t1 - t0 for t0, t1 in (_run_kernel() for _ in range(runs)))


class SpeedSampler:
    """Runs kernel() every INTERVAL_S seconds from a one-shot SIGALRM timer,
    re-armed after each run so that runs never nest.  Python runs the
    handler between two bytecodes of whatever the main thread is doing."""

    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, end), time.monotonic()
        self._previous = None
        self._running = False

    def _tick(self, signum=None, frame=None) -> None:
        self.runs.append(_run_kernel())
        if signum is not None and self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        # A tick already delivered but not yet run must not re-arm the timer
        # once the default handler, which ends the process, is back.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def kernel_s(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.runs]

    def split(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the work done from ``a`` to ``b``
        (time.monotonic() readings), kernel runs left out.  Work before the
        first run takes that run's speed, work after the last run its."""
        runs = self.runs
        durations = self.kernel_s()
        raw = scaled = 0.0
        k = max(0, bisect.bisect_right(runs, (a, float("inf"))) - 1)
        lo = a
        while lo < b:
            if k < len(runs) and runs[k][0] <= lo:  # inside or after run k
                lo = max(lo, runs[k][1])
                k += 1
                continue
            hi = min(b, runs[k][0]) if k < len(runs) else b
            if hi > lo:
                before = durations[k - 1] if k > 0 else durations[0]
                after = durations[k] if k < len(runs) else before
                raw += hi - lo
                scaled += (hi - lo) * 2 * REFERENCE_S / (before + after)
            lo = hi
        return raw, scaled
