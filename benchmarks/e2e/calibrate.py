"""Host-speed calibration and the host block of every result file.

Benchmark hosts are often shared: back-to-back runs of identical code
can differ by 2x in raw wall time.  Every timed pass is therefore scaled
by
``PROBE_REF_S / probe_s``, where ``probe_s`` is the median run time of a
fixed pure-Python heap/dict probe (about 20 ms) taken right before the
pass and after every ~1 s of it.  The probe exercises what the simulator
does in its hot loop (heap pushes and pops, dict updates, small-int
arithmetic) and imports nothing from ``repro``, so no change to the
repository can move it.

Stdlib only: the parent process imports this module without importing
the package under test.
"""

from __future__ import annotations

import gc
import heapq
import os
import platform
import statistics
import sys
from collections import deque
from time import perf_counter

#: Median probe time on the host that recorded ``baseline.json``
#: (2-core x86_64 container, CPython 3.11).  A calibrated time is what a
#: pass would have taken on that host at that moment's speed.
PROBE_REF_S = 0.0199

#: Iterations of the probe loop (sized for ~20 ms on the reference host).
PROBE_ITERATIONS = 25_000

#: A workload pass is interrupted for a probe after this much run time.
PROBE_EVERY_S = 1.0

#: A pass with fewer probes of its own is calibrated by this many of the
#: latest probes: one probe hit by a host hiccup must not rescale a pass.
PROBE_WINDOW = 5


def _probe_work(n: int = PROBE_ITERATIONS) -> int:
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x & 0xFFFF, i))
        slot = x & 0xFFF
        table[slot] = table.get(slot, 0) + 1
        if len(heap) > 64:
            pop(heap)
    return len(table) + len(heap)


def probe_once() -> float:
    """Seconds one probe takes right now (after a full collection)."""
    gc.collect()
    begin = perf_counter()
    _probe_work()
    return perf_counter() - begin


class Calibrator:
    """Collects probes around and inside timed passes.

    ``begin_pass`` probes and resets the pass's probe list; ``tick``
    probes once more whenever ``PROBE_EVERY_S`` of pass work has gone by
    and adds the time it took to ``probing_s``, which the caller takes
    out of the pass's wall time; ``end_pass`` turns the pass's raw
    seconds into a ``(raw_s, probe_s)`` record whose calibrated value is
    ``raw_s * PROBE_REF_S / probe_s``.
    """

    def __init__(self) -> None:
        self.probing_s = 0.0
        self._pass_probes: list[float] = []
        self._recent: deque[float] = deque(maxlen=PROBE_WINDOW)
        self._since_probe = 0.0

    def _probe(self) -> None:
        value = probe_once()
        self._pass_probes.append(value)
        self._recent.append(value)

    def begin_pass(self) -> None:
        self._pass_probes = []
        self._since_probe = 0.0
        self.probing_s = 0.0
        self._probe()
        gc.collect()

    def tick(self, ran_s: float) -> None:
        """Account ``ran_s`` seconds of pass work; probe when due."""
        self._since_probe += ran_s
        if self._since_probe >= PROBE_EVERY_S:
            self._since_probe = 0.0
            begin = perf_counter()
            self._probe()
            self.probing_s += perf_counter() - begin

    def end_pass(self, raw_s: float) -> tuple[float, float]:
        if raw_s >= PROBE_EVERY_S:
            self._probe()
        probes = self._pass_probes if len(self._pass_probes) >= PROBE_WINDOW else self._recent
        return raw_s, statistics.median(probes)


def calibrated(record: tuple[float, float]) -> float:
    raw_s, probe_s = record
    return raw_s * PROBE_REF_S / probe_s


def timing(records: list, value: float | None = None) -> dict:
    """A reported time: ``value`` (default: the median calibrated
    record) beside the raw and probe medians and the record count."""
    return {
        "value": statistics.median(map(calibrated, records)) if value is None else value,
        "raw_s": statistics.median(raw for raw, _ in records),
        "probe_s": statistics.median(probe for _, probe in records),
        "n": len(records),
    }


def host_block() -> dict:
    """What a result depends on besides the code: compared results must
    agree on ``cpu_count`` and the Python minor version."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "probe_ref_s": PROBE_REF_S,
    }


def comparable(a: dict, b: dict) -> str | None:
    """None when two host blocks may be compared, else the reason not."""
    if a.get("cpu_count") != b.get("cpu_count"):
        return f"cpu_count differs: {a.get('cpu_count')} vs {b.get('cpu_count')}"
    minor_a = ".".join(str(a.get("python", "")).split(".")[:2])
    minor_b = ".".join(str(b.get("python", "")).split(".")[:2])
    if minor_a != minor_b:
        return f"Python minor version differs: {minor_a} vs {minor_b}"
    if a.get("probe_ref_s") != b.get("probe_ref_s"):
        return (
            f"calibration reference differs: {a.get('probe_ref_s')} vs "
            f"{b.get('probe_ref_s')}"
        )
    return None


if __name__ == "__main__":
    # Prints the probe on the current host: its median is PROBE_REF_S's value
    # when a new reference host records a new baseline.
    values = sorted(probe_once() for _ in range(25))
    print(
        f"probe: median {statistics.median(values) * 1e3:.2f} ms, "
        f"min {values[0] * 1e3:.2f} ms, max {values[-1] * 1e3:.2f} ms "
        f"(PROBE_REF_S = {PROBE_REF_S * 1e3:.2f} ms)"
    )
