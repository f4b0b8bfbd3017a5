"""Per-layer observation for the traced run: spans, a cProfile fold by
module, and the modelled counters of every simulated chip.

Everything here wraps the package from the outside — public functions
and classes are patched for the duration of a traced run and restored
afterwards — so the code under test is the code users run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pstats
from collections import defaultdict
from time import perf_counter

import repro
import repro.core.experiment as experiment

#: Directory of the ``repro`` package (module names are relative to it).
_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_STDLIB_DIR = os.path.dirname(os.path.abspath(os.__file__))


class Tracer:
    """In-memory spans: ``[name, start, end, parent, hit]`` with times
    in seconds from the tracer's creation and ``parent`` the index of
    the enclosing span (-1 at top level).  ``hit`` is set for wrapped
    lookups (``hit=True`` in :meth:`wrap`): whether the call returned
    something other than ``None``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._origin = perf_counter()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() - self._origin, None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter() - self._origin

    def wrap(self, owner, attr: str, name: str | None = None, hit: bool = False) -> None:
        """Replace ``owner.attr`` (a module function or a method) with a
        span-recording wrapper until :meth:`restore`."""
        function = getattr(owner, attr)
        label = name or attr
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer._open(label)
            try:
                result = function(*args, **kwargs)
                if hit:
                    tracer.spans[index][4] = result is not None
                return result
            finally:
                tracer._close(index)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, function))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, and hits.
        Self time is a span's duration minus its direct children's."""
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent, _hit in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
        )
        for (name, start, end, _parent, hit), children in zip(self.spans, child_s):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
            row["hits"] += bool(hit)
        return dict(out)


def module_of(filename: str) -> str:
    """Fold key of a code location: ``repro`` modules by dotted path
    (``sim.core``, ``cell.eib``), the benchmark's own files as
    ``bench``, the standard library as ``stdlib``."""
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if path.startswith(_PACKAGE_DIR + os.sep):
        rel = os.path.relpath(path, _PACKAGE_DIR)[: -len(".py")]
        parts = [part for part in rel.split(os.sep) if part != "__init__"]
        return ".".join(parts) or "repro"
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    if filename.startswith("<frozen") or path.startswith(_STDLIB_DIR + os.sep):
        return "stdlib"
    return "other"


def fold_profile(profile) -> dict[str, dict]:
    """cProfile self time and call counts folded by module.

    Time inside builtins (``len``, ``heapq.heappush``, dict methods) is
    charged to the calling module in proportion to what each caller
    spent in it, so a layer that leans on C helpers is not undercounted.
    Calls count the module's own Python functions only.  The
    benchmark's own code (probes, span wrappers) is left out; shares
    (``self_frac``) sum to 1 over the remaining buckets.
    """
    stats = pstats.Stats(profile).stats
    folded: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for (filename, _line, _func), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            row = folded[module_of(filename)]
            row["self_s"] += tt
            row["calls"] += nc
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            folded["builtins"]["self_s"] += tt
            continue
        for caller, edge in callers.items():
            folded[module_of(caller[0])]["self_s"] += tt * edge[2] / edge_total
    folded.pop("bench", None)
    total = sum(row["self_s"] for row in folded.values()) or 1.0
    for row in folded.values():
        row["self_frac"] = row["self_s"] / total
    return dict(sorted(folded.items(), key=lambda item: -item[1]["self_s"]))


#: Modelled counters two engines must agree on for the same spec.
MODELLED = (
    "eib.grants", "eib.bytes_moved",
    "bank.local.bytes", "bank.local.commands",
    "bank.remote.bytes", "bank.remote.commands",
    "mfc.commands_completed",
)

#: Modelled counters compared but not required to agree: on SPE-to-SPE
#: copies the fast engine's arbitration counts differ from the
#: reference engine's although every sample is identical.
ADVISORY = ("eib.conflicts", "eib.wait_cycles")


def chip_counters(chip, busy: bool) -> dict[str, int]:
    """Counters of one finished chip: the modelled set, plus engine
    accounting (differs by engine by design) and, when ``busy`` and the
    chip ran on the reference engine, bank occupancy cycles (the only
    engine that maintains occupancy monitors)."""
    eib, local, remote = chip.eib, chip.memory.local_bank, chip.memory.remote_bank
    env = chip.env
    out = {
        "eib.grants": eib.grants,
        "eib.conflicts": eib.conflicts,
        "eib.wait_cycles": eib.wait_cycles,
        "eib.bytes_moved": eib.bytes_moved,
        "bank.local.bytes": local.bytes_served,
        "bank.local.commands": local.commands_served,
        "bank.remote.bytes": remote.bytes_served,
        "bank.remote.commands": remote.commands_served,
        "mfc.commands_completed": sum(spe.mfc.commands_completed for spe in chip.spes),
        "engine.events_popped": env.events_popped,
    }
    fastforward = getattr(env, "fastforward", None)
    if fastforward is not None:
        out["fastforward.captures"] = fastforward.captures
        out["fastforward.windows_warped"] = fastforward.windows_warped
        out["fastforward.events_elided"] = fastforward.events_elided
    if busy and chip.engine == "reference":
        out["memory.busy_cycles"] = sum(bank.monitor.busy_time() for bank in chip.memory.banks)
        out["memory.bank_cycles"] = 2 * env.now
    return out


class ChipCounters:
    """Captures :func:`chip_counters` of every chip
    :func:`~repro.core.experiment.run_spec_report` runs, by swapping the
    ``CellChip`` it constructs for a subclass that records itself after
    ``run()``.  ``last`` is the latest chip's counters; ``totals`` their
    running sum."""

    def __init__(self, busy: bool = False) -> None:
        self.busy = busy
        self.last: dict[str, int] = {}
        self.totals: dict[str, int] = defaultdict(int)

    def record(self, chip) -> None:
        self.last = chip_counters(chip, self.busy)
        for key, value in self.last.items():
            self.totals[key] += value

    @contextlib.contextmanager
    def capture(self):
        base = experiment.CellChip
        counters = self

        class CountingChip(base):
            def run(self, *args, **kwargs):
                result = super().run(*args, **kwargs)
                counters.record(self)
                return result

        experiment.CellChip = CountingChip
        try:
            yield self
        finally:
            experiment.CellChip = base


def modelled(counters: dict[str, int]) -> dict[str, int]:
    return {key: counters[key] for key in MODELLED + ADVISORY}


def disagreement(a: dict[str, int], b: dict[str, int]) -> tuple[list[str], list[str]]:
    """Names of the required and of the advisory counters that differ."""
    return (
        [key for key in MODELLED if a[key] != b[key]],
        [key for key in ADVISORY if a[key] != b[key]],
    )
