"""Structured tracing for the DES kernel and the hardware models.

The simulator's explanatory power comes from chip mechanisms (ring
conflicts, MFC queue saturation, bank turnarounds), but scalar counters
cannot show *when* or *between whom* those mechanisms fired.  This module
adds a first-class trace stream:

* typed records (process resume/terminate, EIB grant/wait/release,
  MFC enqueue/issue/complete, memory bank activate/turnaround);
* a :class:`TraceRecorder` — a bounded ring buffer attached to an
  :class:`~repro.sim.core.Environment`;
* a zero-overhead :data:`NULL_TRACE` default (models guard every emit
  with ``if trace.enabled``, so a run without tracing pays one attribute
  load per potential record);
* :class:`TraceSummary` — counters, per-ring and per-flow statistics and
  bytes-landed-per-interval flow timelines, recomputed purely from the
  record stream (the analysis layer consumes this for its saturation
  claims, and tests assert it reproduces the live counters exactly);
* a Chrome trace-event JSON exporter (loadable in Perfetto or
  ``chrome://tracing``) whose events carry the full record payload, so a
  trace file round-trips back into records (``records_from_chrome``).

Every record carries ``ts`` in integer CPU cycles, the simulator's time
unit; the exporter converts to microseconds when given a clock rate.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any
from collections.abc import Iterable
#: Default ring-buffer capacity (records). ~100 B/record -> ~100 MB max.
DEFAULT_CAPACITY = 1_000_000


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessResume:
    """A process generator was resumed (sent a value or thrown into)."""

    KIND = "process.resume"
    ts: int
    proc_id: int
    name: str


@dataclass(frozen=True)
class ProcessTerminate:
    """A process generator returned (ok) or raised (not ok)."""

    KIND = "process.terminate"
    ts: int
    proc_id: int
    name: str
    ok: bool


@dataclass(frozen=True)
class EibGrant:
    """The EIB arbiter committed a path (ring + span set + both ports).

    ``immediate`` is False when the requester sat in the arbiter's wait
    queue first — the count of non-immediate grants is the live
    ``Eib.conflicts`` counter.
    """

    KIND = "eib.grant"
    ts: int
    src: str
    dst: str
    ring: str
    spans: tuple[int, ...]
    immediate: bool


@dataclass(frozen=True)
class EibWait:
    """A requester left the arbiter wait queue after ``cycles`` cycles
    (``ts`` is the moment the wait *ended*)."""

    KIND = "eib.wait"
    ts: int
    src: str
    dst: str
    cycles: int


@dataclass(frozen=True)
class EibRelease:
    """A granted path was released after moving ``nbytes`` (one grant
    quantum or less).  ``start`` is the matching grant's commit time, so
    (start, ts) is the busy interval of the ring slot."""

    KIND = "eib.release"
    ts: int
    src: str
    dst: str
    ring: str
    nbytes: int
    start: int


@dataclass(frozen=True)
class EibTransfer:
    """A whole ``Eib.transfer`` call (possibly many grants) finished;
    the sum of these ``nbytes`` is the live ``Eib.bytes_moved``."""

    KIND = "eib.transfer"
    ts: int
    src: str
    dst: str
    nbytes: int


@dataclass(frozen=True)
class MfcEnqueue:
    """A DMA command occupied an MFC queue slot."""

    KIND = "mfc.enqueue"
    ts: int
    node: str
    cmd_id: int
    tag: int
    nbytes: int
    is_list: bool
    queue_depth: int


@dataclass(frozen=True)
class MfcIssue:
    """The MFC started executing a command (fence/barrier satisfied)."""

    KIND = "mfc.issue"
    ts: int
    node: str
    cmd_id: int
    tag: int
    nbytes: int


@dataclass(frozen=True)
class MfcComplete:
    """A command completed and freed its queue slot."""

    KIND = "mfc.complete"
    ts: int
    node: str
    cmd_id: int
    tag: int
    nbytes: int
    enqueued_at: int
    issued_at: int


@dataclass(frozen=True)
class BankActivate:
    """A memory bank started serving a command.  ``overhead_cycles`` is
    the turnaround/switch cost added on top of ``service_cycles``."""

    KIND = "mem.activate"
    ts: int
    bank: str
    requester: str
    direction: str
    nbytes: int
    service_cycles: int
    overhead_cycles: int


@dataclass(frozen=True)
class BankTurnaround:
    """Bank dead time: same-requester turnaround or a requester switch."""

    KIND = "mem.turnaround"
    ts: int
    bank: str
    requester: str
    cycles: int
    reason: str


@dataclass(frozen=True)
class FaultInjected:
    """The fault engine fired at a model site (see
    :mod:`repro.sim.faults`).  ``fault`` is the spec kind (the field is
    not called ``kind`` because every exported record's args carry the
    record-type discriminator under that key); ``cycles`` is the latency
    added, 0 for drops/crashes/hangs whose cost shows up elsewhere."""

    KIND = "fault.inject"
    ts: int
    site: str
    fault: str
    node: str
    cycles: int


@dataclass(frozen=True)
class DmaHazard:
    """The DMA sanitizer flagged two concurrent commands touching
    overlapping bytes with no ordering edge (see
    :mod:`repro.sim.sanitizer`).  ``hazard`` is the race flavour
    (``write-write``/``write-read``/``read-write``); ``space`` names the
    address space (``ls:<node>`` or ``ea``); [``lo``, ``hi``) is the
    overlapping byte range."""

    KIND = "sanitizer.hazard"
    ts: int
    node: str
    space: str
    hazard: str
    first_cmd: int
    second_cmd: int
    first_tag: int
    second_tag: int
    lo: int
    hi: int


RECORD_TYPES = (
    ProcessResume,
    ProcessTerminate,
    FaultInjected,
    DmaHazard,
    EibGrant,
    EibWait,
    EibRelease,
    EibTransfer,
    MfcEnqueue,
    MfcIssue,
    MfcComplete,
    BankActivate,
    BankTurnaround,
)

_KIND_TO_TYPE = {record_type.KIND: record_type for record_type in RECORD_TYPES}


# ---------------------------------------------------------------------------
# Recorders
# ---------------------------------------------------------------------------

class NullTraceRecorder:
    """The default recorder: tracing disabled, every emit skipped.

    Models guard emits with ``if trace.enabled``, so the disabled cost is
    one attribute read and a branch per potential record.
    """

    enabled = False

    def emit(self, record) -> None:  # pragma: no cover - never called via guard
        pass

    @property
    def records(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


#: Shared do-nothing recorder every Environment starts with.
NULL_TRACE = NullTraceRecorder()


class TraceRecorder:
    """A bounded ring buffer of trace records.

    When the buffer is full the *oldest* records are dropped (the tail of
    a run explains its steady state better than its warm-up); ``dropped``
    counts how many were lost.
    """

    enabled = True

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, record) -> None:
        if self.capacity is not None and len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    @property
    def records(self) -> list:
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def summary(self) -> TraceSummary:
        return TraceSummary(self.records)


# ---------------------------------------------------------------------------
# Summary / analysis API
# ---------------------------------------------------------------------------

class TraceSummary:
    """Statistics recomputed purely from a record stream.

    This is the API the analysis layer consumes: the same numbers the
    live counters report (``counters()`` reproduces ``Eib.grants``,
    ``conflicts``, ``wait_cycles`` and ``bytes_moved`` exactly for a
    completed run), plus the per-ring, per-flow, per-bank and per-MFC
    breakdowns the scalar counters cannot express.
    """

    def __init__(self, records: Iterable):
        self.records = list(records)

    def _of(self, record_type) -> list:
        return [r for r in self.records if isinstance(r, record_type)]

    @property
    def duration(self) -> int:
        """Span of the record stream in cycles (0 when empty)."""
        if not self.records:
            return 0
        begins = [r.ts for r in self.records]
        begins += [r.start for r in self._of(EibRelease)]
        begins += [r.enqueued_at for r in self._of(MfcComplete)]
        return max(r.ts for r in self.records) - min(begins)

    # -- EIB ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The live ``Eib`` counters, rebuilt from the stream."""
        grants = self._of(EibGrant)
        return {
            "grants": len(grants),
            "conflicts": sum(1 for g in grants if not g.immediate),
            "wait_cycles": sum(w.cycles for w in self._of(EibWait)),
            "bytes_moved": sum(t.nbytes for t in self._of(EibTransfer)),
        }

    def per_ring(self) -> dict[str, dict[str, int]]:
        """Per-ring grants, conflicts, busy cycles and bytes."""
        rings: dict[str, dict[str, int]] = {}

        def entry(name: str) -> dict[str, int]:
            return rings.setdefault(
                name, {"grants": 0, "conflicts": 0, "busy_cycles": 0, "bytes": 0}
            )

        for grant in self._of(EibGrant):
            row = entry(grant.ring)
            row["grants"] += 1
            if not grant.immediate:
                row["conflicts"] += 1
        for release in self._of(EibRelease):
            row = entry(release.ring)
            row["busy_cycles"] += release.ts - release.start
            row["bytes"] += release.nbytes
        return rings

    def per_flow(self) -> dict[tuple[str, str], dict[str, int]]:
        """Per (src, dst) flow: bytes landed, grant count, wait cycles,
        first/last landing time."""
        flows: dict[tuple[str, str], dict[str, int]] = {}

        def entry(src: str, dst: str) -> dict[str, int]:
            return flows.setdefault(
                (src, dst),
                {
                    "bytes": 0,
                    "chunks": 0,
                    "grants": 0,
                    "wait_cycles": 0,
                    "first_ts": -1,
                    "last_ts": -1,
                },
            )

        for grant in self._of(EibGrant):
            entry(grant.src, grant.dst)["grants"] += 1
        for wait in self._of(EibWait):
            entry(wait.src, wait.dst)["wait_cycles"] += wait.cycles
        for release in self._of(EibRelease):
            row = entry(release.src, release.dst)
            row["bytes"] += release.nbytes
            row["chunks"] += 1
            if row["first_ts"] < 0:
                row["first_ts"] = release.ts
            row["last_ts"] = release.ts
        return flows

    def flow_timeline(
        self, interval: int
    ) -> dict[tuple[str, str], list[tuple[int, int]]]:
        """Bytes landed per ``interval``-cycle bucket per (src, dst) flow.

        Buckets are keyed by their start time; empty buckets between a
        flow's first and last landing are present with 0 bytes, so the
        series plots directly as a bandwidth timeline.
        """
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        landings: dict[tuple[str, str], dict[int, int]] = {}
        for release in self._of(EibRelease):
            bucket = (release.ts // interval) * interval
            flow = landings.setdefault((release.src, release.dst), {})
            flow[bucket] = flow.get(bucket, 0) + release.nbytes
        timelines: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for flow_key, buckets in landings.items():
            lo, hi = min(buckets), max(buckets)
            timelines[flow_key] = [
                (bucket, buckets.get(bucket, 0))
                for bucket in range(lo, hi + interval, interval)
            ]
        return timelines

    # -- MFC ------------------------------------------------------------------

    def mfc_stats(self) -> dict[str, dict[str, int]]:
        """Per-node enqueue/complete counts, bytes and queue high-water."""
        nodes: dict[str, dict[str, int]] = {}

        def entry(node: str) -> dict[str, int]:
            return nodes.setdefault(
                node,
                {
                    "enqueued": 0,
                    "completed": 0,
                    "bytes": 0,
                    "max_queue_depth": 0,
                    "queue_cycles": 0,
                },
            )

        for enqueue in self._of(MfcEnqueue):
            row = entry(enqueue.node)
            row["enqueued"] += 1
            row["max_queue_depth"] = max(
                row["max_queue_depth"], enqueue.queue_depth
            )
        for complete in self._of(MfcComplete):
            row = entry(complete.node)
            row["completed"] += 1
            row["bytes"] += complete.nbytes
            row["queue_cycles"] += complete.ts - complete.enqueued_at
        return nodes

    # -- faults ---------------------------------------------------------------

    def fault_stats(self) -> dict[tuple[str, str], dict[str, int]]:
        """Injected faults per (site, kind): count and added cycles."""
        faults: dict[tuple[str, str], dict[str, int]] = {}
        for fault in self._of(FaultInjected):
            row = faults.setdefault(
                (fault.site, fault.fault), {"count": 0, "cycles": 0}
            )
            row["count"] += 1
            row["cycles"] += fault.cycles
        return faults

    # -- memory ---------------------------------------------------------------

    def bank_stats(self) -> dict[str, dict[str, int]]:
        """Per-bank commands, bytes, busy cycles and turnaround cycles."""
        banks: dict[str, dict[str, int]] = {}
        for activate in self._of(BankActivate):
            row = banks.setdefault(
                activate.bank,
                {"commands": 0, "bytes": 0, "busy_cycles": 0, "turnaround_cycles": 0},
            )
            row["commands"] += 1
            row["bytes"] += activate.nbytes
            row["busy_cycles"] += activate.service_cycles + activate.overhead_cycles
        for turnaround in self._of(BankTurnaround):
            row = banks.setdefault(
                turnaround.bank,
                {"commands": 0, "bytes": 0, "busy_cycles": 0, "turnaround_cycles": 0},
            )
            row["turnaround_cycles"] += turnaround.cycles
        return banks


# ---------------------------------------------------------------------------
# Chrome trace-event export / import
# ---------------------------------------------------------------------------

#: Stable pid assignment for the exported process rows.
_PIDS = {"EIB": 1, "MFC": 2, "Memory": 3, "Processes": 4, "Faults": 5,
         "Sanitizer": 6}

#: Records exported as async spans: type -> (pid name, start attr).
_SPAN_EXPORTS = {
    EibRelease: ("EIB", "start"),
    MfcComplete: ("MFC", "issued_at"),
}


def _record_args(record) -> dict[str, Any]:
    args = asdict(record)
    args["kind"] = record.KIND
    return args


def _tid(record) -> str:
    if isinstance(record, (EibGrant, EibRelease)):
        return record.ring
    if isinstance(record, EibWait):
        return "arbiter"
    if isinstance(record, EibTransfer):
        return f"{record.src}->{record.dst}"
    if isinstance(record, (MfcEnqueue, MfcIssue, MfcComplete)):
        return record.node
    if isinstance(record, (BankActivate, BankTurnaround)):
        return record.bank
    if isinstance(record, FaultInjected):
        return record.site
    if isinstance(record, DmaHazard):
        return record.node
    return "sched"


def _pid_name(record) -> str:
    if isinstance(record, (EibGrant, EibWait, EibRelease, EibTransfer)):
        return "EIB"
    if isinstance(record, (MfcEnqueue, MfcIssue, MfcComplete)):
        return "MFC"
    if isinstance(record, (BankActivate, BankTurnaround)):
        return "Memory"
    if isinstance(record, FaultInjected):
        return "Faults"
    if isinstance(record, DmaHazard):
        return "Sanitizer"
    return "Processes"


def to_chrome_trace(
    records: Iterable,
    cpu_hz: float | None = None,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Convert records to the Chrome trace-event JSON object format.

    Spans (EIB path occupancy, bank service, MFC command lifetime) become
    async begin/end pairs so concurrent spans on one row stay valid;
    everything else becomes an instant event.  Each record's full payload
    rides in the canonical event's ``args`` (with a ``kind`` key), so
    :func:`records_from_chrome` reconstructs the exact stream.

    ``cpu_hz`` converts timestamps to microseconds (the trace-event
    unit); without it timestamps stay in raw cycles, which Perfetto also
    loads fine.
    """
    scale = 1e6 / cpu_hz if cpu_hz else 1.0
    events: list[dict[str, Any]] = []
    for name, pid in _PIDS.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    span_id = 0
    for record in records:
        pid = _PIDS[_pid_name(record)]
        tid = _tid(record)
        args = _record_args(record)
        span = _SPAN_EXPORTS.get(type(record))
        if span is not None:
            _pid_label, start_attr = span
            span_id += 1
            start = getattr(record, start_attr)
            name = (
                f"{record.src}->{record.dst}"
                if isinstance(record, EibRelease)
                else f"cmd {record.cmd_id} tag {record.tag}"
            )
            common = {"cat": record.KIND, "name": name, "pid": pid,
                      "id": span_id}
            events.append(
                {**common, "ph": "b", "ts": start * scale, "tid": tid,
                 "args": args}
            )
            events.append(
                {**common, "ph": "e", "ts": record.ts * scale, "tid": tid}
            )
        elif isinstance(record, BankActivate):
            # Bank service is strictly serial per bank: a synchronous
            # complete ("X") event renders as a solid track.
            duration = record.service_cycles + record.overhead_cycles
            events.append(
                {
                    "ph": "X",
                    "cat": record.KIND,
                    "name": f"{record.requester} {record.direction}",
                    "pid": pid,
                    "tid": tid,
                    "ts": record.ts * scale,
                    "dur": duration * scale,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": record.KIND,
                    "name": record.KIND,
                    "pid": pid,
                    "tid": tid,
                    "ts": record.ts * scale,
                    "args": args,
                }
            )
    trace: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.sim.trace", "cpu_hz": cpu_hz},
    }
    if metadata:
        trace["otherData"].update(metadata)
    return trace


def records_from_chrome(trace: dict[str, Any]) -> list:
    """Rebuild the record stream from a Chrome trace produced by
    :func:`to_chrome_trace` (inverse up to record order, which is kept)."""
    if "traceEvents" not in trace:
        raise ValueError(
            "not a Chrome trace-event file: no 'traceEvents' key"
        )
    records: list = []
    for event in trace["traceEvents"]:
        args = event.get("args") or {}
        kind = args.get("kind")
        if kind is None:
            continue
        record_type = _KIND_TO_TYPE.get(kind)
        if record_type is None:
            raise ValueError(f"unknown trace record kind {kind!r}")
        payload = {
            f.name: args[f.name] for f in fields(record_type)
        }
        if "spans" in payload:
            payload["spans"] = tuple(payload["spans"])
        records.append(record_type(**payload))
    return records


def write_chrome_trace(
    path: str,
    records: Iterable,
    cpu_hz: float | None = None,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Serialise records to a Chrome trace-event JSON file."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(records, cpu_hz, metadata), handle)


def read_chrome_trace(path: str) -> tuple[list, dict[str, Any]]:
    """Load a trace file; returns (records, otherData metadata)."""
    with open(path) as handle:
        trace = json.load(handle)
    return records_from_chrome(trace), trace.get("otherData", {})
