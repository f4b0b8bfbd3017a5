"""Saturation claims derived from a trace stream.

The paper explains every bandwidth number with a chip mechanism: ring
conflicts (Figures 12/13/15/16), MFC queue saturation (the sync-policy
experiments), bank turnarounds (the ~60%-of-peak single stream).  The
scalar counters say *how much*; the trace stream says *where and when*.
This module turns a :class:`repro.sim.TraceSummary` into explicit,
quantified claims about which mechanism was binding in a run — the
machine-checkable form of the paper's explanatory sentences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import TraceSummary

#: Conflict fraction above which a ring counts as contended.
RING_CONTENDED_FRACTION = 0.25

#: Busy fraction above which a resource counts as saturated.
SATURATED_BUSY_FRACTION = 0.85

#: Queue high-water at which an MFC counts as running queue-limited.
MFC_QUEUE_LIMIT_FRACTION = 0.9


@dataclass(frozen=True)
class SaturationClaim:
    """One quantified statement about a chip mechanism in a run."""

    subject: str       # e.g. "ring cw0", "bank XDR-local", "MFC SPE3"
    mechanism: str     # e.g. "ring-conflict", "bank-turnaround"
    value: float       # the quantifying number (fraction, cycles, ...)
    text: str          # the human-readable claim

    def __str__(self) -> str:
        return self.text


class SaturationReport:
    """All the claims a trace supports, most severe first."""

    def __init__(self, claims: list[SaturationClaim], duration: int):
        self.claims = claims
        self.duration = duration

    @classmethod
    def from_summary(
        cls,
        summary: TraceSummary,
        queue_depth: int = 16,
        duration: int | None = None,
    ) -> SaturationReport:
        span = duration if duration is not None else summary.duration
        claims: list[SaturationClaim] = []
        claims += _ring_claims(summary, span)
        claims += _bank_claims(summary, span)
        claims += _mfc_claims(summary, queue_depth)
        claims += _flow_claims(summary)
        claims.sort(key=lambda claim: claim.value, reverse=True)
        return cls(claims, span)

    def render(self) -> str:
        if not self.claims:
            return "no saturation mechanisms detected"
        return "\n".join(f"- {claim}" for claim in self.claims)


def _ring_claims(summary: TraceSummary, span: int) -> list[SaturationClaim]:
    claims: list[SaturationClaim] = []
    for ring, row in sorted(summary.per_ring().items()):
        if not row["grants"]:
            continue
        conflict_fraction = row["conflicts"] / row["grants"]
        if conflict_fraction >= RING_CONTENDED_FRACTION:
            claims.append(
                SaturationClaim(
                    subject=f"ring {ring}",
                    mechanism="ring-conflict",
                    value=conflict_fraction,
                    text=(
                        f"ring {ring}: {conflict_fraction:.0%} of grants "
                        f"({row['conflicts']}/{row['grants']}) waited for a "
                        f"path — EIB arbitration is contended"
                    ),
                )
            )
        if span > 0:
            busy_fraction = row["busy_cycles"] / span
            if busy_fraction >= SATURATED_BUSY_FRACTION:
                claims.append(
                    SaturationClaim(
                        subject=f"ring {ring}",
                        mechanism="ring-busy",
                        value=busy_fraction,
                        text=(
                            f"ring {ring}: occupied {busy_fraction:.0%} of the "
                            f"run — the ring itself is saturated"
                        ),
                    )
                )
    return claims


def _bank_claims(summary: TraceSummary, span: int) -> list[SaturationClaim]:
    claims: list[SaturationClaim] = []
    for bank, row in sorted(summary.bank_stats().items()):
        if span > 0:
            busy_fraction = row["busy_cycles"] / span
            if busy_fraction >= SATURATED_BUSY_FRACTION:
                claims.append(
                    SaturationClaim(
                        subject=f"bank {bank}",
                        mechanism="bank-busy",
                        value=busy_fraction,
                        text=(
                            f"bank {bank}: serving commands "
                            f"{busy_fraction:.0%} of the run — memory-bound"
                        ),
                    )
                )
        if row["busy_cycles"]:
            turnaround_fraction = row["turnaround_cycles"] / row["busy_cycles"]
            if turnaround_fraction >= RING_CONTENDED_FRACTION:
                claims.append(
                    SaturationClaim(
                        subject=f"bank {bank}",
                        mechanism="bank-turnaround",
                        value=turnaround_fraction,
                        text=(
                            f"bank {bank}: {turnaround_fraction:.0%} of busy "
                            f"cycles were turnaround/switch dead time — the "
                            f"paper's 'refreshing, snooping' overhead"
                        ),
                    )
                )
    return claims


def _mfc_claims(summary: TraceSummary, queue_depth: int) -> list[SaturationClaim]:
    claims: list[SaturationClaim] = []
    for node, row in sorted(summary.mfc_stats().items()):
        if not row["enqueued"]:
            continue
        depth_fraction = row["max_queue_depth"] / queue_depth
        if depth_fraction >= MFC_QUEUE_LIMIT_FRACTION:
            claims.append(
                SaturationClaim(
                    subject=f"MFC {node}",
                    mechanism="mfc-queue",
                    value=depth_fraction,
                    text=(
                        f"MFC {node}: command queue hit "
                        f"{row['max_queue_depth']}/{queue_depth} entries — the "
                        f"queue, not the SPU, paces this flow"
                    ),
                )
            )
    return claims


def _flow_claims(summary: TraceSummary) -> list[SaturationClaim]:
    claims: list[SaturationClaim] = []
    for (src, dst), row in sorted(summary.per_flow().items()):
        active = row["bytes"] and row["wait_cycles"]
        if not active:
            continue
        span = max(1, row["last_ts"] - row["first_ts"])
        wait_fraction = row["wait_cycles"] / span
        if wait_fraction >= RING_CONTENDED_FRACTION:
            claims.append(
                SaturationClaim(
                    subject=f"flow {src}->{dst}",
                    mechanism="flow-wait",
                    value=wait_fraction,
                    text=(
                        f"flow {src}->{dst}: spent {wait_fraction:.0%} of its "
                        f"active window waiting on the arbiter "
                        f"({row['wait_cycles']} cycles over {span})"
                    ),
                )
            )
    return claims


def flow_bandwidth_table(
    summary: TraceSummary,
    cpu_hz: float,
) -> list[tuple[str, str, int, float]]:
    """(src, dst, bytes, GB/s over the flow's active window) rows,
    largest flows first — the per-flow view of a run's bandwidth."""
    rows: list[tuple[str, str, int, float]] = []
    for (src, dst), row in summary.per_flow().items():
        if not row["bytes"]:
            continue
        span = max(1, row["last_ts"] - row["first_ts"])
        gbps = row["bytes"] / (span / cpu_hz) / 1e9
        rows.append((src, dst, row["bytes"], gbps))
    rows.sort(key=lambda entry: entry[2], reverse=True)
    return rows
