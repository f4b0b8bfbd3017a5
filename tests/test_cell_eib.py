"""Unit tests for the EIB model: timing, ports, rings, arbitration."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import CellChip, CellConfig, ConfigError
from repro.cell.eib import HOP_LATENCY_CYCLES
from repro.cell.topology import SpeMapping


def run_transfer(chip, src, dst, nbytes):
    done = {}

    def mover(env):
        start = env.now
        yield from chip.eib.transfer(src, dst, nbytes)
        done["cycles"] = env.now - start

    chip.env.process(mover(chip.env))
    chip.run()
    return done["cycles"]


def expected_single_grant_cycles(config, src, dst, chunk, hops):
    rate = min(
        config.node_rate_bytes_per_cpu_cycle(src),
        config.node_rate_bytes_per_cpu_cycle(dst),
    )
    return (
        config.eib.arbitration_cycles
        + hops * HOP_LATENCY_CYCLES
        + math.ceil(chunk / rate)
    )


def test_single_quantum_transfer_timing(chip):
    # SPE0 (index 10) to MIC (index 11): one hop clockwise.
    cycles = run_transfer(chip, "SPE0", "MIC", 2048)
    assert cycles == expected_single_grant_cycles(chip.config, "SPE0", "MIC", 2048, 1)


def test_transfer_splits_into_grant_quanta(chip):
    quantum = chip.config.eib.grant_quantum_bytes
    one = run_transfer(chip, "SPE0", "MIC", quantum)
    chip2 = CellChip(config=chip.config)
    four = run_transfer(chip2, "SPE0", "MIC", 4 * quantum)
    assert four == 4 * one


def test_ioif_transfers_run_at_seven_gbps(chip):
    nbytes = 7_000_000
    cycles = run_transfer(chip, "MIC", "IOIF0", nbytes)
    gbps = chip.config.clock.gbps(nbytes, cycles)
    assert gbps == pytest.approx(7.0, rel=0.05)


def test_distance_adds_latency(config):
    near = run_transfer(CellChip(config=config), "SPE0", "MIC", 2048)
    far = run_transfer(CellChip(config=config), "SPE1", "IOIF0", 2048)
    assert far > near


def test_out_port_is_exclusive(chip):
    """Two transfers from the same source serialize on its on-ramp."""
    done = []

    def mover(env, dst):
        yield from chip.eib.transfer("SPE0", dst, 2048)
        done.append((dst, env.now))

    chip.env.process(mover(chip.env, "SPE1"))
    chip.env.process(mover(chip.env, "SPE2"))
    chip.run()
    finish_times = sorted(t for _dst, t in done)
    single = expected_single_grant_cycles(chip.config, "SPE0", "SPE1", 2048, 1)
    # The second transfer cannot start before the first releases the port.
    assert finish_times[1] >= finish_times[0] + single - HOP_LATENCY_CYCLES * 6


def test_disjoint_transfers_run_concurrently(chip):
    """Transfers with disjoint ports and spans overlap fully."""
    done = {}

    def mover(env, name, src, dst):
        yield from chip.eib.transfer(src, dst, 2048)
        done[name] = env.now

    chip.env.process(mover(chip.env, "a", "SPE0", "MIC"))
    chip.env.process(mover(chip.env, "b", "SPE2", "SPE4"))
    chip.run()
    assert done["a"] == expected_single_grant_cycles(chip.config, "SPE0", "MIC", 2048, 1)
    hops_b = chip.topology.hops(
        "SPE2", "SPE4", chip.topology.directions_by_distance("SPE2", "SPE4")[0]
    )
    assert done["b"] == expected_single_grant_cycles(
        chip.config, "SPE2", "SPE4", 2048, hops_b
    )


def test_conflicts_are_counted(chip):
    def mover(env, dst):
        yield from chip.eib.transfer("SPE0", dst, 4096)

    chip.env.process(mover(chip.env, "SPE1"))
    chip.env.process(mover(chip.env, "SPE2"))
    chip.run()
    assert chip.eib.conflicts > 0
    assert 0 < chip.eib.conflict_fraction < 1
    assert chip.eib.wait_cycles > 0


def test_bytes_moved_accounting(chip):
    def mover(env):
        yield from chip.eib.transfer("SPE0", "SPE1", 6144)

    chip.env.process(mover(chip.env))
    chip.run()
    assert chip.eib.bytes_moved == 6144


def test_ring_utilization_reported(chip):
    def mover(env):
        yield from chip.eib.transfer("SPE0", "MIC", 16384)

    chip.env.process(mover(chip.env))
    chip.run()
    utilization = chip.eib.utilization()
    assert len(utilization) == 4
    assert max(utilization.values()) > 0.5


def test_invalid_transfers_rejected(chip):
    with pytest.raises(ConfigError):
        list(chip.eib.transfer("SPE0", "SPE0", 128))
    with pytest.raises(ConfigError):
        gen = chip.eib.transfer("SPE0", "SPE1", 0)
        next(gen)


class TestRing:
    """The bitmask ring state behind every grant: the per-ring transfer
    limit, span overlap, release, and a checked commit."""

    @staticmethod
    def eib(config, max_transfers):
        config = config.replace(
            eib=dataclasses.replace(config.eib, max_transfers_per_ring=max_transfers)
        )
        return CellChip(config=config).eib

    @staticmethod
    def flow(eib, first, last):
        """The flow from ring position ``first`` clockwise to ``last``:
        its spans are ``first .. last - 1`` and its first candidate is
        ring cw0."""
        order = eib.topology.order
        flow = eib._flow(order[first], order[last])
        assert eib.rings[flow.choices[0][0]].name == "cw0"
        return flow

    def test_ring_respects_max_transfers(self, config):
        eib = self.eib(config, max_transfers=2)
        a, b, c = (self.flow(eib, i, i + 1) for i in (0, 2, 4))
        eib._commit(a, a.choices[0])
        eib._commit(b, b.choices[0])
        # Disjoint spans and ports, but cw0 is full: the next ring serves.
        assert eib._try_grant(c) is c.choices[1]
        with pytest.raises(ConfigError):
            eib._commit(c, c.choices[0])

    def test_ring_rejects_overlap(self, config):
        eib = self.eib(config, max_transfers=3)
        held = self.flow(eib, 2, 5)
        eib._commit(held, held.choices[0])
        overlapping = self.flow(eib, 4, 6)
        assert eib._try_grant(overlapping) is overlapping.choices[1]
        disjoint = self.flow(eib, 6, 8)
        assert eib._try_grant(disjoint) is disjoint.choices[0]

    def test_ring_remove_restores_capacity(self, config):
        eib = self.eib(config, max_transfers=1)
        held = self.flow(eib, 1, 3)
        eib._commit(held, held.choices[0])
        ri, _mask, notmask, _latency, _spans = held.choices[0]
        eib._release(held, ri, notmask, 2048, 0)
        overlapping = self.flow(eib, 2, 4)
        assert eib._try_grant(overlapping) is overlapping.choices[0]
        assert eib._nact == [0] * len(eib.rings)
        assert eib._occ == [0] * len(eib.rings)
        assert eib._out == eib._in == 0

    def test_double_add_of_overlap_raises(self, config):
        eib = self.eib(config, max_transfers=3)
        held = self.flow(eib, 1, 3)
        eib._commit(held, held.choices[0])
        other = self.flow(eib, 2, 4)
        with pytest.raises(ConfigError):
            eib._commit(other, other.choices[0])


def test_memory_side_transfers_skip_retry_penalty(config):
    """Grants touching MIC keep zero penalty even under contention."""
    chip = CellChip(config=config, mapping=SpeMapping.identity(8))
    finish = {}

    def mover(env, name, src, dst, nbytes):
        yield from chip.eib.transfer(src, dst, nbytes)
        finish[name] = env.now

    # Eight SPEs all pulling from MIC: heavy port contention, but the
    # backlog penalty must not apply (the banks model memory overheads).
    for i in range(8):
        chip.env.process(mover(chip.env, f"spe{i}", "MIC", f"SPE{i}", 16384))
    chip.run()
    total = 8 * 16384
    gbps = chip.config.clock.gbps(total, max(finish.values()))
    # Pure port serialisation of 16.8 GB/s minus per-grant overheads.
    assert gbps > 13.0


# -- per-flow drain vs. a FIFO scan over every waiter ---------------------------
#
# The bus drains its waiters per flow, scanning only each flow's oldest
# waiter.  The oracle below is the arbiter as it was written before:
# one FIFO scan over every queued waiter, on span *sets*, with the
# retry penalty counted over the distinct flows left waiting.  Both run
# from the same random state and must grant the same waiters, in the
# same order, on the same rings, with the same penalties.

DRAIN_NODES = tuple(f"SPE{i}" for i in range(8)) + ("MIC", "IOIF0", "IOIF1")


class _Waiter:
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def succeed(self, value):
        self.log.append((self.name, value))


def fifo_drain(eib, queue, occupied, active, out_busy, in_busy):
    """One drain as a FIFO scan.  ``queue`` holds ``(name, src, dst)`` in
    arrival order; the ring and port state is updated in place.  Returns
    the grants as ``(name, ring index, spans, latency, penalty)`` and
    the waiters left, in order."""
    topology = eib.topology
    config = eib.config.eib
    granted, still = [], []
    for name, src, dst in queue:
        choice = None
        if src not in out_busy and dst not in in_busy:
            for direction in topology.directions_by_distance(src, dst):
                spans = topology.path(src, dst, direction)
                if len(spans) > config.max_hops:
                    continue
                for ri, ring in enumerate(eib.rings):
                    if (
                        ring.direction == direction
                        and active[ri] < config.max_transfers_per_ring
                        and occupied[ri].isdisjoint(spans)
                    ):
                        choice = (ri, spans)
                        break
                if choice is not None:
                    break
        if choice is None:
            still.append((name, src, dst))
            continue
        ri, spans = choice
        occupied[ri] |= set(spans)
        active[ri] += 1
        out_busy.add(src)
        in_busy.add(dst)
        granted.append((name, src, dst, ri, spans))
    grants = []
    for name, src, dst, ri, spans in granted:
        penalty = 0
        if not {src, dst} & {"MIC", "IOIF0", "IOIF1"}:
            direction = eib.rings[ri].direction
            waiting = {(s, d) for _n, s, d in still if (s, d) != (src, dst)}
            contenders = 0
            for s, d in waiting:
                if s == src or d == dst or (
                    direction in topology.directions_by_distance(s, d)
                    and not set(spans).isdisjoint(topology.path(s, d, direction))
                ):
                    contenders += 1
            penalty = config.conflict_retry_cycles * contenders
        grants.append((name, ri, spans, len(spans) * HOP_LATENCY_CYCLES, penalty))
    return grants, still


def mask_of(eib, spans):
    mask = 0
    for span in spans:
        mask |= eib._span_bits[span]
    return mask


def check_drains(rounds):
    """Run both drains over ``rounds`` of (arrivals, ring occupancy,
    busy ports) and assert they agree after every round."""
    eib = CellChip(config=CellConfig.paper_blade()).eib
    for src in DRAIN_NODES:
        for dst in DRAIN_NODES:
            if src != dst:
                eib._flow(src, dst)  # every span gets its bit
    log: list = []
    queue: list = []
    names = itertools.count()
    for arrivals, rings, (out_busy, in_busy) in rounds:
        for src, dst, nbytes in arrivals:
            name = next(names)
            eib._enqueue(eib.fast_leg(src, dst, nbytes)[6], _Waiter(name, log))
            queue.append((name, src, dst))
        occupied = [set(spans) for spans, _n in rings]
        active = [n for _spans, n in rings]
        eib._occ[:] = [mask_of(eib, spans) for spans in occupied]
        eib._nact[:] = active[:]
        eib._out = sum(eib._node_bits[node] for node in out_busy)
        eib._in = sum(eib._node_bits[node] for node in in_busy)
        out_busy, in_busy = set(out_busy), set(in_busy)
        expected, queue = fifo_drain(eib, queue, occupied, active, out_busy, in_busy)
        del log[:]
        if eib._heads:
            eib._drain()
        assert log == [
            (name, (ri, ~mask_of(eib, spans), latency, penalty))
            for name, ri, spans, latency, penalty in expected
        ]
        assert [(w.name, s, d) for s, d, w in eib.queued()] == queue
        assert eib._occ == [mask_of(eib, spans) for spans in occupied]
        assert eib._nact == active
        assert eib._out == sum(eib._node_bits[node] for node in out_busy)
        assert eib._in == sum(eib._node_bits[node] for node in in_busy)


_flows = st.tuples(
    st.sampled_from(DRAIN_NODES),
    st.sampled_from(DRAIN_NODES),
    st.integers(min_value=1, max_value=65536),
).filter(lambda arrival: arrival[0] != arrival[1])
_ring = st.tuples(
    st.sets(st.integers(min_value=0, max_value=11), max_size=4),
    st.integers(min_value=0, max_value=3),
)
_ports = st.tuples(
    st.sets(st.sampled_from(DRAIN_NODES), max_size=4),
    st.sets(st.sampled_from(DRAIN_NODES), max_size=4),
)
_rounds = st.lists(
    st.tuples(
        st.lists(_flows, max_size=14),
        st.lists(_ring, min_size=4, max_size=4),
        _ports,
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(rounds=_rounds)
def test_per_flow_drain_matches_fifo_scan(rounds):
    check_drains(rounds)


def test_granted_flow_refiled_behind_an_older_head():
    """SPE0's first waiter is granted while SPE2's and SPE4's wait on
    busy ramps.  SPE0's second waiter arrived after SPE2's head and
    before SPE4's, so the next drain must grant SPE2, SPE0, SPE4."""
    idle = [((), 0)] * 4
    check_drains(
        [
            (
                [
                    ("SPE0", "SPE1", 2048),
                    ("SPE2", "SPE3", 2048),
                    ("SPE0", "SPE1", 4096),
                    ("SPE4", "SPE5", 2048),
                ],
                idle,
                (set(), {"SPE3", "SPE5"}),
            ),
            ([], idle, (set(), set())),
        ]
    )
