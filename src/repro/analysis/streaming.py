"""Streaming pipelines: the paper's headline guideline, executable.

The paper closes its SPE-to-memory analysis with: "implementing two data
streams using 4 SPEs each can be more efficient than having a single
data stream using the 8 SPEs".  A *data stream* here is the streaming
programming model's pipeline: one SPE pulls data from main memory, the
chunk then flows local-store-to-local-store through the downstream SPEs
(each doing its compute), and the tail SPE writes results back.  A
single 8-deep pipeline has one SPE's worth of memory input bandwidth
(~10 GB/s); two 4-deep pipelines have two (~20 GB/s), which the memory
system can actually deliver.

:class:`StreamingComparison` builds both configurations out of real SPU
programs — mailbox tokens for flow control, double-buffered pulls, DMA
for every byte moved — and measures end-to-end throughput.  Each
configuration is one :class:`~repro.core.experiment.ProgramSpec` of
:func:`streaming_pipelines`, so a sweep executor can serve it from its
journal or result cache instead of simulating it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.cell.chip import CellChip
from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.core.experiment import ProgramSpec, run_program_spec
from repro.libspe import SpeContext, SpuRuntime

#: Mailbox token kinds (high byte of the 32-bit message).
READY = 1
ACK = 2

#: Chunks in flight between adjacent stages (double buffering).
WINDOW = 2


def _token(kind: int, chunk: int) -> int:
    return (kind << 24) | (chunk & 0xFFFFFF)


def _token_kind(message: int) -> int:
    return message >> 24


class _Inbox:
    """Sorts one SPE's mixed inbound mailbox traffic by token kind.

    A middle pipeline stage receives READY tokens from its upstream and
    ACK tokens from its downstream on the same 4-deep inbound mailbox;
    programs pull "the next token of kind X" through this helper.
    """

    def __init__(self, spu: SpuRuntime):
        self.spu = spu
        self._buffered: dict[int, list[int]] = {READY: [], ACK: []}

    def expect(self, kind: int):
        """Sub-generator: the next token of ``kind`` (buffers others)."""
        while not self._buffered[kind]:
            message = yield self.spu.read_in_mbox()
            self._buffered[_token_kind(message)].append(message & 0xFFFFFF)
        return self._buffered[kind].pop(0)


def _source_stage(spu, next_runtime, out, chunk_bytes, n_chunks, compute_cycles):
    """Head of a pipeline: pull from memory, hand to the next stage."""
    inbox = _Inbox(spu)
    start = spu.read_decrementer()
    for chunk in range(n_chunks):
        if chunk >= WINDOW:
            yield from inbox.expect(ACK)
        yield from spu.mfc_get(size=chunk_bytes, tag=0)
        yield from spu.wait_tags([0])
        if compute_cycles:
            yield spu.compute(compute_cycles)
        yield next_runtime.mailbox.inbound.write(_token(READY, chunk))
    for _ in range(min(WINDOW, n_chunks)):
        yield from inbox.expect(ACK)
    out["start"] = start
    out["end"] = spu.read_decrementer()


def _middle_stage(
    spu, prev_spe, prev_runtime, next_runtime, out, chunk_bytes, n_chunks, compute_cycles
):
    """Interior stage: pull from upstream LS, pass downstream."""
    inbox = _Inbox(spu)
    start = spu.read_decrementer()
    for chunk in range(n_chunks):
        yield from inbox.expect(READY)
        yield from spu.mfc_get(size=chunk_bytes, tag=0, remote_spe=prev_spe)
        yield from spu.wait_tags([0])
        yield prev_runtime.mailbox.inbound.write(_token(ACK, chunk))
        if compute_cycles:
            yield spu.compute(compute_cycles)
        if chunk >= WINDOW:
            yield from inbox.expect(ACK)
        yield next_runtime.mailbox.inbound.write(_token(READY, chunk))
    for _ in range(min(WINDOW, n_chunks)):
        yield from inbox.expect(ACK)
    out["start"] = start
    out["end"] = spu.read_decrementer()


def _sink_stage(
    spu, prev_spe, prev_runtime, out, chunk_bytes, n_chunks, compute_cycles
):
    """Tail: pull from upstream, write results to main memory."""
    inbox = _Inbox(spu)
    start = spu.read_decrementer()
    for chunk in range(n_chunks):
        yield from inbox.expect(READY)
        yield from spu.mfc_get(size=chunk_bytes, tag=0, remote_spe=prev_spe)
        yield from spu.wait_tags([0])
        yield prev_runtime.mailbox.inbound.write(_token(ACK, chunk))
        if compute_cycles:
            yield spu.compute(compute_cycles)
        yield from spu.mfc_put(size=chunk_bytes, tag=1)
    yield from spu.wait_tags([1])
    out["start"] = start
    out["end"] = spu.read_decrementer()


def build_pipeline(
    chip: CellChip,
    logical_indices: Sequence[int],
    chunk_bytes: int,
    n_chunks: int,
    compute_cycles: int = 0,
) -> list[dict]:
    """Wire a pull pipeline over the given SPEs; returns the per-stage
    timing dicts (filled once the chip runs).  The sink's ``bytes`` is
    the data the stream writes back; every other stage's is zero."""
    if len(logical_indices) < 2:
        raise ConfigError("a pipeline needs at least a source and a sink")
    contexts = [SpeContext(chip, logical) for logical in logical_indices]
    outs: list[dict] = [{"bytes": 0} for _ in contexts]
    outs[-1]["bytes"] = chunk_bytes * n_chunks
    last = len(contexts) - 1
    for position, context in enumerate(contexts):
        if position == 0:
            context.load(
                _source_stage,
                contexts[1].runtime,
                outs[0],
                chunk_bytes,
                n_chunks,
                compute_cycles,
            )
        elif position == last:
            context.load(
                _sink_stage,
                contexts[position - 1].spe,
                contexts[position - 1].runtime,
                outs[position],
                chunk_bytes,
                n_chunks,
                compute_cycles,
            )
        else:
            context.load(
                _middle_stage,
                contexts[position - 1].spe,
                contexts[position - 1].runtime,
                contexts[position + 1].runtime,
                outs[position],
                chunk_bytes,
                n_chunks,
                compute_cycles,
            )
    return outs


def streaming_pipelines(
    chip: CellChip,
    pipelines: Sequence[Sequence[int]],
    chunk_bytes: int,
    chunks_each: int,
    compute_cycles: int,
) -> list[dict]:
    """The :class:`~repro.core.experiment.ProgramSpec` program: one pull
    pipeline per entry of ``pipelines`` (logical SPE indices), each
    streaming ``chunks_each`` chunks; returns every stage's dict."""
    outs: list[dict] = []
    for pipeline in pipelines:
        outs.extend(
            build_pipeline(chip, pipeline, chunk_bytes, chunks_each, compute_cycles)
        )
    return outs


@dataclass(frozen=True)
class StreamingResult:
    """Throughput of one pipeline configuration."""

    label: str
    n_pipelines: int
    spes_per_pipeline: int
    total_bytes: int
    cycles: int
    gbps: float


class StreamingComparison:
    """One 8-SPE stream versus two 4-SPE streams over the same data.

    :attr:`CONFIGURATIONS` maps each result key to its label and its
    pipelines (tuples of logical SPE indices).

    ``executor`` (duck-typed: :class:`~repro.runtime.parallel.SweepExecutor`)
    serves each configuration's :class:`~repro.core.experiment.ProgramSpec`
    from its journal or result cache when it can; ``None`` simulates both
    inline.  The results are identical either way.
    """

    CONFIGURATIONS = {
        "single": ("one 8-SPE stream", (tuple(range(8)),)),
        "double": ("two 4-SPE streams", ((0, 1, 2, 3), (4, 5, 6, 7))),
    }

    def __init__(
        self,
        config: CellConfig | None = None,
        chunk_bytes: int = 16384,
        chunks_per_stream_unit: int = 64,
        compute_cycles: int = 0,
        seed: int = 1234,
        executor=None,
    ):
        self.config = config or CellConfig.paper_blade()
        self.chunk_bytes = chunk_bytes
        self.chunks = chunks_per_stream_unit
        self.compute_cycles = compute_cycles
        self.seed = seed
        self.executor = executor

    def spec(self, pipelines: Sequence[Sequence[int]]) -> ProgramSpec:
        """The run of one configuration, as a picklable spec."""
        total_chunks = self.chunks * sum(len(pipeline) for pipeline in pipelines)
        args = {
            "pipelines": tuple(tuple(pipeline) for pipeline in pipelines),
            "chunk_bytes": self.chunk_bytes,
            "chunks_each": total_chunks // len(pipelines),
            "compute_cycles": self.compute_cycles,
        }
        return ProgramSpec(
            program=streaming_pipelines,
            args=tuple(sorted(args.items())),
            config=self.config,
            seed=self.seed,
        )

    def _run(self, label: str, pipelines: Sequence[Sequence[int]]) -> StreamingResult:
        spec = self.spec(pipelines)
        sample = (
            run_program_spec(spec) if self.executor is None
            else self.executor.program_sample(spec)
        )
        return StreamingResult(
            label=label,
            n_pipelines=len(pipelines),
            spes_per_pipeline=len(pipelines[0]),
            total_bytes=sample.nbytes,
            cycles=sample.cycles,
            gbps=sample.gbps,
        )

    def run(self) -> dict[str, StreamingResult]:
        """Both configurations, same total data volume."""
        return {
            key: self._run(label, pipelines)
            for key, (label, pipelines) in self.CONFIGURATIONS.items()
        }
