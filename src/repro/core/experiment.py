"""Shared experiment protocol.

Every experiment follows the paper's section 3:

* a fresh machine per repetition, with a seeded random logical-to-
  physical SPE mapping (the API cannot choose or observe the placement,
  so the paper repeats each experiment ten times — we sweep seeds);
* a warm-up lap before the timed region (inside the kernels);
* weak scaling: each active SPE moves the same per-SPE volume;
* timing with the decrementer; bandwidth = total bytes over the wall
  interval from the first SPE's start to the last SPE's end;
* reduction to min/max/median/mean.

Volumes: the paper moves 32 MiB per SPE.  Sustained bandwidth in the
model is volume-invariant once a few commands are in flight (a test
asserts this), so experiments default to a smaller per-SPE volume with a
command-count clamp to keep small-element sweeps fast; ``paper_scale()``
restores 32 MiB.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field

from repro.cell.chip import CellChip
from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.cell.topology import SpeMapping
from repro.core.kernels import DmaWorkload, FastStreamKernel, dma_stream_kernel
from repro.core.results import BandwidthSample, BandwidthStats, SweepTable
from repro.libspe import SpeContext

#: Assignment of one workload to one logical SPE.
Assignment = tuple[int, DmaWorkload]


@functools.lru_cache(maxsize=256)
def json_text(value) -> str:
    """Canonical JSON text (sorted keys, no spaces) of a frozen config or
    workload, memoised per distinct value: a sweep shares one config and
    a few workloads across all its specs, and rendering them was most of
    a spec key's cost.  The text is immutable, so callers share nothing
    they could change.  Values that compare equal share one text."""
    return json.dumps(asdict(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """One repetition of one sweep cell, as a picklable value.

    Everything a worker process needs to reproduce the repetition:
    the machine, the seeded SPE placement, and each active SPE's
    workload.  :func:`run_spec` is a pure function of this value, which
    is what makes repetitions safe to fan out across processes
    (:mod:`repro.runtime.parallel`) and to cache persistently
    (:mod:`repro.core.cache`).
    """

    config: CellConfig
    seed: int
    assignments: tuple[Assignment, ...]
    unrolled: bool = True

    def canonical(self) -> dict:
        """Canonical JSON-able payload of this spec: the exact content
        the result cache and the sweep journal hash into a key (see
        :func:`repro.core.cache.spec_key`).  Field names and nesting are
        part of the on-disk cache format — changing them orphans every
        existing entry."""
        return {
            "config": asdict(self.config),
            "assignments": [
                [logical, asdict(workload)]
                for logical, workload in self.assignments
            ],
            "seed": self.seed,
            "unrolled": self.unrolled,
        }

    def canonical_json(self) -> dict[str, str]:
        """:meth:`canonical` with each field already rendered as
        canonical JSON text, the config and workloads through the
        memoised :func:`json_text`; the key is assembled from it."""
        assignments = ",".join(
            f"[{json.dumps(logical)},{json_text(workload)}]"
            for logical, workload in self.assignments
        )
        return {
            "config": json_text(self.config),
            "assignments": f"[{assignments}]",
            "seed": json.dumps(self.seed),
            "unrolled": json.dumps(self.unrolled),
        }


@dataclass(frozen=True)
class ProgramSpec:
    """One run of a libspe program on a fresh chip, as a picklable value.

    ``program`` is a module-level setup function ``(chip, **args) ->
    outs``: it loads SPU programs onto the chip and returns their
    timing dicts (``start``, ``end`` and ``bytes`` once the chip has
    run).  It pickles by qualified name, so no registry is needed.
    ``args`` are its keyword arguments as ``(name, value)`` pairs sorted
    by name, with JSON-able values.  :func:`run_program_spec` is a pure
    function of this value, which is what lets the sweep journal and
    the result cache serve it like a :class:`RunSpec`.
    """

    program: Callable[..., list[dict]]
    args: tuple[tuple[str, object], ...]
    config: CellConfig
    seed: int

    def __post_init__(self):
        if "<" in self.program.__qualname__:
            raise ConfigError(f"program {self.name} is not a module-level function")
        names = [name for name, _ in self.args]
        if names != sorted(set(names)):
            raise ConfigError(f"program args must be sorted by unique name, got {names}")

    @property
    def name(self) -> str:
        """The program's dotted name: its identity in the key."""
        return f"{self.program.__module__}.{self.program.__qualname__}"

    def canonical(self) -> dict:
        """Canonical JSON-able payload, hashed into the key like
        :meth:`RunSpec.canonical`.  No :class:`RunSpec` payload has a
        ``"program"`` field, so the two kinds never share a key."""
        return {
            "program": self.name,
            "args": dict(self.args),
            "config": asdict(self.config),
            "seed": self.seed,
        }

    def canonical_json(self) -> dict[str, str]:
        """:meth:`canonical` rendered field by field, as
        :meth:`RunSpec.canonical_json`."""
        return {
            "program": json.dumps(self.name),
            "args": json.dumps(dict(self.args), sort_keys=True, separators=(",", ":")),
            "config": json_text(self.config),
            "seed": json.dumps(self.seed),
        }


@dataclass(frozen=True)
class EngineReport:
    """One repetition's sample plus the engine's event accounting.

    ``events_popped`` counts heap pops the engine actually performed;
    ``events_elided`` counts pops the steady-state fast-forward skipped
    by warping whole periods (zero on the reference engine and on any
    run where no warp fired).  ``events_modeled`` — their sum — is the
    comparable work measure across engines: a warped run models the
    same periods it would otherwise have simulated.  Picklable, so pool
    workers can return it directly.
    """

    sample: BandwidthSample
    events_popped: int
    events_elided: int = 0
    windows_warped: int = 0
    cycles_warped: int = 0

    @property
    def events_modeled(self) -> int:
        return self.events_popped + self.events_elided


def run_spec(spec: RunSpec, engine: str = "reference") -> BandwidthSample:
    """Run one repetition on a fresh chip; the module-level entry point
    worker processes import by name.

    Workers build their own :class:`~repro.sim.Environment`, so tracing
    and fault injection are never active inside a fanned-out repetition
    (both attach at chip construction, and a spec carries neither).

    ``engine`` picks the execution engine; the returned sample is
    identical for every engine (the fast engine replays the reference
    heap schedule — see :mod:`repro.sim.engine_fast`), which is why the
    result cache keys on the spec alone.
    """
    return run_spec_report(spec, engine).sample


def run_spec_report(spec: RunSpec, engine: str = "reference") -> EngineReport:
    """:func:`run_spec` with the engine's event accounting attached."""
    if not spec.assignments:
        raise ConfigError("no SPE assignments")
    mapping = SpeMapping.random(spec.seed, spec.config.n_spes)
    chip = CellChip(config=spec.config, mapping=mapping, engine=engine)
    outs: list[dict] = []
    for logical, workload in spec.assignments:
        partner = (
            chip.spe(workload.partner_logical)
            if workload.partner_logical is not None
            else None
        )
        out: dict = {}
        if chip.engine == "fast":
            FastStreamKernel(
                chip.env, chip.spe(logical), workload, out,
                partner=partner, unrolled=spec.unrolled,
            )
        else:
            context = SpeContext(chip, logical, unrolled=spec.unrolled)
            context.load(dma_stream_kernel, workload, out, partner)
        outs.append(out)
    chip.run()
    sample = _sample(spec.config, spec.seed, outs)
    env = chip.env
    fastforward = getattr(env, "fastforward", None)
    if fastforward is None:
        return EngineReport(sample=sample, events_popped=env.events_popped)
    return EngineReport(
        sample=sample,
        events_popped=env.events_popped,
        events_elided=fastforward.events_elided,
        windows_warped=fastforward.windows_warped,
        cycles_warped=fastforward.cycles_warped,
    )


def run_program_spec(spec: ProgramSpec) -> BandwidthSample:
    """Run one program on a fresh reference-engine chip with the spec's
    seeded placement; the :class:`ProgramSpec` counterpart of
    :func:`run_spec`."""
    chip = CellChip(
        config=spec.config,
        mapping=SpeMapping.random(spec.seed, spec.config.n_spes),
    )
    outs = spec.program(chip, **dict(spec.args))
    chip.run()
    return _sample(spec.config, spec.seed, outs)


def _sample(config: CellConfig, seed: int, outs: list[dict]) -> BandwidthSample:
    """The paper's bandwidth of one run: every SPE's bytes over the wall
    interval from the first SPE's start to the last SPE's end."""
    total_bytes = sum(out["bytes"] for out in outs)
    elapsed = max(out["end"] for out in outs) - min(out["start"] for out in outs)
    return BandwidthSample(
        gbps=config.clock.gbps(total_bytes, elapsed),
        nbytes=total_bytes,
        cycles=elapsed,
        seed=seed,
    )


#: Fewest commands a timed region may contain (steady-state guarantee).
MIN_COMMANDS = 32

#: Most commands per run (keeps 128 B sweeps tractable).
MAX_COMMANDS = 2048

#: Default per-SPE volume (the paper uses 32 MiB; see module docstring).
DEFAULT_BYTES_PER_SPE = 2 * 2 ** 20

#: Paper volume.
PAPER_BYTES_PER_SPE = 32 * 2 ** 20

#: The element-size sweep of every DMA figure: 128 B .. 16 KiB.
DMA_ELEMENT_SIZES: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)


@dataclass
class ExperimentResult:
    """What an experiment hands to reports and validation."""

    name: str
    description: str
    tables: dict[str, SweepTable] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def table(self, name: str) -> SweepTable:
        if name not in self.tables:
            raise KeyError(
                f"experiment {self.name!r} has tables {sorted(self.tables)}, "
                f"not {name!r}"
            )
        return self.tables[name]


class Experiment:
    """Base class: machine + repetition policy + measurement helpers."""

    name = "abstract-experiment"
    description = ""

    def __init__(
        self,
        config: CellConfig | None = None,
        repetitions: int = 10,
        bytes_per_spe: int = DEFAULT_BYTES_PER_SPE,
        seed_base: int = 1000,
        unrolled: bool = True,
        executor=None,
    ):
        if repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
        if bytes_per_spe < 16384:
            raise ConfigError(
                f"bytes_per_spe below one maximum DMA command: {bytes_per_spe}"
            )
        self.config = config or CellConfig.paper_blade()
        self.repetitions = repetitions
        self.bytes_per_spe = bytes_per_spe
        self.seed_base = seed_base
        self.unrolled = unrolled
        # Optional repetition executor (duck-typed:
        # repro.runtime.parallel.SweepExecutor).  None = run every
        # repetition inline, exactly the historical serial path.
        self.executor = executor

    @classmethod
    def paper_scale(cls, **kwargs) -> Experiment:
        """The experiment at the paper's full 32 MiB per SPE."""
        kwargs.setdefault("bytes_per_spe", PAPER_BYTES_PER_SPE)
        return cls(**kwargs)

    # -- repetition / sizing policy -----------------------------------------------

    @property
    def seeds(self) -> list[int]:
        return [self.seed_base + i for i in range(self.repetitions)]

    def n_elements_for(self, element_bytes: int) -> int:
        """Commands per SPE for an element size: the per-SPE volume,
        clamped so tiny elements stay tractable and huge ones still
        produce a steady state."""
        if element_bytes <= 0:
            raise ConfigError(f"element of {element_bytes} bytes")
        wanted = self.bytes_per_spe // element_bytes
        return max(MIN_COMMANDS, min(MAX_COMMANDS, wanted))

    # -- measurement ---------------------------------------------------------------

    def spec_for(
        self, seed: int, assignments: Sequence[Assignment]
    ) -> RunSpec:
        """The picklable :class:`RunSpec` of one repetition."""
        return RunSpec(
            config=self.config,
            seed=seed,
            assignments=tuple(assignments),
            unrolled=self.unrolled,
        )

    def run_assignments(
        self,
        seed: int,
        assignments: Sequence[Assignment],
    ) -> BandwidthSample:
        """Run one repetition: each (logical SPE, workload) pair runs the
        stream kernel; returns the aggregate-bandwidth sample."""
        return run_spec(self.spec_for(seed, assignments))

    def stats_over_seeds(
        self, assignments_for_seed
    ) -> BandwidthStats:
        """Repeat a run over all seeds.  ``assignments_for_seed(seed)``
        returns the (logical, workload) list for one repetition.

        With an :attr:`executor` attached, the repetitions go through it
        instead of running inline: the executor may serve them from the
        persistent cache, fan them out over worker processes, or defer
        them until the whole sweep is planned — in which case the
        returned object is a placeholder the executor later replaces in
        every :class:`~repro.core.results.SweepTable`
        (:meth:`repro.runtime.parallel.SweepExecutor.run`).
        """
        specs = [
            self.spec_for(seed, assignments_for_seed(seed))
            for seed in self.seeds
        ]
        if self.executor is not None:
            return self.executor.stats(specs)
        return BandwidthStats.from_samples([run_spec(spec) for spec in specs])

    # -- the part subclasses implement ---------------------------------------------

    def run(self) -> ExperimentResult:
        raise NotImplementedError
