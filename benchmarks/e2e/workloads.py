"""The four workloads of the end-to-end benchmark and their oracle.

Imported only by the child process ``bench_e2e.py`` starts for each
workload, and timed as part of that child's set-up (the import of
``repro.reproduce`` is what a user pays on every ``reproduce`` run).

Every workload has the same shape: a *cold* pass that simulates each of
its specs, and two *serving* passes over the same specs, one answered
from a warm :class:`~repro.core.cache.ResultCache` and one replayed
from a :class:`~repro.runtime.journal.SweepJournal`.  The DES
workloads (``storm``, ``ff-stream``, ``showcase-ref``) call
:func:`~repro.core.experiment.run_spec_report` directly in the cold
pass, bypassing every tier, and fill the tiers afterwards; ``quick``
runs :func:`repro.reproduce.run_all` end to end for every pass.

Everything runs in this one process: a spec's latency is measured
around the call that simulates it, and the modelled counters of every
chip are read in place.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import random
import resource
import statistics
from collections import defaultdict
from time import perf_counter

import repro.core.experiment as experiment
import repro.core.validation as validation
import repro.reproduce as reproduce
from repro.analysis.streaming import StreamingComparison
from repro.analysis.surrogate import SurrogateModel
from repro.analysis.surrogate_store import training_specs
from repro.cell.config import CellConfig
from repro.core.cache import ResultCache, encode_sample
from repro.core.experiment import RunSpec
from repro.core.kernels import DmaWorkload
from repro.runtime.journal import SweepJournal
from repro.runtime.parallel import SweepExecutor
from repro.runtime.resilience import HostRetryPolicy

from calibrate import PROBE_REF_S, Calibrator, calibrated, timing
from tracing import ChipCounters, Tracer, disagreement, fold_profile, modelled

DEFAULT_SEED = 1000

#: Every ORACLE_EVERY-th simulated spec is re-run on the other engine.
ORACLE_EVERY = 10

#: Specs per DES workload pass at each ``--scale``: ~2.5 s passes on
#: the reference host, so a run holds several.
SCALES = {
    "full": {"storm": 40, "ff-stream": 115, "showcase-ref": 40},
    "smoke": {"storm": 4, "ff-stream": 23, "showcase-ref": 4},
}

#: SHA-256 of the canonical sample list of each workload at
#: ``--seed 1000 --scale full``.  Simulated statistics are deterministic,
#: so any change here is a change to the model, not to its speed.
DIGESTS = {
    "storm": "fee544c17dd9ceda981b17871c547c09a424f58a10582a535742c15ccc6f414e",
    "ff-stream": "d0441856a32f246f413749c31a6c1c701eb352886f9f6e79584145e27f5783cc",
    "showcase-ref": "fff5f3758b00d71c641d3645bb212246f9bae19a52da0baeb03e0bb8a460c306",
    "quick": "c9597c7f234249e1b6ef7f402e0d7ae36a7aa5196da3c582c7e6be8ea8e47b22",
}

#: The periodic streams ``ff-stream`` draws from: (SPE count, direction,
#: element bytes, sync cadence).  Every cell warps, or bails, whatever
#: the placement: cells whose outcome flips with it (2 SPEs at 4 KiB,
#: PUT at 16 KiB without sync) made a pass's cost swing by 15% from seed
#: to seed.  Listing each bailing cell twice makes 35% of specs bail, so
#: p50 falls inside the cheap warping cluster and p75 inside the
#: uniform bailing one, never on the gap between them.
FF_WARPING = [
    (1, direction, element_bytes, sync_every)
    for direction in ("get", "put")
    for element_bytes in (1024, 4096, 16384)
    for sync_every in (None, 16)
] + [(2, "get", 16384, None), (2, "get", 16384, 16), (2, "put", 16384, 16)]
FF_BAILING = [
    (2, direction, 1024, sync_every)
    for direction in ("get", "put")
    for sync_every in (None, 16)
]
FF_GRID = FF_WARPING + 2 * FF_BAILING

#: Set-up's warm-up spec: the same for every seed, and outside the quick
#: sweep, so no cold pass can find it in a store.
WARMUP_SPEC = RunSpec(
    config=CellConfig.paper_blade(), seed=7,
    assignments=((0, DmaWorkload(direction="get", element_bytes=4096, n_elements=32)),),
)


def _placement_seeds(seed: int, n: int) -> list[int]:
    return random.Random(seed).sample(range(1, 1 << 24), n)


def storm_specs(seed: int, n: int) -> list[RunSpec]:
    """All 8 SPEs copy 4 KiB x 256 against memory: the DES at saturation."""
    config = CellConfig.paper_blade()
    workload = DmaWorkload(direction="copy", element_bytes=4096, n_elements=256)
    assignments = tuple((logical, workload) for logical in range(config.n_spes))
    return [
        RunSpec(config=config, seed=placement, assignments=assignments)
        for placement in _placement_seeds(seed, n)
    ]


def ff_stream_specs(seed: int, n: int) -> list[RunSpec]:
    """Periodic 1- or 2-SPE streams of 2048 elements, the shapes the
    steady-state fast-forward warps over (or bails on)."""
    config = CellConfig.paper_blade()
    rng = random.Random(seed)
    cells = [FF_GRID[index % len(FF_GRID)] for index in range(n)]
    rng.shuffle(cells)
    specs = []
    for (n_spes, direction, element_bytes, sync_every), placement in zip(
        cells, _placement_seeds(rng.randrange(1 << 30), n)
    ):
        workload = DmaWorkload(
            direction=direction, element_bytes=element_bytes,
            n_elements=2048, sync_every=sync_every,
        )
        specs.append(RunSpec(
            config=config, seed=placement,
            assignments=tuple((logical, workload) for logical in range(n_spes)),
        ))
    return specs


def showcase_specs(seed: int, n: int) -> list[RunSpec]:
    """The ``reproduce --trace`` mix: SPEs 0-3 GET from memory, 4->5 and
    6->7 are copy couples, 4 KiB x 128 — EIB ring-conflict arbitration."""
    config = CellConfig.paper_blade()
    assignments = tuple(
        [(logical, DmaWorkload(direction="get", element_bytes=4096, n_elements=128))
         for logical in range(4)]
        + [(a, DmaWorkload(direction="copy", element_bytes=4096, n_elements=128,
                           partner_logical=b))
           for a, b in ((4, 5), (6, 7))]
    )
    return [
        RunSpec(config=config, seed=placement, assignments=assignments)
        for placement in _placement_seeds(seed, n)
    ]


def sample_digest(samples) -> str:
    blob = json.dumps(
        [encode_sample(sample) for sample in samples],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def csv_digest(outdir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            digest.update(name.encode())
            with open(os.path.join(outdir, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Ledger:
    """What one run measured, and everything it found wrong.

    ``passes`` maps a pass kind to its ``(raw_s, probe_s)`` records;
    ``spec_ms`` maps the position of a simulated spec within the cold
    pass to its calibrated latency in every cold pass.  ``failed``
    counts specs that raised or disagreed with the oracle;
    ``problems`` describes them and any run-level failure (a digest, a
    claim, a report byte)."""

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        self.passes: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.spec_ms: dict[int, list[float]] = defaultdict(list)
        self.rest_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.advisory: dict[str, int] = defaultdict(int)

    def problem(self, text: str, specs: int = 0) -> None:
        self.failed += specs
        if len(self.problems) < 20:
            self.problems.append(text)

    def timed(self, kind: str, fn):
        """Run ``fn`` as one pass of ``kind``; probes taken inside it
        (through ``calibrator.tick``) are not counted in its time."""
        calibrator = self.calibrator
        calibrator.begin_pass()
        begin = perf_counter()
        result = fn()
        wall = perf_counter() - begin
        self.passes[kind].append(calibrator.end_pass(wall - calibrator.probing_s))
        return result

    def add_latencies(self, raw_s: list[float]) -> None:
        """Per-spec seconds of the latest cold pass, calibrated by it;
        the rest of the pass (reports, stores, claims) is kept apart."""
        pass_raw, probe = self.passes["sweep"][-1]
        scale = PROBE_REF_S / probe
        for position, value in enumerate(raw_s):
            self.spec_ms[position].append(1e3 * value * scale)
        self.rest_s.append((pass_raw - sum(raw_s)) * scale)

    def spec_medians(self) -> list[float]:
        """Each spec's median latency over the cold passes: a host
        hiccup must hit the same spec in most passes to show."""
        return [statistics.median(values) for _, values in sorted(self.spec_ms.items())]

    def sweep_s(self) -> float:
        """A cold pass with host transients removed: every spec's median
        latency plus the median of the rest of the pass."""
        return sum(self.spec_medians()) / 1e3 + statistics.median(self.rest_s)

    def oracle(self, cases: dict, engine: str, counters: ChipCounters, label: str) -> None:
        """Re-run each ``position -> (spec, sample, counters)`` case on
        the engine other than ``engine``: the sample and the required
        counters must agree; advisory counters that differ are tallied."""
        other = "reference" if engine == "fast" else "fast"
        with counters.capture():
            for position, (spec, sample, counts) in sorted(cases.items()):
                again = experiment.run_spec_report(spec, other).sample
                required, advisory = disagreement(counts, modelled(counters.last))
                if again != sample or required:
                    self.problem(
                        f"{label} spec {position}: {other} engine disagrees on "
                        f"{required or 'the sample'}", specs=1,
                    )
                for name in advisory:
                    self.advisory[name] += 1
        self.attempted += len(cases)


class DesWorkload:
    """A list of specs simulated one by one on one engine."""

    serve_rounds = 10

    def __init__(self, name: str, specs: list[RunSpec], engine: str, work: str):
        self.name = name
        self.specs = specs
        self.engine = engine
        self.cache_dir = os.path.join(work, "cache")
        self.journal_path = os.path.join(work, "journal.jsonl")
        self.truth: list | None = None
        self.counters = ChipCounters()
        self.cases: dict[int, tuple] = {}

    def setup(self) -> None:
        experiment.run_spec_report(WARMUP_SPEC, self.engine)

    def close(self) -> None:
        pass

    def cold(self, ledger: Ledger) -> None:
        calibrator = ledger.calibrator
        calibrator.begin_pass()
        latencies: list[float] = []
        samples = []
        with self.counters.capture():
            for index, spec in enumerate(self.specs):
                begin = perf_counter()
                try:
                    sample = experiment.run_spec_report(spec, self.engine).sample
                except Exception as error:  # a failing spec is counted, not fatal
                    ledger.problem(f"spec {index}: {type(error).__name__}: {error}", specs=1)
                    sample = None
                elapsed = perf_counter() - begin
                samples.append(sample)
                latencies.append(elapsed)
                if sample is not None and index % ORACLE_EVERY == 0:
                    self.cases[index] = (spec, sample, modelled(self.counters.last))
                calibrator.tick(elapsed)
        ledger.attempted += len(self.specs)
        ledger.passes["sweep"].append(calibrator.end_pass(sum(latencies)))
        ledger.add_latencies(latencies)
        if self.truth is None:
            self.truth = samples
            self._fill_tiers()
        else:
            self._check(samples, ledger, "cold pass")

    def _fill_tiers(self) -> None:
        cache = ResultCache(self.cache_dir)
        with SweepJournal(self.journal_path, fsync=False) as journal:
            for spec, sample in zip(self.specs, self.truth):
                if sample is not None:
                    cache.put(spec, sample)
                    journal.record(spec, sample)

    def _check(self, samples, ledger: Ledger, where: str) -> None:
        wrong = sum(a != b for a, b in zip(samples, self.truth))
        if wrong:
            ledger.problem(f"{self.name} {where}: {wrong} sample(s) differ", specs=wrong)

    def _serve(self, ledger: Ledger, kind: str, cache: bool = False, journal: bool = False) -> None:
        def serve():
            store = SweepJournal(self.journal_path) if journal else None
            with SweepExecutor(
                jobs=1, engine=self.engine, journal=store,
                cache=ResultCache(self.cache_dir) if cache else None,
            ) as executor:
                samples = executor.samples(self.specs)
            if store is not None:
                store.close()
            return samples, executor.simulated

        samples, simulated = ledger.timed(kind, serve)
        ledger.attempted += len(self.specs)
        if simulated:
            ledger.problem(f"{self.name} {kind} pass simulated {simulated} spec(s)")
        self._check(samples, ledger, f"{kind} pass")

    def warm(self, ledger: Ledger) -> None:
        self._serve(ledger, "warm", cache=True)

    def resume(self, ledger: Ledger) -> None:
        self._serve(ledger, "resume", journal=True)

    def oracle(self, ledger: Ledger) -> None:
        ledger.oracle(self.cases, self.engine, self.counters, self.name)


class QuickWorkload:
    """``reproduce --quick`` end to end through :func:`run_all`, on a
    serial fast-engine executor (``jobs=1``: a single-core probe can
    calibrate it, and every spec runs where it is timed)."""

    serve_rounds = 2
    engine = "fast"

    def __init__(self, work: str):
        self.work = work
        self.specs: list[RunSpec] = []
        self.executor: SweepExecutor | None = None
        self.last_cold = ""
        self.truth: list | None = None
        self.csv: str | None = None
        self.claims_passed: int | None = None
        self.counters = ChipCounters()
        self.cases: dict[int, tuple] = {}
        self.model: SurrogateModel | None = None
        self._latencies: list[float] = []
        self._calibrator: Calibrator | None = None

    def _simulate(self, spec: RunSpec):
        """The executor's ``target``: one timed repetition, recorded as
        an oracle case when its position comes up; the cold pass's
        calibration probes run between repetitions."""
        begin = perf_counter()
        report = experiment.run_spec_report(spec, self.engine)
        elapsed = perf_counter() - begin
        position = len(self._latencies)
        self._latencies.append(elapsed)
        if position % ORACLE_EVERY == 0 and position not in self.cases:
            self.cases[position] = (spec, report.sample, modelled(self.counters.last))
        if self._calibrator is not None:
            self._calibrator.tick(elapsed)
        return report

    def setup(self) -> None:
        self.specs = training_specs("quick")
        # Opening a cache hashes every package source (the code version).
        ResultCache(os.path.join(self.work, "cache-open"))
        self.executor = SweepExecutor(
            jobs=1, engine=self.engine, target=self._simulate,
            policy=HostRetryPolicy(retries=0), partial_results=True,
        )
        with self.counters.capture():
            self.executor.samples([WARMUP_SPEC])
        self._latencies = []
        self.cases = {}

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def _run_all(self, ledger: Ledger, kind: str, outdir: str,
                 cache: str | None = None, journal: str | None = None):
        """One timed ``run_all`` with the given tiers attached; checks
        claims and, except for surrogate-served passes, report bytes."""
        executor = self.executor
        failures = len(executor.failures)

        def sweep():
            executor.journal = SweepJournal(journal) if journal else None
            executor.cache = ResultCache(cache) if cache else None
            try:
                return reproduce.run_all("quick", outdir, executor=executor)
            finally:
                if executor.journal is not None:
                    executor.journal.close()
                executor.journal = executor.cache = None

        checks = ledger.timed(kind, sweep)
        ledger.attempted += len(self.specs)
        lost = len(executor.failures) - failures
        if lost:
            ledger.problem(f"quick {kind} pass: {lost} repetition(s) failed", specs=lost)
        passed = sum(check.passed for check in checks)
        self.claims_passed = passed if self.claims_passed is None else min(passed, self.claims_passed)
        if passed != 32 or len(checks) != 32:
            ledger.problem(f"quick {kind} pass: {passed}/{len(checks)} claims passed")
        if kind == "surrogate":
            return  # predicted samples: reports are close, not identical
        digest = csv_digest(outdir)
        if self.csv is None:
            self.csv = digest
        elif digest != self.csv:
            ledger.problem(f"quick {kind} pass: report CSVs differ from the first cold pass")

    def cold(self, ledger: Ledger) -> None:
        root = os.path.join(self.work, f"cold-{len(ledger.passes['sweep'])}")
        self._latencies = []
        self._calibrator = ledger.calibrator
        try:
            with self.counters.capture():
                self._run_all(
                    ledger, "sweep", os.path.join(root, "out"),
                    cache=os.path.join(root, "cache"),
                    journal=os.path.join(root, "journal.jsonl"),
                )
        finally:
            self._calibrator = None
        self.last_cold = root
        if ledger.spec_ms and len(self._latencies) != len(ledger.spec_ms):
            ledger.problem(
                f"quick cold pass simulated {len(self._latencies)} specs, "
                f"the first simulated {len(ledger.spec_ms)}"
            )
        ledger.add_latencies(self._latencies)

    def warm(self, ledger: Ledger) -> None:
        simulated = self.executor.simulated
        self._run_all(ledger, "warm", os.path.join(self.work, "warm-out"),
                      cache=os.path.join(self.last_cold, "cache"))
        if self.executor.simulated != simulated:
            ledger.problem("quick warm pass simulated specs the cache should hold")

    def resume(self, ledger: Ledger) -> None:
        hits = self.executor.journal_hits
        self._run_all(ledger, "resume", os.path.join(self.work, "resume-out"),
                      journal=os.path.join(self.last_cold, "journal.jsonl"))
        if self.executor.journal_hits - hits != len(self.specs):
            ledger.problem("quick resume pass did not replay every spec")

    def _cold_truth(self) -> list:
        cache = ResultCache(os.path.join(self.last_cold, "cache"))
        return [cache.get(spec) for spec in self.specs]

    def oracle(self, ledger: Ledger) -> None:
        self.truth = self._cold_truth()
        ledger.oracle(self.cases, self.engine, self.counters, "quick")

    def fit_surrogate(self, layers: dict) -> None:
        """Fit the surrogate on the cold truth; its fit time and its mean
        absolute percentage error over the specs it would serve."""
        truth = self._cold_truth()
        begin = perf_counter()
        self.model = SurrogateModel.fit(self.specs, truth)
        layers["surrogate.fit_s"] = perf_counter() - begin
        errors = []
        for spec, sample in zip(self.specs, truth):
            predicted = self.model.predict(spec)
            if predicted is not None:
                errors.append(abs(predicted.cycles - sample.cycles) / sample.cycles)
        layers["surrogate.mape"] = statistics.fmean(errors) if errors else 0.0

    def surrogate(self, ledger: Ledger, layers: dict) -> None:
        """One ``run_all`` served by the fitted surrogate (out-of-domain
        specs simulate)."""
        executor = self.executor
        executor.surrogate = self.model
        hits, fallbacks = executor.surrogate_hits, executor.surrogate_fallbacks
        try:
            self._run_all(ledger, "surrogate", os.path.join(self.work, "surrogate-out"))
        finally:
            executor.surrogate = None
        hits = executor.surrogate_hits - hits
        fallbacks = executor.surrogate_fallbacks - fallbacks
        layers["surrogate.served_frac"] = hits / max(1, hits + fallbacks)
        layers["surrogate.pass_s"] = calibrated(ledger.passes["surrogate"][-1])


def make(name: str, seed: int, scale: str, work: str):
    if name == "quick":
        return QuickWorkload(work)
    n = SCALES[scale][name]
    if name == "storm":
        return DesWorkload(name, storm_specs(seed, n), "fast", work)
    if name == "ff-stream":
        return DesWorkload(name, ff_stream_specs(seed, n), "fast", work)
    if name == "showcase-ref":
        return DesWorkload(name, showcase_specs(seed, n), "reference", work)
    raise ValueError(f"unknown workload {name!r}")


def measure(workload, ledger: Ledger, seconds: float, min_cycles: int) -> None:
    """Cycles of one cold pass plus ``serve_rounds`` warm and resume
    passes, until ``seconds`` would be overrun (and at least
    ``min_cycles``); then the oracle."""
    start = perf_counter()
    cycles = 0
    while True:
        cycle_start = perf_counter()
        workload.cold(ledger)
        for _ in range(workload.serve_rounds):
            workload.warm(ledger)
            workload.resume(ledger)
        cycles += 1
        now = perf_counter()
        if cycles >= min_cycles and (now - start) + (now - cycle_start) > seconds:
            break
    ledger.peak_rss_mb = peak_rss_mb()  # the oracle's re-runs are not the workload
    workload.oracle(ledger)


#: Layer modules whose folded self-time share is reported.
SELF_FRAC_MODULES = (
    "sim.core", "sim.engine_fast", "sim.fastforward", "cell.eib",
    "cell.memory", "cell.mfc", "core.kernels", "libspe.context",
    "runtime.parallel", "core.cache", "runtime.journal",
    "analysis.surrogate", "analysis.streaming", "core.report",
    "core.validation",
)

#: Modules whose Python calls are reported per modelled event.
CALLS_PER_EVENT_MODULES = (
    "sim.core", "cell.eib", "cell.mfc", "core.kernels", "libspe.context",
)


def _install_spans(tracer: Tracer) -> None:
    # Probes taken between quick's specs run inside SweepExecutor.samples;
    # their own span keeps them out of its self time.
    tracer.wrap(Calibrator, "tick", "calibrate.tick")
    tracer.wrap(experiment, "run_spec_report")
    tracer.wrap(SweepExecutor, "samples", "SweepExecutor.samples")
    tracer.wrap(SweepExecutor, "run", "SweepExecutor.run")
    tracer.wrap(ResultCache, "get", "ResultCache.get", hit=True)
    tracer.wrap(ResultCache, "put", "ResultCache.put")
    tracer.wrap(SweepJournal, "get", "SweepJournal.get", hit=True)
    tracer.wrap(SweepJournal, "record", "SweepJournal.record")
    tracer.wrap(SurrogateModel, "predict", "SurrogateModel.predict", hit=True)
    tracer.wrap(StreamingComparison, "run", "StreamingComparison.run")
    tracer.wrap(reproduce, "run_all")
    tracer.wrap(reproduce, "to_csv", "report.to_csv")
    tracer.wrap(reproduce, "render_result", "report.render_result")
    for name in dir(validation):
        if name.startswith("check_"):
            tracer.wrap(validation, name, f"validation.{name}")


def measure_traced(workload, ledger: Ledger) -> dict:
    """One untraced and one traced cold pass, one traced pass of each
    serving tier, and the oracle; returns the per-layer metrics and the
    trace document.

    Only the traced cold pass runs under cProfile; spans cover every
    traced pass.  ``quick`` also fits the surrogate on the untraced
    cold truth and times one untraced surrogate pass.
    """
    layers: dict[str, float] = dict.fromkeys(
        ("surrogate.fit_s", "surrogate.mape", "surrogate.served_frac", "surrogate.pass_s"),
        0.0,
    )
    quick = isinstance(workload, QuickWorkload)
    workload.cold(ledger)
    untraced_s = ledger.passes["sweep"][-1][0]
    if quick:
        workload.fit_surrogate(layers)
        workload.surrogate(ledger, layers)
    tracer = Tracer()
    counters = ChipCounters(busy=True)
    profile = cProfile.Profile()
    _install_spans(tracer)
    try:
        with counters.capture():
            profile.enable()
            try:
                workload.cold(ledger)
            finally:
                profile.disable()
        traced_s = ledger.passes["sweep"][-1][0]
        workload.warm(ledger)
        workload.resume(ledger)
        if quick:
            workload.surrogate(ledger, {})
    finally:
        tracer.restore()
    ledger.peak_rss_mb = peak_rss_mb()
    # Bank occupancy is kept by the reference engine only: the fast
    # workloads take it from the oracle's reference re-runs.
    workload.counters.busy = True
    workload.oracle(ledger)

    fold = fold_profile(profile)
    totals = counters.totals
    popped = totals.get("engine.events_popped", 0)
    elided = totals.get("fastforward.events_elided", 0)
    events = popped + elided
    for module in SELF_FRAC_MODULES:
        layers[f"{module}.self_frac"] = fold.get(module, {}).get("self_frac", 0.0)
    for module in CALLS_PER_EVENT_MODULES:
        calls = fold.get(module, {}).get("calls", 0)
        layers[f"{module}.calls_per_event"] = calls / events if events else 0.0
    captures = totals.get("fastforward.captures", 0)
    warped = totals.get("fastforward.windows_warped", 0)
    grants = totals.get("eib.grants", 0)
    busy_cycles = sum(c.totals.get("memory.busy_cycles", 0) for c in (counters, workload.counters))
    bank_cycles = sum(c.totals.get("memory.bank_cycles", 0) for c in (counters, workload.counters))
    layers.update({
        "engine.events_popped": popped,
        "engine.events_modeled": events,
        "fastforward.captures": captures,
        "fastforward.windows_warped": warped,
        "fastforward.hit_frac": elided / events if events else 0.0,
        "fastforward.capture_yield": warped / captures if captures else 0.0,
        "eib.grants": grants,
        "eib.conflict_frac": totals.get("eib.conflicts", 0) / grants if grants else 0.0,
        "eib.wait_cycles": totals.get("eib.wait_cycles", 0),
        "eib.bytes_moved": totals.get("eib.bytes_moved", 0),
        "memory.commands_served": (
            totals.get("bank.local.commands", 0) + totals.get("bank.remote.commands", 0)
        ),
        "memory.busy_frac": busy_cycles / bank_cycles if bank_cycles else 0.0,
        "mfc.commands_completed": totals.get("mfc.commands_completed", 0),
        "trace.overhead": traced_s / untraced_s,
        "validation.claims_passed": (workload.claims_passed or 0) if quick else 0,
    })
    layers.update(_span_layers(tracer.summary(), workload))
    return {
        "layers": layers,
        "trace": {
            "spans": tracer.spans,
            "fold": fold,
            "counters": dict(totals),
            "overhead": {"untraced_s": untraced_s, "traced_s": traced_s},
        },
    }


def _span_layers(summary: dict[str, dict], workload) -> dict[str, float]:
    def row(name):
        return summary.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})

    def mean(name, scale):
        r = row(name)
        return scale * r["total_s"] / r["count"] if r["count"] else 0.0

    def hit_frac(name):
        r = row(name)
        return r["hits"] / r["count"] if r["count"] else 0.0

    sweeps = max(1, row("run_all")["count"])
    checks = sum(r["total_s"] for name, r in summary.items() if name.startswith("validation."))
    executor = getattr(workload, "executor", None)
    return {
        "executor.dispatch_s": row("SweepExecutor.samples")["self_s"],
        "executor.retried": executor.retried if executor else 0,
        "executor.failures": len(executor.failures) if executor else 0,
        "cache.get_ms": mean("ResultCache.get", 1e3),
        "cache.put_ms": mean("ResultCache.put", 1e3),
        "cache.hit_frac": hit_frac("ResultCache.get"),
        "journal.record_ms": mean("SweepJournal.record", 1e3),
        "journal.get_ms": mean("SweepJournal.get", 1e3),
        "journal.hit_frac": hit_frac("SweepJournal.get"),
        "surrogate.predict_us": mean("SurrogateModel.predict", 1e6),
        "streaming.s": mean("StreamingComparison.run", 1.0),
        "report.write_s": (
            row("report.to_csv")["total_s"] + row("report.render_result")["total_s"]
        ) / sweeps,
        "validation.s": checks / sweeps,
        "plan.s": row("SweepExecutor.run")["self_s"] / sweeps,
    }


def summarize(workload, ledger: Ledger, name: str, seed: int, scale: str) -> dict:
    """The child's result document: end-to-end values (all but
    ``setup_s``, which the parent reduces over its set-up children),
    correctness, and the digest check."""
    result = {
        "passes": ledger.passes,
        "spec_medians": ledger.spec_medians(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "oracle_advisory": dict(ledger.advisory),
        "claims_passed": getattr(workload, "claims_passed", None),
    }
    medians = result["spec_medians"]
    result["e2e"] = {
        "sweep_s": timing(ledger.passes["sweep"], ledger.sweep_s()),
        "spec_ms_p50": {"value": percentile(medians, 50), "n": len(medians)},
        "spec_ms_p75": {"value": percentile(medians, 75), "n": len(medians)},
        "warm_s": timing(ledger.passes["warm"]),
        "resume_s": timing(ledger.passes["resume"]),
        "peak_rss_mb": {"value": ledger.peak_rss_mb},
    }
    truth = workload.truth
    digest = sample_digest(truth) if truth and None not in truth else None
    expected = DIGESTS.get(name) if seed == DEFAULT_SEED and scale == "full" else None
    result["digest"] = {"value": digest, "expected": expected or None}
    if expected and digest != expected:
        ledger.problem(f"{name}: sample digest {digest} != stored {expected}")
    result["problems"] = ledger.problems
    return result


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
