"""Parallel sweep execution: supervised fan-out of independent repetitions.

The paper's protocol repeats every bandwidth experiment with a fresh
machine and a new random SPE placement per repetition, so a sweep is a
large set of *independent* simulations.  :class:`SweepExecutor` runs
them through a ``multiprocessing`` pool while keeping the results
deterministic and bit-identical to the serial path:

* every repetition is a picklable :class:`~repro.core.experiment.RunSpec`
  value, and :func:`~repro.core.experiment.run_spec` is a pure function
  of it — same spec, same sample, whichever process runs it (this
  purity is also what makes re-dispatch after a crash safe);
* results are merged back in **submission order**, so each sweep cell
  reduces over exactly the same sample sequence as a serial run, and
  report CSVs come out byte-identical for any ``--jobs`` value;
* workers build their own simulation environments, so tracing and fault
  injection never leak into a fanned-out repetition (worker isolation);
* a :class:`~repro.core.cache.ResultCache` can be attached: cache hits
  are served in the parent without touching the pool, misses are
  simulated and then written back;
* a :class:`~repro.runtime.journal.SweepJournal` can be attached:
  every completed repetition is appended to it the moment its sample
  exists, and journalled repetitions are replayed on a later run — the
  crash-safe ``--resume`` story;
* a fitted :class:`~repro.analysis.surrogate.SurrogateModel` can be
  attached (:attr:`SweepExecutor.surrogate`): repetitions inside its
  validated domain are answered analytically in O(1) — after the
  journal and cache, before any simulation — while out-of-domain
  repetitions simulate and feed their truth back into the model's
  training set.  Predicted samples are never written to the cache or
  the journal, so both stores stay pure simulator truth;
* a :class:`~repro.core.experiment.ProgramSpec` (one run of a libspe
  program, such as the streaming comparison's) is served by
  :meth:`SweepExecutor.program_sample`: journal, then cache, then a
  simulation in this process — never the surrogate or the pool.

With ``jobs=1`` no pool is created and repetitions run inline — the
historical serial path, used as the determinism oracle by the tests.

Supervision (all off / inert by default — a healthy default run is
byte-identical to the historical one): instead of one ``Pool.map``
whose first casualty kills the whole sweep, each repetition is
dispatched with ``apply_async`` and harvested under a
:class:`~repro.runtime.resilience.HostRetryPolicy`:

* **lost workers** (SIGKILL, OOM) are detected by watching the pool's
  worker pids while waiting; the victim repetitions are re-dispatched
  to a rebuilt pool, within ``policy.retries``;
* **hung workers** are caught by ``policy.timeout_s`` (wall-clock,
  backed off per retry); the pool is torn down — which clears the hung
  process — and the repetition retried;
* **worker exceptions** are retried without a pool rebuild; if every
  attempt fails with an exception, the original exception is re-raised
  (the historical surface);
* with ``partial_results=True`` an exhausted repetition becomes a
  ``None`` hole plus a :class:`~repro.runtime.resilience.SpecFailure`
  in :attr:`SweepExecutor.failures` instead of an exception, and
  :meth:`SweepExecutor.run` reduces each cell over its surviving
  samples (cells with none are dropped and noted) — a 95%-done sweep
  returns its 95%;
* either way, completed repetitions are journalled/cached *before* any
  failure is raised, so nothing finished is ever lost.

``maxtasksperchild`` is forwarded to the pool: recycling workers every
N repetitions bounds the blast radius of leaks in long sweeps (worker
replacement looks like a pid change, so detection tolerates it — a
false positive costs one redundant, idempotent re-run).

Deferred execution: an experiment's ``run()`` builds its sweep cell by
cell, each cell asking for its repetitions' statistics mid-loop.  To
let one pool chew on the *whole* sweep instead of barrier-synchronising
per cell (a cell has only a handful of repetitions — nowhere near
enough to keep N workers busy), :meth:`SweepExecutor.stats` returns a
lightweight :class:`DeferredStats` placeholder when a pool is in play;
:meth:`SweepExecutor.run` resolves every placeholder in the result's
tables after ``run()`` returns, in one ordered fan-out over all
collected repetitions.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections.abc import Callable, Sequence

from repro.core.experiment import (
    EngineReport,
    Experiment,
    ExperimentResult,
    ProgramSpec,
    RunSpec,
    run_program_spec,
    run_spec_report,
)
from repro.core.results import BandwidthSample, BandwidthStats
from repro.runtime.journal import SweepJournal
from repro.runtime.resilience import (
    HostRetryPolicy,
    SpecFailure,
    SweepError,
    SweepFailureReport,
)
from repro.sim.engine_fast import ENGINES

#: How often a harvesting wait wakes up to check for lost workers.
_POLL_S = 0.1

#: Wall-clock budget for draining already-submitted work from a
#: condemned pool before it is terminated.
_DRAIN_S = 5.0


def default_jobs() -> int:
    """The default worker count: every core the host offers."""
    return os.cpu_count() or 1


class _HarvestTimeout(Exception):
    """One repetition produced no result within its policy timeout."""


class _WorkerLost(Exception):
    """Pool worker pids changed while a result was pending."""


class DeferredStats:
    """Placeholder for a cell's statistics, resolved after the sweep.

    Holds the slice of the executor's pending-spec list that belongs to
    one sweep cell.  An experiment must not read through it during
    ``run()`` (none of the experiments do — cells are only written into
    tables); :meth:`SweepExecutor.run` replaces every placeholder with
    the real :class:`~repro.core.results.BandwidthStats` before the
    result reaches reports or validation.
    """

    __slots__ = ("start", "count")

    def __init__(self, start: int, count: int):
        self.start = start
        self.count = count

    def __repr__(self) -> str:
        return f"<DeferredStats [{self.start}:{self.start + self.count}]>"


class SweepExecutor:
    """Runs repetitions serially, from cache/journal, or across a pool.

    ``jobs`` is the worker count (``None`` = one per CPU core).
    ``cache`` is an optional :class:`~repro.core.cache.ResultCache`.
    ``engine`` picks the simulation engine for every repetition this
    executor runs (``"reference"`` or ``"fast"``); both produce
    identical samples, so the cache is engine-agnostic.
    ``policy`` is the :class:`~repro.runtime.resilience.HostRetryPolicy`
    supervising pooled dispatch (default: retry crashes, never time
    out).  ``partial_results`` turns exhausted repetitions into
    structured failures instead of exceptions.  ``journal`` (a
    :class:`~repro.runtime.journal.SweepJournal` or a path) makes the
    sweep crash-safe and resumable.  ``maxtasksperchild`` recycles pool
    workers after that many repetitions.  ``target`` overrides the
    repetition callable — the chaos-test hook; it must be picklable and
    pure, like :func:`~repro.core.experiment.run_spec`.

    The executor owns at most one pool; :meth:`close` (or use as a
    context manager) tears it down.
    """

    def __init__(self, jobs: int | None = None, cache=None,
                 engine: str = "reference",
                 policy: HostRetryPolicy | None = None,
                 partial_results: bool = False,
                 journal: SweepJournal | str | None = None,
                 maxtasksperchild: int | None = None,
                 target: Callable[[RunSpec], BandwidthSample] | None = None):
        jobs = default_jobs() if jobs is None else jobs
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if maxtasksperchild is not None and (
            isinstance(maxtasksperchild, bool)
            or not isinstance(maxtasksperchild, int)
            or maxtasksperchild < 1
        ):
            raise ValueError(
                f"maxtasksperchild must be a positive integer or None, "
                f"got {maxtasksperchild!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.engine = engine
        self.policy = HostRetryPolicy() if policy is None else policy
        self.partial_results = partial_results
        self.maxtasksperchild = maxtasksperchild
        self._owns_journal = isinstance(journal, str)
        self.journal = SweepJournal(journal) if isinstance(journal, str) else journal
        if target is not None:
            self._run_spec = target
        else:
            # functools.partial keeps the callable picklable for the
            # pool.  The report variant carries the engine's event
            # accounting back with the sample; _harvest unwraps it.
            self._run_spec = (
                run_spec_report if engine == "reference"
                else functools.partial(run_spec_report, engine=engine)
            )
        #: Sweep repetitions simulated, replayed from the journal and
        #: served by the cache (program specs count in none of them).
        self.simulated = 0
        self.journal_hits = 0
        self.cache_hits = 0
        #: Program specs asked of :meth:`program_sample`, and how many of
        #: them neither store could serve.
        self.programs = 0
        self.programs_simulated = 0
        #: Event accounting aggregated over simulated repetitions
        #: (journal/cache/surrogate hits run no engine, so they add
        #: nothing here).
        self.events_popped = 0
        self.events_elided = 0
        self.windows_warped = 0
        self.retried = 0
        #: Optional :class:`~repro.analysis.surrogate.SurrogateModel`.
        #: When attached, in-domain repetitions are answered by the
        #: model (after journal/cache, before any simulation) and
        #: out-of-domain repetitions simulate as usual, feeding their
        #: samples back into the model's training set.
        self.surrogate = None
        self.surrogate_hits = 0
        self.surrogate_fallbacks = 0
        self.failures: list[SpecFailure] = []
        self._pending: list[RunSpec] = []
        self._pool = None
        self._pool_pids: set[int] | None = None

    # -- experiment-facing API -------------------------------------------------

    def stats(
        self, specs: Sequence[RunSpec]
    ) -> BandwidthStats | DeferredStats | None:
        """Statistics over one cell's repetitions.

        Serial (``jobs == 1``): runs (or cache-serves) the repetitions
        immediately, in seed order — byte-identical to the inline path.
        In ``partial_results`` mode the reduction covers the surviving
        samples; ``None`` is returned when every repetition failed
        (:meth:`run` drops such cells from the tables).
        Parallel: queues the specs and returns a :class:`DeferredStats`
        placeholder for :meth:`run` to resolve.
        """
        if self.jobs == 1:
            collected = [
                sample for sample in self.samples(list(specs))
                if sample is not None
            ]
            if not collected:
                return None
            return BandwidthStats.from_samples(collected)
        start = len(self._pending)
        self._pending.extend(specs)
        return DeferredStats(start, len(specs))

    def run(self, experiment: Experiment) -> ExperimentResult:
        """Run an experiment through this executor and resolve every
        deferred cell with one ordered fan-out over the whole sweep."""
        # The pending list must not outlive this call: if run() (or the
        # resolution fan-out) raises, leftover specs would shift the
        # start offsets of every DeferredStats a *later* experiment
        # queues on this executor, resolving its cells against the wrong
        # slice of samples.
        try:
            experiment.executor = self
            result = experiment.run()
            samples = self.samples(self._pending) if self._pending else []
            for name, table in result.tables.items():
                dead = []
                for key, cell in table.cells.items():
                    if isinstance(cell, DeferredStats):
                        collected = [
                            sample
                            for sample in samples[cell.start:cell.start + cell.count]
                            if sample is not None
                        ]
                        if collected:
                            table.cells[key] = BandwidthStats.from_samples(collected)
                        else:
                            dead.append(key)
                    elif cell is None:  # serial partial cell, all failed
                        dead.append(key)
                for key in dead:
                    del table.cells[key]
                    result.notes.append(
                        f"table {name!r} cell {key}: every repetition "
                        "failed; cell dropped (see failure report)"
                    )
        finally:
            self._pending = []
        return result

    @property
    def completed(self) -> int:
        """Sweep repetitions that produced a sample, whichever tier
        served them."""
        return (
            self.simulated + self.journal_hits + self.cache_hits
            + self.surrogate_hits
        )

    # -- execution -------------------------------------------------------------

    def samples(self, specs: list[RunSpec]) -> list[BandwidthSample | None]:
        """One sample per spec, in order: journal and cache hits served
        in-process, misses simulated (inline or across the pool) and
        written back to both stores.

        Completed repetitions are persisted before any failure
        propagates.  Holes (``None``) only appear in
        ``partial_results`` mode.
        """
        cache, journal, surrogate = self.cache, self.journal, self.surrogate
        out: list[BandwidthSample | None] = [None] * len(specs)
        misses: list[int] = []
        ckeys, jkeys = self._keys(specs)
        for index, spec in enumerate(specs):
            if journal is not None:
                sample = journal.get(spec, key=jkeys[index])
                if sample is not None:
                    self.journal_hits += 1
                    out[index] = sample
                    continue
            if cache is not None:
                sample = cache.get(spec, key=ckeys[index])
                if sample is not None:
                    self.cache_hits += 1
                    out[index] = sample
                    if journal is not None:
                        journal.record(spec, sample, key=jkeys[index])
                    continue
            if surrogate is not None:
                sample = surrogate.predict(spec)
                if sample is not None:
                    # Served from the fitted model.  Predicted samples
                    # are NEVER written to the cache or the journal:
                    # both stores hold simulator truth only, so a
                    # surrogate-off rerun stays byte-identical.
                    self.surrogate_hits += 1
                    out[index] = sample
                    continue
                self.surrogate_fallbacks += 1
            misses.append(index)
        if misses:
            work = [(index, specs[index]) for index in misses]
            if self.jobs > 1:
                results, failures = self._pooled(work)
            else:
                results, failures = self._inline(work)
            self.simulated += len(results)
            for index in misses:
                sample = results.get(index)
                if sample is None:
                    continue
                sample = self._harvest(sample)
                out[index] = sample
                if journal is not None:
                    journal.record(specs[index], sample, key=jkeys[index])
                if cache is not None:
                    cache.put(specs[index], sample, key=ckeys[index])
                if surrogate is not None:
                    # Out-of-domain fallback: the simulated truth grows
                    # the training set (served at the next refit).
                    surrogate.observe(specs[index], sample)
            if failures:
                self._conclude(failures, out, len(specs))
        return out

    def program_sample(self, spec: ProgramSpec) -> BandwidthSample:
        """One program run's sample: replayed from the journal, else
        served by the cache (and journalled), else simulated in this
        process and written to both stores.

        The surrogate and the ``target`` override never see a
        :class:`~repro.core.experiment.ProgramSpec` (both speak
        :class:`~repro.core.experiment.RunSpec`), and it counts in none
        of ``simulated``, ``journal_hits`` and ``cache_hits``; ``programs``
        and ``programs_simulated`` count it instead.
        """
        cache, journal = self.cache, self.journal
        self.programs += 1
        ckeys, jkeys = self._keys([spec])
        sample = journal.get(spec, key=jkeys[0]) if journal is not None else None
        if sample is not None:
            return sample
        sample = cache.get(spec, key=ckeys[0]) if cache is not None else None
        if sample is None:
            self.programs_simulated += 1
            sample = run_program_spec(spec)
            if cache is not None:
                cache.put(spec, sample, key=ckeys[0])
        if journal is not None:
            journal.record(spec, sample, key=jkeys[0])
        return sample

    def _keys(self, specs: Sequence) -> tuple[list[str], list[str]]:
        """Each spec's cache and journal key (empty lists for an absent
        store), computed once so a lookup and the put/record after a
        miss share it.  The journal shares the cache's key function, so
        one digest serves both whenever their code versions agree."""
        cache, journal = self.cache, self.journal
        ckeys = [cache.key(spec) for spec in specs] if cache is not None else []
        if journal is None:
            return ckeys, []
        if cache is not None and journal.code_version == cache.code_version:
            return ckeys, ckeys
        return ckeys, [journal.key(spec) for spec in specs]

    def _harvest(self, result):
        """Unwrap an :class:`~repro.core.experiment.EngineReport` into
        its sample, folding the event accounting into the executor's
        totals.  A ``target`` override may return bare samples — those
        pass through untouched."""
        if isinstance(result, EngineReport):
            self.events_popped += result.events_popped
            self.events_elided += result.events_elided
            self.windows_warped += result.windows_warped
            return result.sample
        return result

    def _conclude(self, failures: list[SpecFailure],
                  out: list[BandwidthSample | None], total: int) -> None:
        """Record or raise the round's failures (after persistence)."""
        if self.partial_results:
            self.failures.extend(failures)
            return
        errors = [failure.error for failure in failures
                  if failure.error is not None]
        if len(errors) == len(failures):
            # Every failure was a worker exception: re-raise the first
            # unchanged — the historical Pool.map surface.
            raise errors[0]
        raise SweepError(SweepFailureReport(
            failures=failures,
            total=total,
            completed=sum(sample is not None for sample in out),
        ))

    def _inline(self, work: list[tuple[int, RunSpec]]):
        """Serial execution with bounded retries (no pool, no timeout:
        a single process cannot preempt its own repetition)."""
        results: dict[int, BandwidthSample] = {}
        failures: list[SpecFailure] = []
        for index, spec in work:
            for attempt in range(self.policy.retries + 1):
                try:
                    results[index] = self._run_spec(spec)
                    break
                except Exception as error:
                    if attempt < self.policy.retries:
                        self.retried += 1
                        continue
                    failures.append(SpecFailure(
                        index=index, seed=spec.seed, attempts=attempt + 1,
                        cause=f"{type(error).__name__}: {error}", error=error,
                    ))
        return results, failures

    def _pooled(self, work: list[tuple[int, RunSpec]]):
        """Supervised per-spec dispatch over the pool.

        Each round submits everything still owed via ``apply_async``
        and harvests in submission order.  A hang or a lost worker
        condemns the round's pool: already-finished results are drained
        within a grace budget, the pool is terminated (clearing hung or
        half-dead workers), and the casualties are re-dispatched to a
        fresh pool — each spec at most ``policy.retries`` extra times.
        """
        results: dict[int, BandwidthSample] = {}
        failures: list[SpecFailure] = []
        queue = [(index, spec, 0) for index, spec in work]
        while queue:
            try:
                pool = self._ensure_pool()
                batch = [
                    (index, spec, attempt,
                     pool.apply_async(self._run_spec, (spec,)))
                    for index, spec, attempt in queue
                ]
            except Exception as error:
                # Broken-pool recovery: submission itself failed.
                self._discard_pool()
                retry: list = []
                for index, spec, attempt in queue:
                    self._fail_or_retry(
                        retry, failures, index, spec, attempt,
                        f"pool broken on submit: {type(error).__name__}: {error}",
                    )
                queue = retry
                continue
            retry = []
            condemned = False
            drain_deadline = 0.0
            for index, spec, attempt, handle in batch:
                if condemned:
                    # The pool is going down; salvage what already
                    # finished, re-dispatch the rest.
                    grace = max(0.0, drain_deadline - time.monotonic())
                    try:
                        results[index] = handle.get(grace)
                    except multiprocessing.TimeoutError:
                        self._fail_or_retry(
                            retry, failures, index, spec, attempt,
                            "abandoned with condemned pool",
                        )
                    except Exception as error:
                        self._fail_or_retry(
                            retry, failures, index, spec, attempt,
                            f"{type(error).__name__}: {error}", error=error,
                        )
                    continue
                timeout = self.policy.timeout_for(attempt)
                try:
                    results[index] = self._await(handle, timeout)
                except _HarvestTimeout:
                    condemned = True  # hung worker: only a rebuild clears it
                    drain_deadline = time.monotonic() + _DRAIN_S
                    self._fail_or_retry(
                        retry, failures, index, spec, attempt,
                        f"no result within {timeout:.1f}s",
                    )
                except _WorkerLost as lost:
                    condemned = True
                    drain_deadline = time.monotonic() + _DRAIN_S
                    self._fail_or_retry(
                        retry, failures, index, spec, attempt,
                        f"worker lost (pid(s) {lost})",
                    )
                except Exception as error:
                    # The worker raised: the pool itself is healthy.
                    self._fail_or_retry(
                        retry, failures, index, spec, attempt,
                        f"{type(error).__name__}: {error}", error=error,
                    )
            if condemned:
                self._discard_pool()
            queue = retry
        return results, failures

    def _fail_or_retry(self, retry: list, failures: list[SpecFailure],
                       index: int, spec: RunSpec, attempt: int, cause: str,
                       error: BaseException | None = None) -> None:
        if attempt < self.policy.retries:
            self.retried += 1
            retry.append((index, spec, attempt + 1))
            return
        failures.append(SpecFailure(
            index=index, seed=spec.seed, attempts=attempt + 1,
            cause=cause, error=error,
        ))

    def _await(self, handle, timeout: float | None) -> BandwidthSample:
        """Blocking harvest of one async result, waking every
        ``_POLL_S`` to check the deadline and the pool's worker pids."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _POLL_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise _HarvestTimeout
                wait = min(wait, remaining)
            try:
                return handle.get(wait)
            except multiprocessing.TimeoutError:
                lost = self._lost_workers()
                if lost:
                    raise _WorkerLost(", ".join(map(str, lost))) from None

    def _lost_workers(self) -> list[int]:
        """Worker pids that disappeared since the last check.

        Relies on the pool's internal worker list when available; a
        pool implementation without one simply has no fast detection
        (timeouts still apply).  The known-pid set is refreshed on
        every call, so one loss is reported exactly once.
        """
        procs = getattr(self._pool, "_pool", None)
        if not procs:
            return []
        alive = {proc.pid for proc in procs if proc.is_alive()}
        known, self._pool_pids = self._pool_pids, alive
        if known is None:
            return []
        return sorted(known - alive)

    def _ensure_pool(self):
        if self._pool is None:
            # Workers inherit nothing mutable from the parent: run_spec
            # rebuilds chip, environment, trace (NULL) and faults (NULL)
            # from the picklable spec alone.
            self._pool = multiprocessing.get_context().Pool(
                self.jobs, maxtasksperchild=self.maxtasksperchild
            )
            self._pool_pids = None
            self._lost_workers()  # prime the known-pid set
        return self._pool

    def _discard_pool(self) -> None:
        """Tear down a condemned pool (terminate clears hung workers)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_pids = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_pids = None
        if self.journal is not None and self._owns_journal:
            self.journal.close()

    def __enter__(self) -> SweepExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        parts = [f"jobs={self.jobs}", f"simulated={self.simulated}"]
        if self.events_popped or self.events_elided:
            events = (
                f"events: {self.events_popped + self.events_elided:,} "
                f"modeled / {self.events_popped:,} popped"
            )
            if self.events_elided:
                events += (
                    f" ({self.events_elided:,} fast-forwarded across "
                    f"{self.windows_warped} warp(s))"
                )
            parts.append(events)
        if self.programs:
            parts.append(
                f"programs: {self.programs - self.programs_simulated} served"
                f" / {self.programs_simulated} simulated"
            )
        if self.retried:
            parts.append(f"retried={self.retried}")
        if self.journal is not None:
            parts.append(f"journal: {self.journal_hits} replayed")
        if self.surrogate is not None:
            parts.append(
                f"surrogate: {self.surrogate_hits} served / "
                f"{self.surrogate_fallbacks} simulated fallback(s)"
            )
        if self.cache is not None:
            parts.append(f"cache: {self.cache.describe()}")
        if self.failures:
            parts.append(f"incomplete: {len(self.failures)} repetition(s) failed")
        return ", ".join(parts)
