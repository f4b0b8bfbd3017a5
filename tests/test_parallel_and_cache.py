"""Tests for the parallel sweep executor and the persistent result cache.

The determinism contract under test: for any ``--jobs`` value, and for
any mix of cold and warm cache, a reproduction run must produce
byte-identical report files and the same validation verdicts as the
historical serial path.
"""

import hashlib
import json
import os
import pickle

import pytest

from repro import reproduce
from repro.analysis import streaming
from repro.analysis.streaming import StreamingComparison, streaming_pipelines
from repro.analysis.surrogate_store import training_specs
from repro.cell.config import CellConfig
from repro.cell.errors import ConfigError
from repro.core.cache import ResultCache, repro_code_version, spec_key
from repro.core.experiment import (
    ExperimentResult,
    ProgramSpec,
    RunSpec,
    run_spec,
)
from repro.core.kernels import DmaWorkload
from repro.core.results import BandwidthSample, BandwidthStats, SweepTable
from repro.runtime import parallel
from repro.runtime.parallel import DeferredStats, SweepExecutor, default_jobs


def make_spec(seed=1000, n_elements=16, element_bytes=16384, n_spes=2):
    workload = DmaWorkload(
        direction="get", element_bytes=element_bytes, n_elements=n_elements
    )
    return RunSpec(
        config=CellConfig.paper_blade(),
        seed=seed,
        assignments=tuple((logical, workload) for logical in range(n_spes)),
    )


@pytest.fixture
def micro_preset(monkeypatch):
    """Shrink the quick preset to a smoke-sized sweep."""
    monkeypatch.setitem(reproduce.PRESETS, "quick", ((16384,), 1, 2 ** 20))


class _QueueThenExplode:
    """Experiment stand-in that queues deferred work, then fails."""

    executor = None

    def __init__(self, specs):
        self.specs = specs

    def run(self):
        self.executor.stats(self.specs)
        raise RuntimeError("mid-sweep failure")


class _OneCell:
    """Experiment stand-in with a single deferred sweep cell."""

    executor = None

    def __init__(self, specs):
        self.specs = specs

    def run(self):
        table = SweepTable(name="cell", axes=("k",))
        table.put((0,), self.executor.stats(self.specs))
        return ExperimentResult(
            name="one-cell", description="", tables={"cell": table}
        )


def explode(*args, **kwargs):
    """Stands in for a simulation that must not happen."""
    raise AssertionError("simulated a spec a tier should have served")


def forbid_program_runs(monkeypatch):
    """Make every simulation of a ProgramSpec fail, served or inline."""
    monkeypatch.setattr(parallel, "run_program_spec", explode)
    monkeypatch.setattr(streaming, "run_program_spec", explode)


class _RefusingSurrogate:
    """A surrogate that must never be asked."""

    def predict(self, spec):
        raise AssertionError(f"surrogate asked for {spec!r}")


def small_comparison(executor=None):
    return StreamingComparison(chunks_per_stream_unit=4, executor=executor)


def read_tree(outdir):
    """{relative path: bytes} for every file under ``outdir``."""
    tree = {}
    for dirpath, _dirnames, filenames in os.walk(outdir):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, outdir)] = handle.read()
    return tree


class TestRunSpec:
    def test_pickles_round_trip(self):
        spec = make_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_run_spec_is_pure(self):
        spec = make_spec()
        assert run_spec(spec) == run_spec(spec)


class TestProgramSpec:
    def test_pickles_round_trip(self):
        spec = small_comparison().spec(((0, 1), (2, 3)))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_unsorted_args_and_local_programs(self):
        def local_program(chip):
            return []

        config = CellConfig.paper_blade()
        with pytest.raises(ConfigError, match="sorted"):
            ProgramSpec(streaming_pipelines, (("seed", 1), ("chunk_bytes", 2)),
                        config, 0)
        with pytest.raises(ConfigError, match="sorted"):
            ProgramSpec(streaming_pipelines, (("a", 1), ("a", 2)), config, 0)
        with pytest.raises(ConfigError, match="module-level"):
            ProgramSpec(local_program, (), config, 0)

    def test_comparison_same_with_and_without_executor(self, tmp_path, monkeypatch):
        """Journal first, then cache, then simulate; the surrogate and
        the target override are never asked, and the repetition
        counters stay untouched."""
        inline = small_comparison().run()
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        cold = SweepExecutor(jobs=1, cache=ResultCache(cache_dir),
                             journal=journal, target=explode)
        cold.surrogate = _RefusingSurrogate()
        with cold:
            assert small_comparison(cold).run() == inline
        assert (cold.cache.hits, cold.cache.misses) == (0, 2)
        forbid_program_runs(monkeypatch)
        replay_cache = ResultCache(cache_dir)
        with SweepExecutor(jobs=1, cache=replay_cache, journal=journal) as replay:
            assert small_comparison(replay).run() == inline
        assert (replay_cache.hits, replay_cache.misses) == (0, 0)
        with SweepExecutor(jobs=1, cache=ResultCache(cache_dir)) as warm:
            assert small_comparison(warm).run() == inline
        assert warm.cache.hits == 2
        for executor in (cold, replay, warm):
            assert (executor.simulated, executor.journal_hits,
                    executor.cache_hits) == (0, 0, 0)
        assert "programs: 0 served / 2 simulated" in cold.describe()
        assert "programs: 2 served / 0 simulated" in replay.describe()
        assert (warm.programs, warm.programs_simulated) == (2, 0)


class TestSweepExecutor:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_serial_stats_returned_immediately(self):
        specs = [make_spec(seed) for seed in (1000, 1001)]
        with SweepExecutor(jobs=1) as executor:
            stats = executor.stats(specs)
        assert stats.n_samples == 2
        assert executor.simulated == 2

    def test_parallel_stats_deferred_then_equal_to_serial(self):
        specs = [make_spec(seed) for seed in (1000, 1001, 1002)]
        with SweepExecutor(jobs=1) as serial:
            expected = serial.samples(list(specs))
        with SweepExecutor(jobs=2) as parallel:
            placeholder = parallel.stats(specs)
            assert isinstance(placeholder, DeferredStats)
            got = parallel.samples(list(specs))
        assert got == expected

    def test_pool_samples_match_inline_run_spec(self):
        specs = [make_spec(seed) for seed in (1000, 1001)]
        inline = [run_spec(spec) for spec in specs]
        with SweepExecutor(jobs=2) as executor:
            assert executor.samples(specs) == inline

    def test_failed_experiment_leaves_no_pending_specs(self):
        """Regression: a raising experiment used to leave its queued
        specs in ``_pending``, shifting the DeferredStats offsets of
        every *later* experiment on the same executor — whose cells then
        resolved against the wrong samples."""
        bad = [make_spec(seed) for seed in (2000, 2001)]
        good = [make_spec(seed) for seed in (1000, 1001)]
        with SweepExecutor(jobs=2) as executor:
            with pytest.raises(RuntimeError, match="mid-sweep failure"):
                executor.run(_QueueThenExplode(bad))
            assert executor._pending == []
            result = executor.run(_OneCell(good))
        with SweepExecutor(jobs=1) as serial:
            expected = BandwidthStats.from_samples(serial.samples(list(good)))
        assert result.tables["cell"].cells[(0,)] == expected


class TestResultCache:
    def test_key_is_stable_across_instances(self, tmp_path):
        spec = make_spec()
        a = ResultCache(str(tmp_path), code_version="v1")
        b = ResultCache(str(tmp_path), code_version="v1")
        assert a.key(spec) == b.key(spec)

    def test_seed_changes_key(self, tmp_path):
        cache = ResultCache(str(tmp_path), code_version="v1")
        assert cache.key(make_spec(seed=1)) != cache.key(make_spec(seed=2))

    def test_workload_changes_key(self, tmp_path):
        cache = ResultCache(str(tmp_path), code_version="v1")
        assert cache.key(make_spec(n_elements=16)) != cache.key(
            make_spec(n_elements=17)
        )

    def test_code_version_changes_key(self, tmp_path):
        spec = make_spec()
        old = ResultCache(str(tmp_path), code_version="v1")
        new = ResultCache(str(tmp_path), code_version="v2")
        assert old.key(spec) != new.key(spec)

    def test_put_get_round_trip_is_exact(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        assert cache.get(spec) is None
        sample = run_spec(spec)
        cache.put(spec, sample)
        assert cache.get(spec) == sample
        assert cache.misses == 1 and cache.hits == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        cache.put(spec, BandwidthSample(gbps=1.0, nbytes=1, cycles=1, seed=0))
        path = cache._path(cache.key(spec))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(spec) is None

    def test_mistyped_entries_read_as_misses(self, tmp_path):
        """Regression: entries that parse as JSON but carry the wrong
        types (a string gbps, a null nbytes, a boolean seed) used to be
        handed straight to BandwidthSample and poison downstream stats;
        get() must treat every one of them as a miss."""
        spec = make_spec()
        cache = ResultCache(str(tmp_path))
        path = cache._path(cache.key(spec))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        good = {"gbps": 1.0, "nbytes": 1, "cycles": 1, "seed": 0}
        mistyped = [
            {**good, "gbps": "1.0"},
            {**good, "nbytes": None},
            {**good, "cycles": 1.5},
            {**good, "seed": True},  # bool is an int subclass: rejected
            [1.0, 1, 1, 0],  # not even an object
        ]
        for payload in mistyped:
            with open(path, "w") as handle:
                json.dump(payload, handle)
            assert cache.get(spec) is None
        assert cache.misses == len(mistyped) and cache.hits == 0
        # and the well-typed payload still round-trips
        with open(path, "w") as handle:
            json.dump(good, handle)
        assert cache.get(spec) == BandwidthSample(
            gbps=1.0, nbytes=1, cycles=1, seed=0
        )

    def test_key_computed_once_per_spec_even_on_miss(self, tmp_path):
        """Regression: a miss used to compute key(spec) twice (once in
        get, once in put); the executor now threads one key through
        both sides of the lookup."""

        class CountingCache(ResultCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.key_calls = 0

            def key(self, spec):
                self.key_calls += 1
                return super().key(spec)

        specs = [make_spec(seed) for seed in (1000, 1001, 1002)]
        cache = CountingCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cache) as cold:
            cold.samples(list(specs))
        assert cold.simulated == len(specs)
        assert cache.key_calls == len(specs)
        cache.key_calls = 0
        with SweepExecutor(jobs=1, cache=cache) as warm:
            warm.samples(list(specs))
        assert warm.simulated == 0
        assert cache.key_calls == len(specs)

    def test_spec_key_is_the_plain_canonical_encoding(self):
        """Keys are on-disk format: the key assembled from pre-rendered
        fields must hash exactly the plain encoding of canonical(), for
        every spec the quick and default sweeps and the streaming
        comparison run."""
        comparison = StreamingComparison(chunks_per_stream_unit=32)
        specs = [
            *training_specs("quick"),
            *training_specs("default"),
            *(comparison.spec(pipelines)
              for _label, pipelines in comparison.CONFIGURATIONS.values()),
        ]
        for spec in specs:
            blob = json.dumps({"code": "v", **spec.canonical()},
                              sort_keys=True, separators=(",", ":"))
            assert spec_key(spec, "v") == hashlib.sha256(blob.encode()).hexdigest()

    def test_run_spec_keys_are_pinned(self):
        # Existing cache entries and journals are addressed by these.
        assert spec_key(make_spec(), "pinned") == (
            "90258a8b66097d06c2f53eb31db2534f70356177296f521b0cee50b120377c8b"
        )
        assert spec_key(make_spec(7, n_spes=3, element_bytes=512), "pinned") == (
            "61b9c277e4a9c109fcf24a33f307e107ae3d8c4759cd9a0d96ff8565212e204a"
        )

    def test_program_and_run_spec_keys_differ(self):
        run = make_spec(seed=1234)
        program = ProgramSpec(streaming_pipelines, (), run.config, run.seed)
        assert spec_key(program, "v") != spec_key(run, "v")

    def test_repro_code_version_is_stable_in_process(self):
        assert repro_code_version() == repro_code_version()
        assert len(repro_code_version()) == 64

    def test_executor_serves_hits_without_simulating(self, tmp_path):
        specs = [make_spec(seed) for seed in (1000, 1001)]
        cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cache) as cold:
            first = cold.samples(list(specs))
        assert cold.simulated == 2 and cache.misses == 2
        warm_cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=warm_cache) as warm:
            second = warm.samples(list(specs))
        assert warm.simulated == 0 and warm_cache.hits == 2
        assert second == first


class TestReproduceEquivalence:
    """--jobs and the cache must not change a single output byte."""

    def run_all(self, outdir, jobs, cache=None, engine="reference"):
        executor = SweepExecutor(jobs=jobs, cache=cache, engine=engine)
        try:
            checks = reproduce.run_all("quick", str(outdir), executor=executor)
        finally:
            executor.close()
        return checks, executor

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_serial_and_parallel_outputs_byte_identical(
        self, tmp_path, micro_preset, engine
    ):
        checks1, _ = self.run_all(tmp_path / "serial", jobs=1, engine=engine)
        checks2, _ = self.run_all(tmp_path / "parallel", jobs=2, engine=engine)
        assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "parallel")
        assert [(c.claim_id, c.passed) for c in checks1] == [
            (c.claim_id, c.passed) for c in checks2
        ]

    def test_fast_engine_outputs_byte_identical_to_reference(
        self, tmp_path, micro_preset
    ):
        checks1, _ = self.run_all(tmp_path / "ref", jobs=1)
        checks2, _ = self.run_all(tmp_path / "fast", jobs=1, engine="fast")
        assert read_tree(tmp_path / "ref") == read_tree(tmp_path / "fast")
        assert [(c.claim_id, c.passed) for c in checks1] == [
            (c.claim_id, c.passed) for c in checks2
        ]

    def test_fast_engine_cache_interchangeable_with_reference(
        self, tmp_path, micro_preset
    ):
        """The cache key has no engine component: entries written by a
        fast run must serve a reference rerun byte-identically (and
        vice versa), because the samples are contractually identical."""
        cache_dir = str(tmp_path / "cache")
        checks1, cold = self.run_all(
            tmp_path / "fast", jobs=1, cache=ResultCache(cache_dir),
            engine="fast",
        )
        assert cold.simulated > 0
        checks2, warm = self.run_all(
            tmp_path / "ref", jobs=1, cache=ResultCache(cache_dir)
        )
        assert warm.simulated == 0
        assert read_tree(tmp_path / "fast") == read_tree(tmp_path / "ref")
        assert [(c.claim_id, c.passed) for c in checks1] == [
            (c.claim_id, c.passed) for c in checks2
        ]

    def test_cache_hit_rerun_outputs_byte_identical(
        self, tmp_path, micro_preset, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        cold_cache = ResultCache(cache_dir)
        checks1, cold = self.run_all(tmp_path / "cold", jobs=1, cache=cold_cache)
        repetitions = len(training_specs("quick"))
        assert cold.simulated > 0
        assert cold.simulated + cold.cache_hits == repetitions
        # The rerun simulates nothing: every repetition and the
        # streaming comparison's two programs come from the cache, and
        # the executor counts only the repetitions.
        forbid_program_runs(monkeypatch)
        warm_cache = ResultCache(cache_dir)
        checks2, warm = self.run_all(tmp_path / "warm", jobs=1, cache=warm_cache)
        assert warm.simulated == 0 and warm.cache_hits == repetitions
        assert (warm_cache.hits, warm_cache.misses) == (repetitions + 2, 0)
        assert read_tree(tmp_path / "cold") == read_tree(tmp_path / "warm")
        assert [(c.claim_id, c.passed) for c in checks1] == [
            (c.claim_id, c.passed) for c in checks2
        ]


class TestSelfHealingCache:
    """The hardened cache contract: corruption quarantines, unwritable
    filesystems degrade warn-once, the size cap evicts LRU-first."""

    def entry_paths(self, cache_dir):
        from repro.core.cache import QUARANTINE_DIR

        return sorted(
            os.path.join(dirpath, name)
            for dirpath, _dirnames, names in os.walk(cache_dir)
            if QUARANTINE_DIR not in dirpath
            for name in names
            if name.endswith(".json")
        )

    def test_put_oserror_warns_once_then_noops(self, tmp_path, monkeypatch):
        import warnings as warnings_module

        from repro.core import cache as cache_module

        spec_a, spec_b = make_spec(1), make_spec(2)
        sample = run_spec(spec_a)
        cache = ResultCache(str(tmp_path / "cache"), code_version="v1")

        def broken_tempfile(*args, **kwargs):
            raise OSError(28, "No space left on device")

        # Running as root defeats chmod-based read-only setups, so break
        # the write path itself.
        monkeypatch.setattr(
            cache_module.tempfile, "NamedTemporaryFile", broken_tempfile
        )
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            cache.put(spec_a, sample)
            cache.put(spec_b, sample)
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        assert "not writable" in str(runtime_warnings[0].message)
        assert cache.put_errors == 2
        assert "2 write error(s)" in cache.describe()
        # The sweep itself is unharmed: gets still answer (as misses).
        assert cache.get(spec_a) is None

    def test_corrupt_entry_is_quarantined_and_healed(self, tmp_path):
        from repro.core.cache import QUARANTINE_DIR

        cache_dir = str(tmp_path / "cache")
        spec = make_spec(3)
        sample = run_spec(spec)
        cache = ResultCache(cache_dir, code_version="v1")
        cache.put(spec, sample)
        (entry,) = self.entry_paths(cache_dir)
        with open(entry, "w") as handle:
            handle.write('{"gbps": "trash"')
        healing = ResultCache(cache_dir, code_version="v1")
        assert healing.get(spec) is None
        assert healing.corrupt == 1
        assert "1 quarantined" in healing.describe()
        assert not os.path.exists(entry)
        assert os.listdir(os.path.join(cache_dir, QUARANTINE_DIR))
        # A re-put heals the entry for good.
        healing.put(spec, sample)
        assert healing.get(spec) == sample

    def test_mistyped_payload_is_quarantined(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = make_spec(4)
        cache = ResultCache(cache_dir, code_version="v1")
        cache.put(spec, run_spec(spec))
        (entry,) = self.entry_paths(cache_dir)
        # Valid JSON, wrong shape: gbps must be a float, not a bool.
        with open(entry, "w") as handle:
            json.dump({"gbps": True, "nbytes": 1, "cycles": 1, "seed": 4}, handle)
        cache = ResultCache(cache_dir, code_version="v1")
        assert cache.get(spec) is None
        assert cache.corrupt == 1

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        specs = [make_spec(seed) for seed in (1, 2, 3, 4)]
        samples = {spec.seed: run_spec(spec) for spec in specs}
        probe = ResultCache(cache_dir, code_version="v1")
        probe.put(specs[0], samples[1])
        (first_entry,) = self.entry_paths(cache_dir)
        entry_size = os.path.getsize(first_entry)
        # Room for three entries; the fourth put must evict the oldest.
        cache = ResultCache(
            cache_dir, code_version="v1", max_bytes=3 * entry_size
        )
        now = 1_700_000_000
        os.utime(first_entry, (now, now))
        for offset, spec in enumerate(specs[1:], start=1):
            cache.put(spec, samples[spec.seed])
            newest = [
                path for path in self.entry_paths(cache_dir)
                if os.stat(path).st_mtime < now
            ]
            for path in newest:
                os.utime(path, (now + offset, now + offset))
        assert cache.evictions == 1
        assert "1 evicted" in cache.describe()
        survivors = ResultCache(cache_dir, code_version="v1")
        # Seed 1 (the oldest mtime) was evicted; the newest three live.
        assert survivors.get(specs[0]) is None
        for spec in specs[1:]:
            assert survivors.get(spec) == samples[spec.seed]

    def test_get_touches_entry_under_eviction(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = make_spec(5)
        cache = ResultCache(cache_dir, code_version="v1", max_bytes=2 ** 20)
        cache.put(spec, run_spec(spec))
        (entry,) = self.entry_paths(cache_dir)
        stale = 1_600_000_000
        os.utime(entry, (stale, stale))
        assert cache.get(spec) is not None
        # The hit refreshed the mtime: the entry is young again for LRU.
        assert os.stat(entry).st_mtime > stale

    def test_max_bytes_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(str(tmp_path), max_bytes=0)
