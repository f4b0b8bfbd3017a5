"""Unit tests for the fault-tolerant executor surface: argument
validation, retry policy, the partial-results contract, and the
jobs-resolution rules shared with the CLI."""

import pytest

from repro import reproduce
from repro.analysis.streaming import StreamingComparison
from repro.core.cache import ResultCache
from repro.core.experiment import ExperimentResult
from repro.core.results import SweepTable
from repro.runtime.parallel import SweepExecutor, default_jobs
from repro.runtime.resilience import (
    HostRetryPolicy,
    SpecFailure,
    SweepError,
    SweepFailureReport,
)

from tests.test_parallel_and_cache import make_spec


class TestArgumentValidation:
    @pytest.mark.parametrize("bad", [0, -2, 2.5, "3", True, False])
    def test_jobs_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            SweepExecutor(jobs=bad)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4", True])
    def test_maxtasksperchild_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="maxtasksperchild"):
            SweepExecutor(jobs=1, maxtasksperchild=bad)

    def test_policy_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout_s"):
            HostRetryPolicy(timeout_s=0)
        with pytest.raises(ValueError, match="timeout_s"):
            HostRetryPolicy(timeout_s=-1.0)

    def test_policy_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            HostRetryPolicy(retries=-1)

    def test_policy_rejects_shrinking_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            HostRetryPolicy(backoff=0.5)

    def test_policy_backoff_schedule(self):
        policy = HostRetryPolicy(timeout_s=10.0, retries=3, backoff=2.0)
        assert policy.timeout_for(0) == 10.0
        assert policy.timeout_for(1) == 20.0
        assert policy.timeout_for(2) == 40.0
        assert HostRetryPolicy().timeout_for(5) is None


class TestResolveJobs:
    def test_none_defaults_to_machine(self):
        assert reproduce.resolve_jobs(None) == default_jobs()

    def test_nonpositive_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive integer"):
                reproduce.resolve_jobs(bad)

    def test_over_ask_is_clamped_with_warning(self, capsys):
        available = default_jobs()
        assert reproduce.resolve_jobs(available + 7) == available
        out = capsys.readouterr().out
        assert "warning" in out and "clamping" in out

    def test_in_range_passes_through(self):
        assert reproduce.resolve_jobs(1) == 1


def _flaky_target(counts):
    """Fails each seed's first attempt; counts attempts per seed."""

    def target(spec):
        counts[spec.seed] = counts.get(spec.seed, 0) + 1
        if counts[spec.seed] == 1:
            raise RuntimeError(f"flaky: first attempt for seed {spec.seed}")
        from repro.core.experiment import run_spec

        return run_spec(spec)

    return target


def _always_fail(spec):
    raise RuntimeError(f"doomed: seed {spec.seed}")


class TestSerialRetries:
    def test_inline_retry_recovers_flaky_specs(self):
        specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (1, 2)]
        with SweepExecutor(jobs=1) as clean:
            expected = clean.samples(list(specs))
        counts = {}
        with SweepExecutor(jobs=1, target=_flaky_target(counts)) as executor:
            got = executor.samples(list(specs))
        assert got == expected
        assert executor.retried == 2
        assert "retried=2" in executor.describe()

    def test_exhausted_retries_reraise_the_worker_exception(self):
        specs = [make_spec(1, n_elements=4, n_spes=1)]
        policy = HostRetryPolicy(retries=1)
        with SweepExecutor(jobs=1, policy=policy, target=_always_fail) as executor, \
                pytest.raises(RuntimeError, match="doomed: seed 1"):
            executor.samples(list(specs))
        assert executor.retried == 1

    def test_partial_mode_yields_holes_and_failures(self):
        specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (1, 2, 3)]
        with SweepExecutor(jobs=1) as clean:
            expected = clean.samples(list(specs))

        def fail_middle(spec):
            if spec.seed == 2:
                raise RuntimeError("chaos: seed 2 always fails")
            from repro.core.experiment import run_spec

            return run_spec(spec)

        policy = HostRetryPolicy(retries=1)
        with SweepExecutor(jobs=1, policy=policy, target=fail_middle,
                           partial_results=True) as executor:
            got = executor.samples(list(specs))
        assert got[0] == expected[0] and got[2] == expected[2]
        assert got[1] is None
        assert len(executor.failures) == 1
        failure = executor.failures[0]
        assert failure.seed == 2 and failure.attempts == 2
        assert "chaos" in failure.cause
        assert "incomplete: 1 repetition(s) failed" in executor.describe()


class TestPartialRun:
    def test_all_failed_cell_is_dropped_with_note(self):
        """run() reduces cells over the survivors; a cell whose every
        repetition failed is dropped and the table notes it."""

        class _Exp:
            executor = None

            def run(self):
                table = SweepTable(name="t", axes=("k",))
                table.put((0,), self.executor.stats(
                    [make_spec(1, n_elements=4, n_spes=1)]
                ))
                table.put((1,), self.executor.stats(
                    [make_spec(2, n_elements=4, n_spes=1)]
                ))
                return ExperimentResult(
                    name="partial", description="", tables={"t": table}
                )

        def fail_seed_two(spec):
            if spec.seed == 2:
                raise RuntimeError("chaos")
            from repro.core.experiment import run_spec

            return run_spec(spec)

        policy = HostRetryPolicy(retries=0)
        with SweepExecutor(jobs=1, policy=policy, target=fail_seed_two,
                           partial_results=True) as executor:
            result = executor.run(_Exp())
        table = result.tables["t"]
        assert (0,) in table.cells
        assert (1,) not in table.cells
        assert any("cell dropped" in note for note in result.notes)
        assert executor.failures

    def test_completed_counts_repetitions_only(self, tmp_path):
        """The failure report's totals come from the executor: a program
        run served by the same cache is not a completed repetition."""
        specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (1, 2, 3)]
        program = StreamingComparison(chunks_per_stream_unit=4).spec(((0, 1),))
        with SweepExecutor(jobs=1, cache=ResultCache(str(tmp_path))) as first:
            first.samples(specs[:1])
            first.program_sample(program)

        def fail_seed_two(spec):
            if spec.seed == 2:
                raise RuntimeError("chaos")
            from repro.core.experiment import run_spec

            return run_spec(spec)

        with SweepExecutor(jobs=1, cache=ResultCache(str(tmp_path)),
                           policy=HostRetryPolicy(retries=0),
                           target=fail_seed_two,
                           partial_results=True) as executor:
            executor.samples(list(specs))
            executor.program_sample(program)
        assert executor.cache.hits == 2  # seed 1 and the program
        assert executor.completed == 2  # seed 1 served, seed 3 simulated
        assert len(executor.failures) == 1


class TestFailureReport:
    def test_report_summary_names_every_failure(self):
        report = SweepFailureReport(
            failures=[
                SpecFailure(index=3, seed=1003, attempts=3,
                            cause="timeout after 2.0s", error=None),
                SpecFailure(index=5, seed=1005, attempts=1,
                            cause="worker lost", error=None),
            ],
            total=10,
            completed=8,
        )
        text = report.summary()
        assert "8/10" in text
        assert "1003" in text and "1005" in text
        assert "timeout" in text and "worker lost" in text

    def test_sweep_error_carries_the_report(self):
        report = SweepFailureReport(failures=[], total=1, completed=1)
        error = SweepError(report)
        assert error.report is report
