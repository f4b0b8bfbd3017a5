"""Tests for the crash-safe sweep journal (repro.runtime.journal)."""

import json
import os
import warnings

import pytest

from repro import reproduce
from repro.analysis.surrogate_store import training_specs
from repro.core.cache import repro_code_version
from repro.core.experiment import run_spec
from repro.runtime.journal import SweepJournal
from repro.runtime.parallel import SweepExecutor

from tests.test_parallel_and_cache import forbid_program_runs, make_spec


@pytest.fixture
def micro_preset(monkeypatch):
    """Shrink the quick preset to a smoke-sized sweep."""
    monkeypatch.setitem(reproduce.PRESETS, "quick", ((16384,), 1, 2 ** 20))


def journal_path(tmp_path):
    return str(tmp_path / "journal.jsonl")


def test_round_trip_and_idempotence(tmp_path):
    spec = make_spec(7, n_elements=4, n_spes=1)
    sample = run_spec(spec)
    with SweepJournal(journal_path(tmp_path)) as journal:
        assert journal.get(spec) is None
        journal.record(spec, sample)
        journal.record(spec, sample)  # idempotent: one line, not two
        assert journal.get(spec) == sample
        assert len(journal) == 1
    with open(journal_path(tmp_path)) as handle:
        lines = [line for line in handle.read().splitlines() if line]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert len(payload["key"]) == 64


def test_entries_persist_across_instances(tmp_path):
    specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (1, 2, 3)]
    samples = [run_spec(spec) for spec in specs]
    with SweepJournal(journal_path(tmp_path)) as journal:
        for spec, sample in zip(specs, samples, strict=True):
            journal.record(spec, sample)
    replay = SweepJournal(journal_path(tmp_path))
    assert replay.loaded == 3 and replay.dropped == 0
    for spec, sample in zip(specs, samples, strict=True):
        assert replay.get(spec) == sample


def test_truncated_tail_is_skipped_not_fatal(tmp_path):
    specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (1, 2)]
    with SweepJournal(journal_path(tmp_path)) as journal:
        for spec in specs:
            journal.record(spec, run_spec(spec))
    # Simulate a crash mid-append: chop the final line in half.
    with open(journal_path(tmp_path), "r+") as handle:
        text = handle.read()
        handle.seek(0)
        handle.truncate()
        handle.write(text[: len(text) - 30])
    replay = SweepJournal(journal_path(tmp_path))
    assert replay.loaded == 1
    assert replay.dropped == 1
    assert replay.get(specs[0]) is not None
    assert replay.get(specs[1]) is None
    assert "corrupt line(s) skipped" in replay.describe()


def test_garbage_lines_are_skipped(tmp_path):
    spec = make_spec(5, n_elements=4, n_spes=1)
    with SweepJournal(journal_path(tmp_path)) as journal:
        journal.record(spec, run_spec(spec))
    with open(journal_path(tmp_path), "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"key": "short", "gbps": 1.0}\n')
        handle.write(json.dumps({"key": "f" * 64, "gbps": "not-a-float"}) + "\n")
    replay = SweepJournal(journal_path(tmp_path))
    assert replay.loaded == 1
    assert replay.dropped == 3
    assert replay.get(spec) is not None


def test_code_version_mismatch_is_a_miss(tmp_path):
    spec = make_spec(9, n_elements=4, n_spes=1)
    with SweepJournal(journal_path(tmp_path), code_version="v-old") as journal:
        journal.record(spec, run_spec(spec))
    stale = SweepJournal(journal_path(tmp_path), code_version="v-new")
    # The entry loads (it is well-formed) but its key no longer matches.
    assert stale.loaded == 1
    assert stale.get(spec) is None
    fresh = SweepJournal(journal_path(tmp_path), code_version="v-old")
    assert fresh.get(spec) is not None


def test_default_code_version_is_repros(tmp_path):
    journal = SweepJournal(journal_path(tmp_path))
    assert journal.code_version == repro_code_version()


def test_unwritable_journal_warns_once_and_continues(tmp_path, monkeypatch):
    spec_a = make_spec(1, n_elements=4, n_spes=1)
    spec_b = make_spec(2, n_elements=4, n_spes=1)
    sample_a, sample_b = run_spec(spec_a), run_spec(spec_b)
    journal = SweepJournal(journal_path(tmp_path))

    def broken_open(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("builtins.open", broken_open)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        journal.record(spec_a, sample_a)
        journal.record(spec_b, sample_b)
    runtime_warnings = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
    assert len(runtime_warnings) == 1
    assert "not writable" in str(runtime_warnings[0].message)
    # The in-memory log still serves this process's replays.
    assert journal.get(spec_a) is not None
    assert journal.get(spec_b) is not None


def test_executor_replays_journal_without_simulating(tmp_path):
    specs = [make_spec(seed, n_elements=4, n_spes=1) for seed in (10, 11, 12)]
    path = journal_path(tmp_path)
    with SweepExecutor(jobs=1, journal=path) as first:
        expected = first.samples(list(specs))
    assert first.simulated == 3
    with SweepExecutor(jobs=1, journal=path) as second:
        replayed = second.samples(list(specs))
    assert replayed == expected
    assert second.simulated == 0
    assert second.journal_hits == 3
    assert "journal: 3 replayed" in second.describe()


def test_executor_accepts_journal_instance_and_does_not_close_it(tmp_path):
    spec = make_spec(3, n_elements=4, n_spes=1)
    journal = SweepJournal(journal_path(tmp_path))
    with SweepExecutor(jobs=1, journal=journal) as executor:
        executor.samples([spec])
    # Caller-owned journal stays usable after the executor closes.
    extra = make_spec(4, n_elements=4, n_spes=1)
    journal.record(extra, run_spec(extra))
    journal.close()
    assert SweepJournal(journal_path(tmp_path)).loaded == 2


def test_run_all_with_journal_matches_run_without(
    tmp_path, micro_preset, monkeypatch, capsys
):
    plain_dir = str(tmp_path / "plain")
    journal_dir = str(tmp_path / "journalled")

    assert reproduce.main(["--quick", "--no-cache", "--jobs", "1",
                           "--outdir", plain_dir]) in (0, 1)
    assert reproduce.main(["--quick", "--no-cache", "--jobs", "1",
                           "--outdir", journal_dir, "--resume"]) in (0, 1)
    # Resume over the now-complete journal: everything replays, the
    # streaming comparison's two programs included, and the footer
    # counts only the sweep's repetitions.
    forbid_program_runs(monkeypatch)
    capsys.readouterr()
    assert reproduce.main(["--quick", "--no-cache", "--jobs", "1",
                           "--outdir", journal_dir, "--resume"]) in (0, 1)
    footer = capsys.readouterr().out
    assert "simulated=0," in footer
    assert "programs: 2 served / 0 simulated" in footer
    assert f"journal: {len(training_specs('quick'))} replayed" in footer

    def read_tree(outdir):
        out = {}
        for dirpath, _dirnames, names in os.walk(outdir):
            for name in names:
                if name == "sweep-journal.jsonl":
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    out[os.path.relpath(path, outdir)] = handle.read()
        return out

    plain = read_tree(plain_dir)
    assert plain
    assert read_tree(journal_dir) == plain
    assert os.path.exists(os.path.join(journal_dir, "sweep-journal.jsonl"))
