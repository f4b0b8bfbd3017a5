"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Not part of tier-1 (it takes about a minute); run it explicitly::

    python3 -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench_e2e.py")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench_e2e  # noqa: E402
import calibrate  # noqa: E402


def _defs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, BENCH, "--scale", "smoke", "--trace", trace, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    wanted = _defs()["per_layer" if trace == "1" else "end_to_end"]
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == list(bench_e2e.WORKLOADS)
    for run in runs:
        assert run["failed_frac"] == 0
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            assert run["metrics"][name]["unit"] == unit
            assert f"{run['workload']}.{name}" in last["metrics"]
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                             proc.stdout, re.M), name
        if trace == "0":
            assert all(m["value"] > 0 for m in run["metrics"].values())
    quick = next(run for run in runs if run["workload"] == "quick")
    assert quick["claims_passed"] == 32


def test_a_corrupted_sample_raises_failed_frac(tmp_path):
    """Poison one warm-cache entry with a plausible wrong sample: the
    warm pass serves it and the benchmark must count it as failed."""
    import workloads
    from repro.core.cache import ResultCache
    from repro.core.results import BandwidthSample

    workload = workloads.make("storm", 1000, "smoke", str(tmp_path))
    ledger = workloads.Ledger()
    workload.setup()
    workload.cold(ledger)
    workload.warm(ledger)
    workload.oracle(ledger)
    assert ledger.failed == 0 and not ledger.problems
    clean = ledger.failed / ledger.attempted

    spec, good = workload.specs[1], workload.truth[1]
    ResultCache(workload.cache_dir).put(spec, BandwidthSample(
        gbps=good.gbps, nbytes=good.nbytes, cycles=good.cycles + 1, seed=good.seed,
    ))
    workload.warm(ledger)
    assert ledger.failed == 1
    assert ledger.failed / ledger.attempted > clean


def test_compare_verdicts_and_host_refusal():
    assert bench_e2e.verdict([10, 10.1, 9.9], [10.05, 10, 10.1], "lower", 0.1) == "unchanged"
    assert bench_e2e.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1) == "worse"
    assert bench_e2e.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1) == "better"
    assert bench_e2e.verdict([10, 14, 6], [10, 13, 7], "lower", 0.1) == "unresolved"
    host = calibrate.host_block()
    assert calibrate.comparable(host, dict(host)) is None
    assert "cpu_count" in calibrate.comparable(host, {**host, "cpu_count": 64})
    assert "Python" in calibrate.comparable(host, {**host, "python": "2.7.18"})
