"""simlint: one positive and one negative fixture per rule, engine
behaviour (selection, classification, callable linting) and the CLI
contract (diagnostics format, exit codes)."""

import json

import pytest

from repro.analysis.lint import (
    LintError,
    RULES,
    Severity,
    lint_callable,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.lint import main as lint_main


def rule_ids(findings):
    return [finding.rule for finding in findings]


def lint_only(source, rule_id):
    return lint_source(source, rules=select_rules([rule_id]))


# ---------------------------------------------------------------------------
# SL101: local-store data consumed before its GET landed
# ---------------------------------------------------------------------------

def test_sl101_fires_on_compute_before_wait():
    source = """
def program(spu):
    yield from spu.mfc_get(size=4096, tag=3)
    yield spu.compute(100)
    yield from spu.wait_tags([3])
"""
    findings = lint_only(source, "SL101")
    assert rule_ids(findings) == ["SL101"]
    assert "tag group(s) {3}" in findings[0].message


def test_sl101_clean_when_waited_first():
    source = """
def program(spu):
    yield from spu.mfc_get(size=4096, tag=3)
    yield from spu.wait_tags([3])
    yield spu.compute(100)
"""
    assert lint_only(source, "SL101") == []


def test_sl101_put_does_not_dirty_reads():
    # PUT reads the LS; computing while a PUT is in flight is fine.
    source = """
def program(spu):
    yield from spu.mfc_put(size=4096, tag=1)
    yield spu.compute(100)
    yield from spu.wait_tags([1])
"""
    assert lint_only(source, "SL101") == []


def test_sl101_branch_dirtiness_is_unioned():
    source = """
def program(spu, fast):
    if fast:
        yield from spu.mfc_get(size=4096, tag=0)
    else:
        yield from spu.wait_tags([0])
    yield spu.compute(10)
    yield from spu.wait_tags([0])
"""
    assert rule_ids(lint_only(source, "SL101")) == ["SL101"]


def test_sl101_unknown_wait_clears_everything():
    source = """
def program(spu, tags):
    yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.wait_tags(tags)
    yield spu.compute(10)
"""
    assert lint_only(source, "SL101") == []


# ---------------------------------------------------------------------------
# SL102: program can return with DMA in flight
# ---------------------------------------------------------------------------

def test_sl102_fires_on_missing_final_wait():
    source = """
def program(spu, out):
    yield from spu.mfc_get(size=4096, tag=0)
    out["done"] = True
"""
    findings = lint_only(source, "SL102")
    assert rule_ids(findings) == ["SL102"]
    assert "'program'" in findings[0].message


def test_sl102_clean_with_final_wait():
    source = """
def program(spu, out):
    yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.wait_tags([0])
"""
    assert lint_only(source, "SL102") == []


def test_sl102_helpers_exempt():
    # A leading-underscore helper's caller owns the synchronisation
    # (the shape of repro.core.kernels._elem_loop).
    source = """
def _issue(spu, n):
    for _ in range(n):
        yield from spu.mfc_get(size=4096, tag=0)
"""
    assert lint_only(source, "SL102") == []


# ---------------------------------------------------------------------------
# SL201: zero-time livelock loops
# ---------------------------------------------------------------------------

def test_sl201_fires_on_yieldless_while_true():
    source = """
def server(env):
    yield env.timeout(1)
    while True:
        env.poll()
"""
    findings = lint_only(source, "SL201")
    assert rule_ids(findings) == ["SL201"]
    assert "livelock" in findings[0].message


def test_sl201_fires_on_unchanging_test():
    source = """
def server(env, n):
    yield env.timeout(1)
    while n < 10:
        x = 1
"""
    assert rule_ids(lint_only(source, "SL201")) == ["SL201"]


def test_sl201_fires_on_infinite_for():
    source = """
import itertools

def server(env):
    yield env.timeout(1)
    for _ in itertools.count():
        pass
"""
    assert rule_ids(lint_only(source, "SL201")) == ["SL201"]


def test_sl201_clean_when_loop_yields_breaks_or_mutates():
    source = """
def server(env, n):
    while True:
        yield env.timeout(10)

def poller(env):
    yield env.timeout(1)
    while True:
        if env.done:
            break
        env.tick()

def counter(env, n):
    yield env.timeout(1)
    while n < 10:
        n += 1
"""
    assert lint_only(source, "SL201") == []


def test_sl201_ignores_plain_functions():
    # Not a generator: an ordinary busy loop is not a sim livelock.
    source = """
def spin(flag):
    while True:
        pass
"""
    assert lint_only(source, "SL201") == []


# ---------------------------------------------------------------------------
# SL301 / SL302: DMA legality and efficiency
# ---------------------------------------------------------------------------

def test_sl301_fires_on_illegal_constants():
    source = """
def program(spu):
    yield from spu.mfc_get(size=100, tag=0)
    yield from spu.mfc_get(size=4096, tag=0, local_offset=8)
    yield from spu.mfc_getl(element_size=20, n_elements=4, tag=0)
    yield from spu.mfc_putl(element_size=128, n_elements=4096, tag=0)
    yield from spu.wait_tags([0])
"""
    findings = lint_only(source, "SL301")
    assert rule_ids(findings) == ["SL301"] * 4


def test_sl301_clean_on_legal_and_unknown_sizes():
    source = """
def program(spu, nbytes):
    yield from spu.mfc_get(size=16384, tag=0)
    yield from spu.mfc_get(size=8, tag=0)
    yield from spu.mfc_get(size=nbytes, tag=0)
    yield from spu.wait_tags([0])
"""
    assert lint_only(source, "SL301") == []


def test_sl302_warns_on_sub_packet_transfers():
    source = """
def program(spu):
    yield from spu.mfc_get(size=64, tag=0)
    yield from spu.wait_tags([0])
"""
    findings = lint_only(source, "SL302")
    assert rule_ids(findings) == ["SL302"]
    assert findings[0].severity == Severity.WARNING


def test_sl302_silent_on_efficient_or_illegal_sizes():
    # 128 B is efficient; 100 B is illegal (SL301's finding, not SL302's).
    source = """
def program(spu):
    yield from spu.mfc_get(size=128, tag=0)
    yield from spu.mfc_get(size=100, tag=0)
    yield from spu.wait_tags([0])
"""
    assert lint_only(source, "SL302") == []


# ---------------------------------------------------------------------------
# SL401: kernel time is an integer
# ---------------------------------------------------------------------------

def test_sl401_fires_on_float_and_division_delays():
    source = """
def process(env, budget):
    yield env.timeout(10.5)
    yield env.timeout(budget / 2)
    yield spu.compute(3.0)
"""
    findings = lint_only(source, "SL401")
    assert rule_ids(findings) == ["SL401"] * 3


def test_sl401_clean_on_integer_delays():
    source = """
def process(env, budget):
    yield env.timeout(10)
    yield env.timeout(budget // 2)
"""
    assert lint_only(source, "SL401") == []


# ---------------------------------------------------------------------------
# SL501: nondeterminism in sim code
# ---------------------------------------------------------------------------

def test_sl501_fires_on_global_rng_and_wall_clock():
    source = """
import random
import time

def process(env):
    yield env.timeout(random.randint(1, 10))
    start = time.monotonic()
"""
    findings = lint_only(source, "SL501")
    assert rule_ids(findings) == ["SL501"] * 2
    assert any("random.randint" in f.message for f in findings)
    assert any("time.monotonic" in f.message for f in findings)


def test_sl501_seeded_rng_is_sanctioned():
    source = """
import random

def process(env, seed):
    rng = random.Random(seed)
    yield env.timeout(rng.randint(1, 10))
"""
    assert lint_only(source, "SL501") == []


def test_sl501_unseeded_factory_is_flagged():
    source = """
import random

def process(env):
    rng = random.Random()
    yield env.timeout(1)
"""
    assert rule_ids(lint_only(source, "SL501")) == ["SL501"]


def test_sl501_ignores_non_sim_functions():
    source = """
import random

def shuffle_cli_output(rows):
    random.shuffle(rows)
    return rows
"""
    assert lint_only(source, "SL501") == []


def test_sl501_tracks_import_aliases():
    source = """
from time import monotonic as clock

def process(env):
    yield env.timeout(1)
    t = clock()
"""
    assert rule_ids(lint_only(source, "SL501")) == ["SL501"]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def test_select_rules_prefix_and_name():
    assert {rule.id for rule in select_rules(["SL3"])} == {"SL301", "SL302"}
    assert [rule.id for rule in select_rules(["yieldless-loop"])] == ["SL201"]
    ignored = select_rules(None, ["SL302"])
    assert "SL302" not in {rule.id for rule in ignored}


def test_select_rules_rejects_unknown_prefix():
    with pytest.raises(LintError, match="matches no rule"):
        select_rules(["SL9"])


def test_lint_source_rejects_syntax_errors():
    with pytest.raises(LintError, match="broken.py"):
        lint_source("def broken(:\n", path="broken.py")


def test_findings_sorted_and_formatted():
    source = """
def program(spu):
    yield from spu.mfc_get(size=100, tag=0)
    yield from spu.mfc_get(size=64, tag=0)
"""
    findings = lint_source(source, path="fixture.py")
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    rendered = findings[0].format()
    assert rendered.startswith("fixture.py:3:")
    assert "SL301" in rendered and "error" in rendered


def test_lint_callable_maps_lines_to_defining_file():
    def bad_process(env):
        yield env.timeout(1.5)

    findings = lint_callable(bad_process)
    assert rule_ids(findings) == ["SL401"]
    assert findings[0].path.endswith("test_lint.py")
    import inspect
    _lines, start = inspect.getsourcelines(bad_process)
    assert start < findings[0].line <= start + 2


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "good.py").write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=4096, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "bad.py").write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=100, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("def broken(:\n")
    findings = lint_paths([str(tmp_path)])
    assert rule_ids(findings) == ["SL301"]
    assert findings[0].path.endswith("bad.py")


def test_lint_paths_rejects_missing_path():
    with pytest.raises(LintError, match="no such file"):
        lint_paths(["/nonexistent/simlint-fixture"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.py"
    path.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield spu.compute(10)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=4096, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
        "    yield spu.compute(10)\n"
    )
    return str(path)


def test_cli_exit_codes(racy_file, clean_file, capsys):
    assert lint_main([clean_file]) == 0
    assert lint_main([racy_file]) == 1
    out = capsys.readouterr().out
    assert "SL101" in out and "SL302" in out
    assert "error(s)" in out


def test_cli_min_severity_filters_warnings(racy_file, tmp_path, capsys):
    warning_only = tmp_path / "warn.py"
    warning_only.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    assert lint_main([str(warning_only)]) == 1
    assert lint_main(["--min-severity", "error", str(warning_only)]) == 0
    capsys.readouterr()


def test_cli_select_and_json(racy_file, capsys):
    assert lint_main(["--select", "SL3", "--format", "json", racy_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [entry["rule"] for entry in payload] == ["SL302"]
    assert payload[0]["severity"] == "warning"


def test_cli_usage_errors(racy_file, capsys):
    assert lint_main([]) == 2
    assert lint_main(["--select", "NOPE", racy_file]) == 2
    assert lint_main(["/nonexistent/simlint-fixture"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


# ---------------------------------------------------------------------------
# Dogfood: the shipped code must stay clean
# ---------------------------------------------------------------------------

def test_shipped_examples_and_kernels_are_clean():
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    targets = [
        os.path.join(root, "examples"),
        os.path.join(root, "src", "repro", "kernels"),
        os.path.join(root, "src", "repro", "core"),
    ]
    findings = lint_paths(targets)
    assert findings == [], "\n".join(f.format() for f in findings)


# ---------------------------------------------------------------------------
# Inline suppressions (appended: the baseline freezes line numbers above)
# ---------------------------------------------------------------------------

SUPPRESSED = """
def program(spu):
    yield from spu.mfc_get(size=64, tag=0)  # simlint: ignore[SL302] -- fixture
    yield from spu.wait_tags([0])
"""


def test_suppression_with_reason_drops_the_finding():
    assert lint_source(SUPPRESSED) == []


def test_suppression_without_reason_is_sl801():
    source = """
def program(spu):
    yield from spu.mfc_get(size=64, tag=0)  # simlint: ignore[SL302]
    yield from spu.wait_tags([0])
"""
    findings = lint_source(source)
    assert "SL801" in rule_ids(findings)
    # The directive is invalid, so the original finding survives too.
    assert "SL302" in rule_ids(findings)


def test_suppression_without_rules_is_sl801():
    source = """
def program(spu):
    yield from spu.mfc_get(size=4096, tag=0)  # simlint: ignore[] -- why
    yield from spu.wait_tags([0])
"""
    assert rule_ids(lint_source(source)) == ["SL801"]


def test_unused_suppression_is_sl802():
    source = """
def program(spu):
    yield from spu.mfc_get(size=4096, tag=0)  # simlint: ignore[SL302] -- stale
    yield from spu.wait_tags([0])
"""
    findings = lint_source(source)
    assert rule_ids(findings) == ["SL802"]
    assert findings[0].severity == Severity.WARNING
    assert "matches no finding" in findings[0].message


def test_unused_suppression_not_flagged_when_rule_unselected():
    # Under --select SL1, silence about SL302 is not staleness.
    findings = lint_source(SUPPRESSED, rules=select_rules(["SL1", "SL8"]))
    assert findings == []


def test_suppression_in_docstring_is_not_honoured():
    source = '''
def program(spu):
    """Documented directive: # simlint: ignore[SL302] -- quoted."""
    yield from spu.mfc_get(size=64, tag=0)
    yield from spu.wait_tags([0])
'''
    assert "SL302" in rule_ids(lint_source(source))


def test_suppression_covers_multiple_rules():
    source = """
def program(spu):
    yield from spu.mfc_get(size=64, tag=3)
    yield spu.compute(10)  # simlint: ignore[SL101,SL302] -- fixture
    yield from spu.wait_tags([3])
"""
    # SL101 anchors at the compute line and is covered; SL302 anchors at
    # the get line and is not.
    assert rule_ids(lint_source(source)) == ["SL302"]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_baseline_round_trip_via_cli(racy_file, tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    assert lint_main(["--update-baseline", baseline, racy_file]) == 0
    # Every frozen finding is filtered: the run is clean.
    assert lint_main(["--baseline", baseline, racy_file]) == 0
    capsys.readouterr()


def test_baseline_keeps_new_findings(racy_file, tmp_path, capsys):
    from repro.analysis.lint import apply_baseline, load_baseline

    baseline = str(tmp_path / "baseline.json")
    assert lint_main(
        ["--select", "SL302", "--update-baseline", baseline, racy_file]
    ) == 0
    capsys.readouterr()
    findings = lint_paths([racy_file])
    survivors = apply_baseline(findings, load_baseline(baseline))
    assert "SL302" not in rule_ids(survivors)
    assert "SL101" in rule_ids(survivors)


def test_malformed_baseline_is_a_usage_error(racy_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert lint_main(["--baseline", str(bad), racy_file]) == 2
    bad.write_text('{"findings": [{"rule": "SL101"}]}')
    assert lint_main(["--baseline", str(bad), racy_file]) == 2
    bad.write_text('{"findings": "nope"}')
    assert lint_main(["--baseline", str(bad), racy_file]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Ordering and dedup
# ---------------------------------------------------------------------------

def test_dedup_collapses_identical_fingerprints():
    from repro.analysis.lint.engine import _dedup_sorted
    from repro.analysis.lint.findings import Finding

    def finding(path, line, col, rule, message):
        return Finding(
            rule=rule, name="x", severity=Severity.ERROR,
            path=path, line=line, col=col, message=message,
        )

    duplicated = [
        finding("b.py", 3, 0, "SL101", "again"),
        finding("a.py", 9, 4, "SL301", "later line"),
        finding("b.py", 3, 0, "SL101", "again"),
        finding("a.py", 2, 0, "SL302", "earlier line"),
    ]
    deduped = _dedup_sorted(duplicated)
    assert [(f.path, f.line, f.rule) for f in deduped] == [
        ("a.py", 2, "SL302"), ("a.py", 9, "SL301"), ("b.py", 3, "SL101"),
    ]


def test_dedup_survivor_is_deterministic():
    from repro.analysis.lint.engine import _dedup_sorted
    from repro.analysis.lint.findings import Finding

    def finding(message):
        return Finding(
            rule="SL101", name="x", severity=Severity.ERROR,
            path="a.py", line=1, col=0, message=message,
        )

    forward = _dedup_sorted([finding("aaa"), finding("bbb")])
    backward = _dedup_sorted([finding("bbb"), finding("aaa")])
    assert [f.message for f in forward] == [f.message for f in backward]


# ---------------------------------------------------------------------------
# Output formats and --explain
# ---------------------------------------------------------------------------

def test_cli_format_github_annotations(racy_file, capsys):
    assert lint_main(["--format", "github", racy_file]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert lines, out
    for line in lines:
        assert line.startswith("::error ") or line.startswith("::warning ")
        assert "file=" in line and "line=" in line and "col=" in line
        assert "title=simlint SL" in line
    assert any("::error " in line and "SL101" in line for line in lines)


def test_cli_format_github_prints_nothing_when_clean(clean_file, capsys):
    assert lint_main(["--format", "github", clean_file]) == 0
    assert capsys.readouterr().out == ""


def test_cli_explain_prints_hazard_steps(tmp_path, capsys):
    overlap = tmp_path / "overlap.py"
    overlap.write_text(
        "def program(spu, out):\n"
        "    spu.mfc_get(4096, tag=0, local_offset=0)\n"
        "    spu.mfc_get(4096, tag=1, local_offset=2048)\n"
        "    spu.wait_tags([0, 1])\n"
    )
    assert lint_main(["--explain", "SL601", str(overlap)]) == 1
    out = capsys.readouterr().out
    assert "SL601" in out
    assert "step 1:" in out and "step 2:" in out
    assert f"{overlap}:2" in out and f"{overlap}:3" in out


def test_cli_explain_unknown_rule_is_usage_error(racy_file, capsys):
    assert lint_main(["--explain", "SL999", racy_file]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def test_cache_cold_then_warm_smoke(tmp_path):
    import time

    from repro.analysis.lint import LintCache
    from repro.analysis.lint.cache import catalog_version

    target = tmp_path / "kernel.py"
    target.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield spu.compute(10)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    cache = LintCache(root=str(tmp_path / "cache"))
    t0 = time.perf_counter()
    cold = lint_paths([str(target)], cache=cache)
    cold_elapsed = time.perf_counter() - t0
    assert cache.misses == 1 and cache.hits == 0

    t0 = time.perf_counter()
    warm = lint_paths([str(target)], cache=cache)
    warm_elapsed = time.perf_counter() - t0
    assert cache.hits == 1
    assert [f.fingerprint for f in warm] == [f.fingerprint for f in cold]
    assert [f.message for f in warm] == [f.message for f in cold]
    # The warm hit skips parsing and every rule: it must not be an
    # order-of-magnitude slower than the cold run (generous bound so a
    # loaded CI box cannot flake this).
    assert warm_elapsed < max(cold_elapsed * 2.0, 0.25), (
        cold_elapsed, warm_elapsed
    )
    # The cache is keyed by the live catalog version.
    assert (tmp_path / "cache" / catalog_version()).is_dir()


def test_cache_invalidates_on_content_change(tmp_path):
    from repro.analysis.lint import LintCache

    target = tmp_path / "kernel.py"
    target.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=4096, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    cache = LintCache(root=str(tmp_path / "cache"))
    assert lint_paths([str(target)], cache=cache) == []
    target.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    findings = lint_paths([str(target)], cache=cache)
    assert "SL302" in rule_ids(findings)
    assert cache.misses == 2


def test_cache_is_keyed_by_rule_selection(tmp_path):
    from repro.analysis.lint import LintCache

    target = tmp_path / "kernel.py"
    target.write_text(
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield spu.compute(10)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    cache = LintCache(root=str(tmp_path / "cache"))
    all_rules = lint_paths([str(target)], cache=cache)
    narrowed = lint_paths(
        [str(target)], rules=select_rules(["SL302"]), cache=cache
    )
    assert rule_ids(narrowed) == ["SL302"]
    assert len(all_rules) > len(narrowed)


def test_cache_get_reanchors_findings_to_the_queried_path(tmp_path):
    from repro.analysis.lint import LintCache

    source = (
        "def program(spu):\n"
        "    yield from spu.mfc_get(size=64, tag=0)\n"
        "    yield from spu.wait_tags([0])\n"
    )
    first = tmp_path / "a.py"
    second = tmp_path / "b.py"
    first.write_text(source)
    second.write_text(source)
    cache = LintCache(root=str(tmp_path / "cache"))
    lint_paths([str(first)], cache=cache)
    findings = lint_paths([str(second)], cache=cache)
    assert cache.hits == 1  # same content, same rules: shared entry
    assert findings[0].path == str(second)


# ---------------------------------------------------------------------------
# lint_callable carries dataflow steps with real line numbers
# ---------------------------------------------------------------------------

def test_lint_callable_offsets_explain_steps():
    import inspect

    from repro.reproduce import racy_pair_program

    findings = [
        f for f in lint_callable(
            racy_pair_program, rules=select_rules(["SL601"])
        )
    ]
    assert rule_ids(findings) == ["SL601"]
    _lines, start = inspect.getsourcelines(racy_pair_program)
    finding = findings[0]
    assert finding.line >= start
    assert finding.steps
    for line, note in finding.steps:
        assert line >= start
        assert note


# ---------------------------------------------------------------------------
# SL101/SL102 on the DMA-state fixpoint (appended: the baseline freezes
# line numbers above).  Loop back edges, early exits and helper bodies.
# ---------------------------------------------------------------------------

LOOP_CARRIED_PREFETCH = """
def program(spu, n):
    yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.wait_tags([0])
    for i in range(n):
        yield spu.compute(100)
        yield from spu.mfc_get(size=4096, tag=0)
    yield from spu.wait_tags([0])
"""

EARLY_RETURN_IN_FLIGHT = """
def program(spu, early):
    yield from spu.mfc_get(size=4096, tag=0)
    if early:
        return
    yield from spu.wait_tags([0])
"""

GET_IN_HELPER = """
def _fetch(spu):
    yield from spu.mfc_get(size=4096, tag=2)

def program(spu):
    yield from _fetch(spu)
    yield spu.compute(100)
    yield from spu.wait_tags([2])
"""

WAIT_IN_HELPER = """
def _sync(spu):
    yield from spu.wait_tags([0])

def program(spu):
    yield from spu.mfc_get(size=4096, tag=0)
    yield from _sync(spu)
    yield spu.compute(100)
"""

HELPER_CONSUMES_BEFORE_WAIT = """
def _step(spu):
    yield from spu.mfc_get(size=4096, tag=1)
    yield spu.compute(100)
    yield from spu.wait_tags([1])
"""


@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param(
            LOOP_CARRIED_PREFETCH, [("SL101", 6)], id="loop-carried-prefetch"
        ),
        pytest.param(
            EARLY_RETURN_IN_FLIGHT, [("SL102", 3)], id="early-return"
        ),
        pytest.param(GET_IN_HELPER, [("SL101", 7)], id="get-in-helper"),
        pytest.param(WAIT_IN_HELPER, [], id="wait-in-helper"),
        pytest.param(
            HELPER_CONSUMES_BEFORE_WAIT, [("SL101", 4)],
            id="helper-consumes-before-wait",
        ),
    ],
)
def test_sl1xx_follow_loops_exits_and_helpers(source, expected):
    findings = lint_only(source, "SL1")
    assert [(f.rule, f.line) for f in findings] == expected


# ---------------------------------------------------------------------------
# A for loop over a range that provably runs has no zero-trip exit path
# (appended: the baseline freezes line numbers above).
# ---------------------------------------------------------------------------

WAIT_IN_LOOP = """
{prelude}
def program(spu{params}):
    yield from spu.mfc_get(size=4096, tag=0)
    for _ in range({bound}):
        yield from spu.wait_tags([0])
    yield spu.compute(1)
"""


@pytest.mark.parametrize(
    "prelude, params, bound, expected",
    [
        pytest.param("", "", "4", [], id="literal"),
        pytest.param("ROUNDS = 4", "", "ROUNDS", [], id="module-constant"),
        pytest.param(
            "", ", n", "n", [("SL102", 4), ("SL101", 7)], id="unknown"
        ),
        pytest.param("", "", "0", [("SL102", 4), ("SL101", 7)], id="empty"),
    ],
)
def test_sl1xx_loop_that_provably_runs_has_no_zero_trip_path(
    prelude, params, bound, expected
):
    source = WAIT_IN_LOOP.format(prelude=prelude, params=params, bound=bound)
    findings = lint_only(source, "SL1")
    assert [(f.rule, f.line) for f in findings] == expected


def test_sl601_loop_that_provably_runs_has_no_zero_trip_path():
    source = """
def program(spu):
    yield from spu.mfc_get(size=4096, tag=0, local_offset=0)
    for _ in range(4):
        yield from spu.wait_tags([0])
    yield from spu.mfc_get(size=4096, tag=1, local_offset=0)
    yield from spu.wait_tags([1])
"""
    assert lint_only(source, "SL6") == []
    unknown = source.replace("(spu)", "(spu, n)").replace("range(4)", "range(n)")
    assert [(f.rule, f.line) for f in lint_only(unknown, "SL6")] == [("SL601", 6)]
