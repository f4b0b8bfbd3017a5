"""simlint: static analysis for SPU programs and sim processes.

The paper's programming guidelines are synchronisation discipline, and
every one has a misuse mode that silently corrupts a bandwidth number or
livelocks the simulator.  This package catches them before a run:

* ``SL201`` — zero-time livelock loops in sim processes;
* ``SL301``/``SL302`` — DMA size/alignment legality and the sub-128 B
  efficiency cliff, checked with the MFC's own ``validate_transfer``;
* ``SL401`` — fractional cycle delays (kernel time is an integer);
* ``SL501`` — wall clocks / unseeded RNGs that would break the
  byte-identical replay the result cache and parallel executor assume;
* ``SL101``/``SL102`` and ``SL601``/``SL602``/``SL603`` — queries on one
  interprocedural DMA-state fixpoint over per-function CFGs with a
  constant-propagation + interval domain.  ``SL101``/``SL102`` check
  tag-group synchronisation on every path (LS data consumed while its
  GET may be in flight; programs that can return with DMA in flight);
  ``SL6xx`` prove local-store buffer overlap (the static counterpart of
  the runtime ``DmaSanitizer``), tag-group lifecycle errors, and
  double-buffer rotation that aliases the in-flight window;
* ``SL801``/``SL802`` — suppression hygiene (a suppression needs rules
  and a reason; a stale suppression is itself a finding).

Run it as ``python -m repro.lint <paths>`` or programmatically::

    from repro.analysis.lint import lint_callable
    assert lint_callable(my_kernel) == []

Findings can be silenced inline (``# simlint: ignore[SL302] -- reason``)
or frozen wholesale with ``--baseline FILE``; results are cached by file
content hash under ``.repro-cache/lint/`` so re-lints are O(changed
files).

The *runtime* complement — the DMA hazard sanitizer that checks actual
overlap/ordering of in-flight commands — lives in
:mod:`repro.sim.sanitizer` and is enabled with ``reproduce --sanitize``.
"""

from repro.analysis.lint.cache import LintCache, catalog_version
from repro.analysis.lint.cfg import CFG, Block, build_cfg
from repro.analysis.lint.dataflow import (
    TOP,
    Interval,
    analyze_intervals,
    eval_expr,
)
from repro.analysis.lint.engine import (
    LintError,
    Suppression,
    apply_baseline,
    iter_python_files,
    lint_callable,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    select_rules,
    write_baseline,
)
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules import RULES, Rule, RuleContext
from repro.analysis.lint.summaries import ModuleModel

__all__ = [
    "CFG",
    "Block",
    "Finding",
    "Interval",
    "LintCache",
    "LintError",
    "ModuleModel",
    "RULES",
    "Rule",
    "RuleContext",
    "Severity",
    "Suppression",
    "TOP",
    "analyze_intervals",
    "apply_baseline",
    "build_cfg",
    "catalog_version",
    "eval_expr",
    "iter_python_files",
    "lint_callable",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "select_rules",
    "write_baseline",
]
