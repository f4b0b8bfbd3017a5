"""Gates for the coalescing fast engine (:mod:`repro.sim.engine_fast`).

The contract under test: for any spec, ``run_spec(spec, engine="fast")``
returns the *same bytes* as the reference engine — same gbps, nbytes,
cycles, seed — because the fast engine replays the reference heap
schedule minus provably-inert slots.  The reference engine is the
oracle; every mismatch here is a fast-engine bug by definition.
"""

import pytest

from repro.cell.chip import CellChip
from repro.cell.config import CellConfig
from repro.cell.dma import coalesce_bursts, uniform_bursts
from repro.core import experiment
from repro.core.experiment import RunSpec, run_spec, run_spec_report
from repro.core.kernels import DmaWorkload
from repro.core.spe_couples import couple_assignments
from repro.runtime.parallel import SweepExecutor
from repro.sim.core import SimulationError
from repro.sim.engine_fast import ENGINES, FastEnvironment, resolve_engine
from repro.sim.faults import FaultEngine
from repro.sim.sanitizer import DmaSanitizer
from repro.sim.trace import TraceRecorder


#: The fast engine's whole-leg merge (``_FastMover._eib_chunk``) checks
#: only the heap head.  A mover started inline from a kernel frame still
#: has its caller's same-pop work to run, which can issue the next
#: command inside the merged span (by a heap push or a tail-warp), so the
#: fast engine skips chunk boundaries where the reference engine
#: re-arbitrates.  With the merge disabled these cases agree.
WHOLE_LEG_MERGE = pytest.mark.xfail(
    strict=True,
    reason=(
        "whole-leg merge in _FastMover._eib_chunk checks only the heap "
        "head; an inline-started mover's caller can issue the next "
        "command inside the merged span"
    ),
)


def spec_for(
    direction,
    mode="elem",
    n_spes=2,
    element_bytes=16384,
    n_elements=24,
    sync_every=None,
    unrolled=True,
    partner_logical=None,
    seed=1000,
):
    workload = DmaWorkload(
        direction=direction,
        element_bytes=element_bytes,
        n_elements=n_elements,
        mode=mode,
        sync_every=sync_every,
        partner_logical=partner_logical,
    )
    return RunSpec(
        config=CellConfig.paper_blade(),
        seed=seed,
        assignments=tuple((logical, workload) for logical in range(n_spes)),
        unrolled=unrolled,
    )


class TestResolveEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            resolve_engine("turbo")

    def test_reference_passes_through(self):
        assert resolve_engine("reference") == "reference"

    def test_fast_without_observers_stays_fast(self):
        assert resolve_engine("fast") == "fast"

    def test_enabled_observer_downgrades_to_reference(self):
        # A freshly constructed recorder/engine/sanitizer is enabled
        # (the shared NULL_* singletons are the disabled ones).
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        assert resolve_engine("fast", faults=faults) == "reference"
        assert resolve_engine("fast", sanitizer=DmaSanitizer()) == "reference"

    def test_downgrade_warns_once_on_stderr(self, capsys):
        # The downgrade must be announced — once per process, on stderr
        # — so nobody mistakes an observed run for a fast-engine
        # benchmark.  Later downgrades stay silent (a sweep resolves
        # the engine thousands of times).
        import repro.sim.engine_fast as engine_fast

        engine_fast._downgrade_warned = False
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        assert resolve_engine("fast", trace=TraceRecorder()) == "reference"
        assert (
            resolve_engine("fast", sanitizer=DmaSanitizer()) == "reference"
        )
        err = capsys.readouterr().err
        assert err.count("downgraded to 'reference'") == 1
        assert "trace" in err

    def test_no_warning_without_downgrade(self, capsys):
        import repro.sim.engine_fast as engine_fast

        engine_fast._downgrade_warned = False
        assert resolve_engine("fast") == "fast"
        assert resolve_engine("reference", trace=TraceRecorder()) == "reference"
        assert capsys.readouterr().err == ""

    def test_chip_applies_the_downgrade(self):
        # CellChip(engine="fast") with an enabled observer silently runs
        # the reference engine — same results, per-event resolution.
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        chip = CellChip(engine="fast", faults=faults)
        assert chip.engine == "reference"
        assert not isinstance(chip.env, FastEnvironment)

    def test_fast_environment_refuses_enabled_observers(self):
        faults = FaultEngine({"ecc_retry": 0.5}, seed=1)
        with pytest.raises(SimulationError, match="unobserved"):
            FastEnvironment(faults=faults)


class TestUniformBursts:
    @pytest.mark.parametrize("element_size", [16, 128, 1000, 2048, 4096, 16384])
    @pytest.mark.parametrize("n_elements", [1, 2, 7, 24, 100])
    def test_matches_generic_fold(self, element_size, n_elements):
        quantum = 2048
        assert uniform_bursts(element_size, n_elements, quantum) == (
            coalesce_bursts([element_size] * n_elements, quantum)
        )


class TestByteIdentity:
    """run_spec(spec, engine="fast") == run_spec(spec), across shapes."""

    CASES = [
        spec_for("get"),
        spec_for("put"),
        spec_for("copy"),
        spec_for("get", mode="list"),
        spec_for("put", mode="list"),
        spec_for("copy", mode="list"),
        # single SPE: long quiet stretches, maximal inline coalescing
        spec_for("copy", n_spes=1, n_elements=48, seed=7),
        # full blade under contention
        spec_for("copy", n_spes=8, n_elements=16, seed=2),
        # periodic tag synchronisation
        spec_for("get", n_spes=4, n_elements=32, sync_every=8, seed=3),
        # rolled issue loop
        spec_for("put", n_spes=2, unrolled=False, seed=5),
        # small transfers: the <128 B inefficiency penalty path
        spec_for("get", n_spes=3, element_bytes=64, n_elements=24, seed=6),
        # LS-to-LS: partner SPE instead of main memory
        spec_for("copy", n_spes=1, element_bytes=8192, partner_logical=1,
                 seed=16),
        spec_for("get", n_spes=1, mode="list", element_bytes=8192,
                 partner_logical=1, seed=14),
        # 298,825 cycles on the reference engine, 293,965 on the fast one
        pytest.param(
            spec_for("put", n_spes=1, n_elements=48, sync_every=2, seed=1),
            marks=WHOLE_LEG_MERGE,
        ),
    ]

    @pytest.mark.parametrize(
        "spec",
        CASES,
        ids=lambda spec: "{}-{}-{}spe-{}B{}{}{}".format(
            spec.assignments[0][1].direction,
            spec.assignments[0][1].mode,
            len(spec.assignments),
            spec.assignments[0][1].element_bytes,
            "-sync" if spec.assignments[0][1].sync_every else "",
            "-rolled" if not spec.unrolled else "",
            "-ls" if spec.assignments[0][1].partner_logical is not None else "",
        ),
    )
    def test_fast_equals_reference(self, spec):
        assert run_spec(spec, engine="fast") == run_spec(spec)


def eib_counters(spec, engine, monkeypatch):
    """The bus counters of the chip ``run_spec_report`` runs."""
    chips = []

    class RecordingChip(experiment.CellChip):
        def run(self, *args, **kwargs):
            chips.append(self)
            return super().run(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "CellChip", RecordingChip)
        run_spec_report(spec, engine)
    eib = chips[-1].eib
    return {
        "grants": eib.grants,
        "conflicts": eib.conflicts,
        "wait_cycles": eib.wait_cycles,
        "bytes_moved": eib.bytes_moved,
    }


class TestEibCounters:
    """Both engines count the same EIB grants, conflicts and wait cycles,
    not just the same samples."""

    CASES = [
        pytest.param(
            spec_for("copy", n_spes=8, element_bytes=4096, n_elements=256),
            id="storm-8spe-copy-4KiB",
        ),
        pytest.param(
            RunSpec(
                config=CellConfig.paper_blade(),
                seed=1000,
                assignments=tuple(
                    couple_assignments(
                        8,
                        lambda _initiator, partner: DmaWorkload(
                            direction="copy",
                            element_bytes=4096,
                            n_elements=128,
                            partner_logical=partner,
                        ),
                    )
                ),
            ),
            id="couples-8spe-copy-4KiB",
        ),
        # conflicts 2046 on the reference engine, 2039 on the fast one
        pytest.param(
            spec_for("copy", n_spes=1, n_elements=128, partner_logical=1),
            id="pair-copy-16KiB",
            marks=WHOLE_LEG_MERGE,
        ),
        # conflicts 1984 vs 1760, wait cycles 1,514,624 vs 1,339,264
        pytest.param(
            spec_for("copy", n_spes=1, n_elements=128, sync_every=4,
                     partner_logical=1),
            id="pair-copy-16KiB-sync4",
            marks=WHOLE_LEG_MERGE,
        ),
        # conflicts 511 vs 510
        pytest.param(
            spec_for("get", n_spes=1, element_bytes=4096, n_elements=256,
                     partner_logical=1),
            id="pair-get-4KiB",
            marks=WHOLE_LEG_MERGE,
        ),
    ]

    @pytest.mark.parametrize("spec", CASES)
    def test_fast_counts_equal_reference(self, spec, monkeypatch):
        assert eib_counters(spec, "fast", monkeypatch) == eib_counters(
            spec, "reference", monkeypatch
        )


class TestExecutorEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            SweepExecutor(jobs=1, engine="turbo")

    def test_engines_are_the_public_tuple(self):
        assert ENGINES == ("reference", "fast")

    def test_fast_executor_samples_match_reference(self):
        specs = [spec_for("copy", seed=seed) for seed in (1000, 1001)]
        with SweepExecutor(jobs=1) as reference:
            expected = reference.samples(list(specs))
        with SweepExecutor(jobs=1, engine="fast") as fast:
            got = fast.samples(list(specs))
        assert got == expected
