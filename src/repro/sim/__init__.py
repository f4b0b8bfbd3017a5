"""Generic discrete-event simulation kernel.

This subpackage knows nothing about the Cell Broadband Engine: it provides
the event loop, process (generator) scheduling, waitable events, shared
resources and instrumentation that ``repro.cell`` builds its hardware
models on.  The API intentionally mirrors a small subset of SimPy so the
hardware models read like standard DES code.

Typical usage::

    from repro.sim import Environment

    env = Environment()

    def producer(env, store):
        for i in range(3):
            yield env.timeout(10)
            yield store.put(i)

    env.process(producer(env, store))
    env.run()
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Completion,
    Environment,
    Event,
    Interrupt,
    Process,
    ProgressGuard,
    SimulationError,
    SimulationStall,
    Timeout,
)
from repro.sim.engine_fast import (
    ENGINES,
    FastActor,
    FastEnvironment,
    resolve_engine,
)
from repro.sim.faults import (
    FaultEngine,
    FaultReport,
    FaultSpecError,
    NULL_FAULTS,
    NullFaultEngine,
    SpeFaultPlan,
    parse_fault_spec,
)
from repro.sim.resources import Container, Resource, Store
from repro.sim.monitor import BusyMonitor, Counter, TimeSeries
from repro.sim.sanitizer import (
    DmaSanitizer,
    NULL_SANITIZER,
    NullSanitizer,
)
from repro.sim.trace import (
    DmaHazard,
    FaultInjected,
    NULL_TRACE,
    NullTraceRecorder,
    TraceRecorder,
    TraceSummary,
    read_chrome_trace,
    records_from_chrome,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyMonitor",
    "Completion",
    "Container",
    "Counter",
    "DmaHazard",
    "DmaSanitizer",
    "ENGINES",
    "Environment",
    "Event",
    "FastActor",
    "FastEnvironment",
    "FaultEngine",
    "FaultInjected",
    "FaultReport",
    "FaultSpecError",
    "Interrupt",
    "NULL_FAULTS",
    "NULL_SANITIZER",
    "NULL_TRACE",
    "NullFaultEngine",
    "NullSanitizer",
    "NullTraceRecorder",
    "Process",
    "ProgressGuard",
    "Resource",
    "SimulationError",
    "SimulationStall",
    "SpeFaultPlan",
    "Store",
    "TimeSeries",
    "Timeout",
    "TraceRecorder",
    "TraceSummary",
    "parse_fault_spec",
    "read_chrome_trace",
    "resolve_engine",
    "records_from_chrome",
    "to_chrome_trace",
    "write_chrome_trace",
]
