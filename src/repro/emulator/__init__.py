"""Functional emulator for the predicated ISA.

The emulator maintains correct architectural state (general, floating-point,
predicate and branch registers plus memory) and walks programs along their
*correct* control-flow path, producing the dynamic instruction stream that
the timing pipeline consumes.  It plays the role of the "IA64 functional
emulator that maintains the correct machine state" provided by the Liberty
Simulation Environment in the original paper (section 4.1).
"""

from repro.emulator.state import ArchState
from repro.emulator.memory_image import MemoryImage
from repro.emulator.executor import Emulator, DynInst, EmulationLimit
from repro.emulator.tracepack import PackCursor, TracePack, TracePackBuilder
from repro.emulator.trace import (
    TRACE_FORMAT_VERSION,
    TraceStatistics,
    collect_trace,
    collect_trace_pack,
    trace_statistics,
)

__all__ = [
    "ArchState",
    "MemoryImage",
    "Emulator",
    "DynInst",
    "EmulationLimit",
    "PackCursor",
    "TracePack",
    "TracePackBuilder",
    "TRACE_FORMAT_VERSION",
    "TraceStatistics",
    "collect_trace",
    "collect_trace_pack",
    "trace_statistics",
]
