"""RV64GC functional simulator with deterministic timing models.

The hardware substitute for the paper's SiFive P550 testbed (see
DESIGN.md).  Also provides the debug port that ProcControlAPI drives.
"""

from .executor import BreakpointHit, ExitTrap, SimFault
from .machine import Machine, STACK_TOP, StopEvent, StopReason, run_program
from .memory import Memory, MemoryFault, PAGE_SIZE
from .timing import MODELS, P550, TimingModel, UCYCLE, X86PROXY, category_of
from .trace import TraceCache

__all__ = [
    "BreakpointHit", "ExitTrap", "SimFault",
    "Machine", "STACK_TOP", "StopEvent", "StopReason", "run_program",
    "Memory", "MemoryFault", "PAGE_SIZE",
    "MODELS", "P550", "TimingModel", "UCYCLE", "X86PROXY", "category_of",
    "TraceCache",
]
