"""DataflowAPI: liveness, slicing, constant resolution, stack height,
dominators."""

from ..parse.loops import dominators
from .constprop import At, reaching_defs, resolve_register
from .liveness import (
    ALL_REGS, CALL_KILLS, CALL_USES, EXIT_LIVE, LivenessResult,
    analyze_liveness, insn_uses_defs,
)
from .slicing import (
    MEM, SliceGraph, backward_slice, build_slice_graph, forward_slice,
    insn_uses,
)
from .interproc import (
    CONSERVATIVE, FunctionSummary, InterproceduralLiveness,
    analyze_interprocedural,
)
from .stackheight import BOTTOM, StackHeightResult, analyze_stack_height

__all__ = [
    "dominators", "At", "reaching_defs", "resolve_register",
    "ALL_REGS", "CALL_KILLS", "CALL_USES", "EXIT_LIVE", "LivenessResult",
    "analyze_liveness", "insn_uses_defs",
    "MEM", "SliceGraph", "backward_slice", "build_slice_graph",
    "forward_slice", "insn_uses",
    "BOTTOM", "StackHeightResult", "analyze_stack_height",
    "CONSERVATIVE", "FunctionSummary", "InterproceduralLiveness",
    "analyze_interprocedural",
]
