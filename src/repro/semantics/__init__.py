"""Instruction semantics for dataflow analysis (DataflowAPI substrate).

Semantics are produced by the SAIL-substitute pipeline in
:mod:`repro.semantics.sail` and consumed through the registry
(:func:`semantics_for`, :func:`facts_for`, :func:`register_uses`,
:func:`register_defs`, :func:`register_masks`).
"""

from .evaluate import evaluate, eval_expr
from .ir import (
    BinOp, CondEffect, Const, Effect, Expr, Extend, FloatOp, ILen, ITE,
    MemRead, MemWrite, OperandRef, PC, PCWrite, RegRef, RegWrite, Semantics,
    UnOp,
)
from .registry import (
    coverage_report, facts_for, has_precise_semantics, reads_memory,
    register_defs, register_masks, register_uses, sail_semantics,
    semantics_for, writes_memory, writes_pc,
)

__all__ = [
    "BinOp", "CondEffect", "Const", "Effect", "Expr", "Extend", "FloatOp",
    "ILen", "ITE", "MemRead", "MemWrite", "OperandRef", "PC", "PCWrite", "RegRef",
    "RegWrite", "Semantics", "UnOp",
    "evaluate", "eval_expr",
    "coverage_report", "facts_for", "has_precise_semantics",
    "reads_memory", "register_defs", "register_masks", "register_uses",
    "sail_semantics", "semantics_for", "writes_memory", "writes_pc",
]
