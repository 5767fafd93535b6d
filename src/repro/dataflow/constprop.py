"""Backward constant resolution over straight-line instruction sequences.

This is the DataflowAPI primitive ParseAPI leans on (paper §3.2.3):
"ParseAPI tries to determine the exact value of the target register by
performing a backward slice on it.  If the result of the slicing yields a
constant..." — used to resolve ``jalr`` targets formed by
``auipc``+``jalr``, ``lui``/``addi`` materialisation chains, and (with a
memory oracle) jump-table loads.

The resolver walks backward from a use, following the *single* reaching
definition of each register of interest within the given instruction
window, and evaluates the defining expression with the SAIL semantics'
own evaluator (:func:`repro.semantics.eval_expr`): the state it reads
resolves each integer register further back.  Anything it cannot prove
constant yields ``None`` — exactly the conservative failure mode the
paper describes (the jalr is then handed to jump-table analysis, and
failing that marked unresolvable).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..instruction.insn import Insn
from ..riscv.registers import RegClass, Register, xreg
from ..semantics import eval_expr, register_masks, semantics_for
from ..semantics.ir import RegWrite

#: Optional oracle: read n bytes of initialised memory at vaddr
#: (e.g. Symtab.read); returns None when unavailable.
MemReader = Callable[[int, int], int | None]


def defines(insn: Insn, reg: Register) -> bool:
    """Does *insn* write integer register *reg*?  (x0 never is.)"""
    return bool(register_masks(insn.raw)[1] >> reg.number & 1)


def nearest_def(window: Sequence[Insn], before: int,
                reg: Register) -> int | None:
    """Index of the nearest instruction before ``window[before]`` that
    writes integer register *reg*, or None."""
    bit = 1 << reg.number
    for i in range(before - 1, -1, -1):
        if register_masks(window[i].raw)[1] & bit:
            return i
    return None


class _Unresolved(Exception):
    pass


def resolve_register(
    window: Sequence[Insn],
    use_index: int,
    reg: Register,
    mem_reader: MemReader | None = None,
    max_depth: int = 64,
) -> int | None:
    """Value of *reg* immediately before ``window[use_index]`` executes,
    if provably constant within the window; else None.
    """
    try:
        return _resolve(window, use_index, reg, mem_reader, max_depth)
    except _Unresolved:
        return None


def _resolve(window: Sequence[Insn], before: int, reg: Register,
             mem_reader: MemReader | None, depth: int) -> int:
    if depth <= 0:
        raise _Unresolved
    if reg.is_zero:
        return 0
    if reg.regclass is not RegClass.INT:
        raise _Unresolved
    i = nearest_def(window, before, reg)
    if i is None:
        raise _Unresolved  # no definition in the window
    insn = window[i]
    raw = insn.raw
    # An instruction with imprecise semantics that *might* write the
    # register kills resolution conservatively.
    sem = semantics_for(raw)
    if sem is None:
        raise _Unresolved
    for eff in sem.effects:
        if isinstance(eff, RegWrite) and eff.regfile == "x" and \
                raw.fields.get(eff.operand) == reg.number:
            return eval_expr(eff.value, raw,
                             _Before(window, i, mem_reader, depth))
    raise _Unresolved  # defined only conditionally


class _Before:
    """The state just before ``window[at]`` executes, as
    :func:`~repro.semantics.eval_expr` reads it: x registers resolve
    further back, F registers are unknown, memory is the oracle's."""

    __slots__ = ("window", "at", "mem_reader", "depth", "pc")

    def __init__(self, window: Sequence[Insn], at: int,
                 mem_reader: MemReader | None, depth: int):
        self.window = window
        self.at = at
        self.mem_reader = mem_reader
        self.depth = depth
        self.pc = window[at].address

    def read_xreg(self, n: int) -> int:
        return _resolve(self.window, self.at, xreg(n), self.mem_reader,
                        self.depth - 1)

    def read_freg(self, n: int) -> int:
        raise _Unresolved

    def read_mem(self, addr: int, size: int) -> int:
        v = None if self.mem_reader is None else self.mem_reader(addr, size)
        if v is None:
            raise _Unresolved
        return v
