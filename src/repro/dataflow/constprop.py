"""Backward constant resolution over straight-line instruction sequences.

This is the DataflowAPI primitive ParseAPI leans on (paper §3.2.3):
"ParseAPI tries to determine the exact value of the target register by
performing a backward slice on it.  If the result of the slicing yields a
constant..." — used to resolve ``jalr`` targets formed by
``auipc``+``jalr``, ``lui``/``addi`` materialisation chains, and (with a
memory oracle) jump-table loads.

The resolver walks backward from a use, following the *single* reaching
definition of each register of interest within the given instruction
window, and evaluates the defining expressions with the SAIL-derived
semantics.  Anything it cannot prove constant yields ``None`` — exactly
the conservative failure mode the paper describes (the jalr is then
handed to jump-table analysis, and failing that marked unresolvable).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..instruction.insn import Insn
from ..riscv.registers import Register
from ..semantics import semantics_for
from ..semantics.ir import (
    BinOp, Const, Expr, Extend, ILen, ITE, MemRead, OperandRef, PC, RegRef,
    RegWrite, UnOp,
)
from ..semantics.evaluate import _binop, _extend, _unop  # shared kernel
from ..riscv.encoding import to_unsigned

#: Optional oracle: read n bytes of initialised memory at vaddr
#: (e.g. Symtab.read); returns None when unavailable.
MemReader = Callable[[int, int], int | None]


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
        return _resolve(window, use_index - 1, reg, mem_reader, max_depth)
    except _Unresolved:
        return None


def _resolve(window: Sequence[Insn], from_index: int, reg: Register,
             mem_reader: MemReader | None, depth: int) -> int:
    if depth <= 0:
        raise _Unresolved
    if reg.is_zero:
        return 0
    if reg.regclass.value != "int":
        raise _Unresolved
    for i in range(from_index, -1, -1):
        insn = window[i]
        raw = insn.raw
        defs = {n for rf, n in _int_defs(insn) if rf == "x"}
        if reg.number not in defs:
            # An instruction with imprecise semantics that *might* write
            # the register kills resolution conservatively.
            continue
        sem = semantics_for(raw)
        if sem is None:
            raise _Unresolved
        # Find the (unconditional) RegWrite producing reg.
        for eff in sem.effects:
            if isinstance(eff, RegWrite) and eff.regfile == "x" and \
                    raw.fields.get(eff.operand) == reg.number:
                return _eval(eff.value, window, i, insn, mem_reader, depth)
        raise _Unresolved  # defined only conditionally
    raise _Unresolved  # no definition in the window


def _int_defs(insn: Insn):
    from ..semantics import register_defs

    return register_defs(insn.raw)


def _eval(e: Expr, window: Sequence[Insn], at: int, insn: Insn,
          mem_reader: MemReader | None, depth: int) -> int:
    if isinstance(e, Const):
        return to_unsigned(e.value, 64)
    if isinstance(e, PC):
        return to_unsigned(insn.address, 64)
    if isinstance(e, ILen):
        return insn.length
    if isinstance(e, OperandRef):
        v = insn.raw.fields.get(e.name)
        if v is None:
            raise _Unresolved
        return to_unsigned(v, 64)
    if isinstance(e, RegRef):
        if e.regfile != "x":
            raise _Unresolved
        n = insn.raw.fields.get(e.operand)
        if n is None:
            raise _Unresolved
        from ..riscv.registers import xreg

        return _resolve(window, at - 1, xreg(n), mem_reader, depth - 1)
    if isinstance(e, BinOp):
        return _binop(e.op,
                      _eval(e.lhs, window, at, insn, mem_reader, depth),
                      _eval(e.rhs, window, at, insn, mem_reader, depth))
    if isinstance(e, UnOp):
        return _unop(e.op, _eval(e.operand, window, at, insn, mem_reader,
                                 depth))
    if isinstance(e, Extend):
        return _extend(e.kind, _eval(e.operand, window, at, insn, mem_reader,
                                     depth), e.width)
    if isinstance(e, MemRead):
        if mem_reader is None:
            raise _Unresolved
        addr = _eval(e.addr, window, at, insn, mem_reader, depth)
        v = mem_reader(addr, e.size)
        if v is None:
            raise _Unresolved
        return to_unsigned(v, 64)
    if isinstance(e, ITE):
        # Sound when the condition itself resolves: pick that branch.
        cond = _eval(e.cond, window, at, insn, mem_reader, depth)
        branch = e.then if cond else e.otherwise
        return _eval(branch, window, at, insn, mem_reader, depth)
    raise _Unresolved
