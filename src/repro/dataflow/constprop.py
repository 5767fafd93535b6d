"""Backward reaching definitions along the CFG, and constant resolution.

This is the DataflowAPI primitive ParseAPI leans on (paper §3.2.3):
"ParseAPI tries to determine the exact value of the target register by
performing a backward slice on it.  If the result of the slicing yields a
constant..." — used to resolve ``jalr`` targets formed by
``auipc``+``jalr``, ``lui``/``addi`` materialisation chains, and (with a
memory oracle) jump-table loads.

:func:`reaching_defs` walks backward from a CFG point (:class:`At`)
along the function's intraprocedural in-edges: the partial CFG while
the parser is still discovering the function, the finished one
afterwards.  A definition reaches only along a path, each block is
entered at most once per walk, and a call defines every caller-saved
register.  Jump-table analysis and slicing use the same walk.

:func:`resolve_register` evaluates each reaching definition with the
SAIL semantics' own evaluator (:func:`repro.semantics.eval_expr`), whose
state resolves each register it reads further back.  It yields ``None``
unless every path gives the same provable constant: a path from the
function's entry, a call (the callee ran) or an imprecise definition
fails it, as the paper's conservative failure mode requires.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from ..instruction.insn import Insn
from ..parse.cfg import Block, Edge, EdgeType
from ..riscv.registers import RegClass, Register
from ..semantics import eval_expr, register_masks, semantics_for
from ..semantics.ir import RegWrite
from .liveness import CALL_KILLS_MASK

#: Optional oracle: read n bytes of initialised memory at vaddr
#: (e.g. Symtab.read); returns None when unavailable.
MemReader = Callable[[int, int], int | None]


def defines(insn: Insn, reg: Register) -> bool:
    """Does *insn* write integer register *reg*?  (x0 never is.)"""
    return bool(register_masks(insn.raw)[1] >> reg.number & 1)


class At(NamedTuple):
    """A CFG point: just before ``block.insns[i]``.  *preds* maps each
    block start to its in-edges (:meth:`Function.intraproc_preds`)."""

    preds: Mapping[int, list[Edge | None]]
    block: Block
    i: int

    @property
    def insn(self) -> Insn:
        return self.block.insns[self.i]


def _reg_defs(insn: Insn) -> int:
    return register_masks(insn.raw)[1]


def reaching_defs(at: At, bit: int,
                  defs_of: Callable[[Insn], int] = _reg_defs,
                  may: bool = False,
                  stop: Callable[[Edge], bool] | None = None,
                  ) -> list[At | None]:
    """The points of the definitions of location *bit* that reach *at*;
    None stands for the value the function was entered with.

    *defs_of(insn)* is an instruction's definition mask, by default bit
    *n* for x<n> and 32 + *n* for f<n>; a call also defines every
    caller-saved register (``CALL_KILLS``).  A definition ends its
    path, unless *may* (a store does not hide earlier stores).  A path
    also ends at an in-edge that *stop* accepts.
    """
    preds = at.preds
    found: list[At | None] = []
    seen: set[int] = set()
    work = [(at.block, at.i)]
    while work:
        block, i = work.pop()
        insns = block.insns
        while i:
            i -= 1
            if defs_of(insns[i]) & bit:
                found.append(At(preds, block, i))
                if not may:
                    break
        else:
            for e in preds.get(block.start) or (None,):
                if e is None:
                    found.append(None)
                    continue
                src = e.src
                if src.start in seen or (stop is not None and stop(e)):
                    continue
                seen.add(src.start)
                if e.kind is EdgeType.CALL_FT and bit & CALL_KILLS_MASK:
                    found.append(At(preds, src, len(src.insns) - 1))
                else:
                    work.append((src, len(src.insns)))
    return found


def only_def(at: At, reg: Register) -> At | None:
    """The one definition of *reg* that reaches *at* on every path."""
    defs = reaching_defs(at, 1 << reg.number)
    return defs[0] if len(defs) == 1 else None


class _Unresolved(Exception):
    pass


def resolve_register(at: At, reg: Register,
                     mem_reader: MemReader | None = None,
                     max_depth: int = 64) -> int | None:
    """Value of *reg* at *at*, if every path provably gives the same
    constant; else None."""
    if reg.regclass is not RegClass.INT:
        return None
    try:
        return _resolve(at, reg.number, mem_reader, max_depth)
    except _Unresolved:
        return None


def _resolve(at: At, n: int, mem_reader: MemReader | None,
             depth: int) -> int:
    if depth <= 0:
        raise _Unresolved
    if n == 0:
        return 0
    values = set()
    for d in reaching_defs(at, 1 << n):
        if d is None or d.insn.links:
            raise _Unresolved  # the caller's value, or the callee's
        raw = d.insn.raw
        # An instruction with imprecise semantics that *might* write the
        # register, or writes it only conditionally, kills resolution.
        sem = semantics_for(raw)
        write = None if sem is None else next(
            (e for e in sem.effects if isinstance(e, RegWrite)
             and e.regfile == "x" and raw.fields.get(e.operand) == n),
            None)
        if write is None:
            raise _Unresolved
        values.add(eval_expr(write.value, raw, _Before(d, mem_reader, depth)))
    if len(values) != 1:
        raise _Unresolved  # merging paths disagree
    return values.pop()


class _Before:
    """The state just before the instruction at ``at`` executes, as
    :func:`~repro.semantics.eval_expr` reads it: x registers resolve
    further back, F registers are unknown, memory is the oracle's."""

    __slots__ = ("at", "mem_reader", "depth", "pc")

    def __init__(self, at: At, mem_reader: MemReader | None, depth: int):
        self.at = at
        self.mem_reader = mem_reader
        self.depth = depth
        self.pc = at.insn.address

    def read_xreg(self, n: int) -> int:
        return _resolve(self.at, n, self.mem_reader, self.depth - 1)

    def read_freg(self, n: int) -> int:
        raise _Unresolved

    def read_mem(self, addr: int, size: int) -> int:
        v = None if self.mem_reader is None else self.mem_reader(addr, size)
        if v is None:
            raise _Unresolved
        return v
