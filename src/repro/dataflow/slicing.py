"""Program slicing over the CFG (DataflowAPI, paper §2.1/§3.2.4).

Backward slicing ("instructions that affected data") and forward slicing
("instructions affected by data") built on the def/use sets the
semantics registry provides.  Each use is linked to the definitions
that reach it by the same backward walk along the CFG that constant
resolution uses (:func:`repro.dataflow.constprop.reaching_defs`), so a
call defines every caller-saved register here too.

Abstract locations are registers plus a single coarse ``MEM`` location
(optional): precise enough for the paper's uses — resolving jalr targets
(via :mod:`repro.dataflow.constprop`), understanding address formation —
while staying sound.  A store does not hide earlier stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..instruction.insn import Insn
from ..parse.cfg import Function
from ..riscv.registers import Register
from ..semantics import (
    reads_memory, register_masks, register_uses, writes_memory,
)
from .constprop import At, reaching_defs

#: Abstract location: ("x"|"f", regnum) or the coarse memory location.
AbsLoc = Hashable
MEM: AbsLoc = ("mem", 0)


def insn_uses(insn: Insn, include_memory: bool = False) -> set[AbsLoc]:
    out: set[AbsLoc] = set(register_uses(insn.raw))
    if include_memory and reads_memory(insn.raw):
        out.add(MEM)
    return out


def _regloc(reg: Register) -> AbsLoc:
    return (reg.regclass.value[0] if reg.regclass.value != "int" else "x",
            reg.number)


@dataclass
class SliceGraph:
    """Def-use graph of one function: nodes are instruction addresses."""

    function: Function
    include_memory: bool = False
    #: addr -> {(use_loc, def_addr)}: reaching definition links
    reaching: dict[int, set[tuple[AbsLoc, int]]] = field(
        default_factory=dict)
    #: def_addr -> {use_addr}
    uses_of: dict[int, set[int]] = field(default_factory=dict)

    def backward_slice(self, addr: int,
                       loc: Register | AbsLoc | None = None) -> set[int]:
        """Addresses of instructions whose results flow into *addr*.

        With *loc*, only flows into that location's use are followed;
        otherwise all uses of the instruction.
        """
        if isinstance(loc, Register):
            loc = _regloc(loc)
        result: set[int] = set()
        work: list[int] = []
        for use_loc, def_addr in self.reaching.get(addr, ()):
            if loc is None or use_loc == loc:
                work.append(def_addr)
        while work:
            a = work.pop()
            if a in result:
                continue
            result.add(a)
            for _, def_addr in self.reaching.get(a, ()):
                work.append(def_addr)
        return result

    def forward_slice(self, addr: int) -> set[int]:
        """Addresses of instructions affected by *addr*'s definitions."""
        result: set[int] = set()
        work = list(self.uses_of.get(addr, ()))
        while work:
            a = work.pop()
            if a in result:
                continue
            result.add(a)
            work.extend(self.uses_of.get(a, ()))
        return result


def _bit(loc: AbsLoc) -> int:
    """*loc*'s bit in :func:`_defs`' masks."""
    if loc == MEM:
        return 1 << 64
    return 1 << (loc[1] + (32 if loc[0] == "f" else 0))


def _defs(insn: Insn) -> int:
    """Register definitions as :func:`register_masks` has them, and
    bit 64 for a store."""
    raw = insn.raw
    return register_masks(raw)[1] | writes_memory(raw) << 64


def build_slice_graph(fn: Function,
                      include_memory: bool = False) -> SliceGraph:
    """Link each use of each instruction to the definitions that reach
    it along *fn*'s CFG."""
    preds = fn.intraproc_preds()
    graph = SliceGraph(fn, include_memory)
    for block in fn.blocks.values():
        for i, insn in enumerate(block.insns):
            at = At(preds, block, i)
            links: set[tuple[AbsLoc, int]] = set()
            for loc in insn_uses(insn, include_memory):
                for d in reaching_defs(at, _bit(loc), _defs,
                                       may=loc == MEM):
                    if d is not None:
                        def_addr = d.insn.address
                        links.add((loc, def_addr))
                        graph.uses_of.setdefault(def_addr, set()).add(
                            insn.address)
            if links:
                graph.reaching[insn.address] = links
    return graph


def backward_slice(fn: Function, addr: int,
                   reg: Register | None = None,
                   include_memory: bool = False) -> set[int]:
    """One-shot backward slice (paper: used on jalr target registers)."""
    return build_slice_graph(fn, include_memory).backward_slice(addr, reg)


def forward_slice(fn: Function, addr: int,
                  include_memory: bool = False) -> set[int]:
    """One-shot forward slice."""
    return build_slice_graph(fn, include_memory).forward_slice(addr)
