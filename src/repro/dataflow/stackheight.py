"""Stack-height analysis (DataflowAPI; consumed by StackwalkerAPI).

Tracks the offset of ``sp`` from its value at function entry, at every
instruction.  RISC-V compilers commonly omit the frame pointer
(paper §3.2.7), so walking the stack requires knowing, for any pc, how
far sp has moved and where the return address was saved — exactly what
this analysis computes:

* ``height_before(addr)`` — sp displacement (<= 0) before the
  instruction at *addr* executes;
* ``ra_slot`` — the entry-sp-relative offset where ra was stored, if the
  function saves it;
* ``fp_saved_slot`` — likewise for s0 when used as a frame pointer.

Heights form a constant-propagation lattice: unknown sp arithmetic
(e.g. ``sub sp, sp, t0`` for VLAs) poisons the height to BOTTOM and the
stack walker falls back to other steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parse.cfg import Function
from ..riscv.registers import SP
from .constprop import defines

#: Lattice bottom: height not statically known.
BOTTOM = None


@dataclass
class StackHeightResult:
    function: Function
    #: instruction addr -> height (int) or BOTTOM
    heights: dict[int, int | None]
    #: entry-sp-relative offset of the saved ra, or None (leaf function)
    ra_slot: int | None = None
    #: address of the instruction that saves ra (for is-it-saved-yet
    #: queries by the stack walker)
    ra_save_addr: int | None = None
    #: entry-sp-relative offset of the saved s0 (frame pointer), or None
    fp_saved_slot: int | None = None
    #: maximum frame extent observed (most negative height)
    frame_size: int = 0

    def height_before(self, addr: int) -> int | None:
        return self.heights.get(addr, BOTTOM)


def analyze_stack_height(fn: Function) -> StackHeightResult:
    """Forward constant propagation of sp displacement over the CFG."""
    heights: dict[int, int | None] = {}
    in_height: dict[int, int | None | object] = {}  # block -> height
    UNSEEN = object()
    for a in fn.blocks:
        in_height[a] = UNSEEN
    in_height[fn.entry] = 0

    ra_slot: int | None = None
    ra_save_addr: int | None = None
    fp_saved_slot: int | None = None
    frame_min = 0

    work = [fn.entry]
    while work:
        addr = work.pop()
        block = fn.blocks[addr]
        h = in_height[addr]
        if h is UNSEEN:
            continue
        cur: int | None = h  # type: ignore[assignment]
        for insn in block.insns:
            prev = heights.get(insn.address, UNSEEN)
            heights[insn.address] = cur if prev is UNSEEN or prev == cur \
                else BOTTOM
            f = insn.raw.fields
            mn = insn.mnemonic
            if cur is not None:
                if mn == "addi" and f.get("rd") == 2 and f.get("rs1") == 2:
                    cur = cur + f["imm"]
                    frame_min = min(frame_min, cur)
                elif mn == "sd" and f.get("rs1") == 2:
                    if f.get("rs2") == 1 and ra_slot is None:
                        ra_slot = cur + f["imm"]
                        ra_save_addr = insn.address
                    if f.get("rs2") == 8 and fp_saved_slot is None:
                        fp_saved_slot = cur + f["imm"]
                elif defines(insn, SP):
                    cur = BOTTOM  # non-addi redefinition of sp
            else:
                cur = BOTTOM
        for succ in fn.intraproc_successors(block):
            old = in_height[succ]
            new = cur
            if old is UNSEEN:
                in_height[succ] = new
                work.append(succ)
            elif old != new:
                if old is not BOTTOM:
                    in_height[succ] = BOTTOM
                    work.append(succ)
    return StackHeightResult(
        fn, heights, ra_slot=ra_slot, ra_save_addr=ra_save_addr,
        fp_saved_slot=fp_saved_slot, frame_size=-frame_min)
