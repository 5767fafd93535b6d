"""Instruction relocation: moving original code into a trampoline.

Code patching overwrites instructions at the point with a springboard;
the displaced instructions execute in the trampoline instead ("creating
a new version of the block ... and relocating this code", paper §1).
Position-dependent instructions must be rewritten:

* ``auipc`` — its result is a constant of the *original* pc: relocated
  as an immediate materialisation of that constant;
* ``jal`` — re-targeted from the new location (or lowered to
  ``auipc``+``jalr`` using the link register as scratch; ``jal x0`` out
  of range becomes an absolute-jump stub);
* conditional branches — redirected to a local stub that jumps to the
  original target (the fall-through path continues in the trampoline);
* compressed instructions — relocated as their 4-byte expansions;
* everything else is position-independent and copies verbatim.

The lowering produces symbolic items; :mod:`repro.patch.trampoline`
lays them out and resolves stub/jump offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import faults
from ..errors import ReproError
from ..instruction.insn import Insn
from ..riscv.encoding import sign_extend
from ..riscv.materialize import materialize_imm

# Symbolic trampoline items:
#   ("i", mn, fields)                 — ordinary instruction
#   ("branch_stub", mn, fields, sid)  — branch to stub sid (imm patched)
#   ("jump_abs", target)              — jump to absolute addr (jal or trap)
Item = tuple


@dataclass
class RelocatedCode:
    """Lowered relocation of a run of original instructions."""

    items: list[Item] = field(default_factory=list)
    #: stub id -> absolute branch-taken target
    stubs: dict[int, int] = field(default_factory=dict)
    #: True when the run ends in control flow that never falls through
    #: (no back-jump needed after it)
    diverts: bool = False


class RelocationError(ReproError, ValueError):
    pass


def lower_relocated(insns: list[Insn]) -> RelocatedCode:
    """Lower displaced original instructions to symbolic trampoline
    items."""
    faults.site("patch.relocate.lower")
    out = RelocatedCode()
    next_stub = 0
    for idx, insn in enumerate(insns):
        mn = insn.mnemonic
        f = dict(insn.raw.fields)
        is_last = idx == len(insns) - 1

        if mn == "auipc":
            value = (insn.address + (sign_extend(f["imm"], 20) << 12)) & (
                (1 << 64) - 1)
            for sub_mn, sub_f in materialize_imm(f["rd"], value):
                out.items.append(("i", sub_mn, sub_f))
        elif mn == "jal":
            target = insn.address + f["imm"]
            if f["rd"] == 0:
                out.items.append(("jump_abs", target))
                if is_last:
                    out.diverts = True
            else:
                # call: use the link register itself as scratch
                out.items.append(("call_abs", target, f["rd"]))
        elif insn.is_conditional_branch:
            target = insn.address + f["imm"]
            sid = next_stub
            next_stub += 1
            out.stubs[sid] = target
            bf = {"rs1": f["rs1"], "rs2": f["rs2"]}
            out.items.append(("branch_stub", mn, bf, sid))
        elif mn == "jalr":
            out.items.append(("i", mn, f))
            if is_last and f.get("rd") == 0:
                out.diverts = True
        elif mn == "ebreak":
            out.items.append(("i", mn, f))
            if is_last:
                out.diverts = True
        else:
            # Position-independent: copy (compressed forms as their
            # 4-byte expansion).
            out.items.append(("i", mn, f))
    return out


def consumed_instructions(insns: list[Insn], start: int,
                          min_bytes: int) -> list[Insn]:
    """The complete instructions starting at *start* covering at least
    *min_bytes* (what a springboard of that size displaces)."""
    faults.site("patch.relocate.consume")
    out: list[Insn] = []
    covered = 0
    for insn in insns:
        if insn.address < start:
            continue
        if covered >= min_bytes:
            break
        out.append(insn)
        covered += insn.length
    if covered < min_bytes:
        raise RelocationError(
            f"only {covered} bytes of instructions at {start:#x}; "
            f"springboard needs {min_bytes}")
    return out
