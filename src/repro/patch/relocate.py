"""Instruction relocation: moving original code into a trampoline.

Code patching overwrites instructions at the point with a springboard;
the displaced instructions execute in the trampoline instead ("creating
a new version of the block ... and relocating this code", paper §1).
Position-dependent instructions must be rewritten:

* ``auipc`` — its result is a constant of the *original* pc: relocated
  as an immediate materialisation of that constant;
* ``jal`` — ``jal x0`` becomes an absolute jump; a call becomes an
  ``auipc``+``jalr`` call using the link register as scratch;
* conditional branches — redirected to a stub that jumps to the
  original target (the fall-through path continues in the trampoline);
* compressed instructions — relocated as their 4-byte expansions;
* everything else is position-independent and copies verbatim.

The lowering emits straight into a
:class:`~repro.patch.trampoline.TrampolineBuilder`, which lays the items
out and resolves stub and jump offsets.
"""

from __future__ import annotations

from .. import faults
from ..errors import ReproError
from ..instruction.insn import Insn
from ..riscv.encoding import sign_extend
from ..riscv.materialize import materialize_imm


class RelocationError(ReproError, ValueError):
    pass


def lower_relocated(insns: list[Insn], builder, taken=()) -> bool:
    """Emit displaced original instructions into *builder*.

    A displaced conditional branch branches to a stub holding the
    *taken* payload (an edge point's) and a jump to its original
    target.  Returns True when the run ends in control flow that never
    falls through (no jump back is needed after it).
    """
    faults.site("patch.relocate.lower")
    diverts = False
    for insn in insns:
        mn = insn.mnemonic
        f = dict(insn.raw.fields)
        diverts = False
        if mn == "auipc":
            value = (insn.address + (sign_extend(f["imm"], 20) << 12)) & (
                (1 << 64) - 1)
            builder.add_instructions(materialize_imm(f["rd"], value))
        elif mn == "jal" and f["rd"] == 0:
            builder.add_jump_abs(insn.address + f["imm"])
            diverts = True
        elif mn == "jal":
            builder.add_call_abs(insn.address + f["imm"], f["rd"])
        elif insn.is_conditional_branch:
            stub = builder.add_stub(taken, insn.address + f["imm"])
            builder.add_branch(mn, {"rs1": f["rs1"], "rs2": f["rs2"]}, stub)
        else:
            # Position-independent: copy (compressed forms as their
            # 4-byte expansion).
            builder.add_instructions([(mn, f)])
            diverts = mn == "ebreak" or (mn == "jalr" and f.get("rd") == 0)
    return diverts


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
