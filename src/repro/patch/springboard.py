"""Springboards: the jump from original code into a trampoline.

The paper's §3.1.2 efficiency ladder, most to least efficient:

1. ``jal x0``      — 4 bytes, ±1 MiB: the workhorse.
2. ``c.j``         — 2 bytes, ±2 KiB: when only 2 bytes are available
   (e.g. a compressed-only point or a function shorter than 4 bytes)
   and the trampoline is close.
3. ``auipc``+``jalr`` — 8 bytes, ±2 GiB: far trampolines; needs a
   scratch register, so the springboard first spills one below sp
   (16 bytes total).
4. trap (``c.ebreak``/``ebreak``) — 2/4 bytes, any distance: the
   "inefficient 2-byte trap instruction in the worst case".  Traps are
   resolved through the runtime's trap-redirect map.

:func:`build_springboard` walks the ladder once; the springboard's
length is the slot it overwrites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import faults
from ..errors import ReproError
from ..riscv.compressed import CJ_RANGE, encode_compressed
from ..riscv.encoder import encode
from ..riscv.encoding import fits_signed
from ..riscv.extensions import ISASubset
from ..riscv.materialize import pcrel_hi_lo


class SpringboardKind(enum.Enum):
    CJ = "c.j"
    JAL = "jal"
    AUIPC_JALR = "auipc+jalr"
    TRAP = "trap"


@dataclass(frozen=True)
class Springboard:
    """A built springboard: bytes to write at the patch site."""

    kind: SpringboardKind
    code: bytes
    #: True when the runtime must map this site in the trap-redirect map
    needs_trap: bool = False
    #: register spilled by the auipc+jalr form (restored by trampoline)
    clobbers: int | None = None
    #: True when ladder pressure forced the trap tier
    fell_back: bool = False

    def patched_range(self, site: int) -> tuple[int, int]:
        """The [lo, hi) code bytes this springboard overwrites at *site*
        — the span a live machine must invalidate (closures and traces)
        when the springboard is installed or removed."""
        return site, site + len(self.code)


class SpringboardError(ReproError, ValueError):
    pass


#: scratch register the far springboard uses (t6: never an argument or
#: return register; the trampoline preamble reloads it from the stack).
FAR_SCRATCH = 31

#: byte size of the far springboard: addi sp + sd + auipc + jalr
FAR_SIZE = 16


def build_springboard(site: int, target: int, available: int,
                      isa: ISASubset) -> Springboard:
    """Walk the §3.1.2 ladder once for a springboard at *site*.

    Returns the most efficient rung that reaches *target* and fits the
    *available* bytes left before the block ends.

    Ladder exhaustion — the ``patch.springboard.ladder`` pressure site
    firing — degrades to the trap tier (the paper's any-distance worst
    case) instead of aborting the commit, and the springboard records
    it as ``fell_back`` for the ``springboard.trap_fallbacks`` counter.
    Only a slot too small for even a compressed trap is an error.
    """
    fell_back = faults.pressure("patch.springboard.ladder")
    faults.site("patch.springboard.build")
    has_c = isa.supports("c")
    disp = target - site

    if not fell_back:
        if available >= 4 and fits_signed(disp, 21):
            code = encode("jal", rd=0, imm=disp).to_bytes(4, "little")
            return Springboard(SpringboardKind.JAL, code)
        if available >= 2 and has_c and CJ_RANGE[0] <= disp <= CJ_RANGE[1]:
            code = encode_compressed("c.j", imm=disp).to_bytes(2, "little")
            return Springboard(SpringboardKind.CJ, code)
        # spill t6 below sp, auipc+jalr; auipc is the 3rd instruction
        if available >= FAR_SIZE and fits_signed(target - (site + 8), 32):
            hi, lo = pcrel_hi_lo(target, site + 8)
            code = b"".join(w.to_bytes(4, "little") for w in (
                encode("addi", rd=2, rs1=2, imm=-16),
                encode("sd", rs2=FAR_SCRATCH, rs1=2, imm=8),
                encode("auipc", rd=FAR_SCRATCH, imm=hi),
                encode("jalr", rd=0, rs1=FAR_SCRATCH, imm=lo),
            ))
            return Springboard(SpringboardKind.AUIPC_JALR, code,
                               clobbers=FAR_SCRATCH)

    if available >= 4:
        code = encode("ebreak").to_bytes(4, "little")
    elif available >= 2 and has_c:
        code = encode_compressed("c.ebreak").to_bytes(2, "little")
    else:
        raise SpringboardError(
            f"no room for a springboard at {site:#x}: {available} bytes"
            + ("" if has_c else " (a 2-byte trap needs the C extension)"))
    return Springboard(SpringboardKind.TRAP, code, needs_trap=True,
                       fell_back=fell_back)


def far_preamble_restore() -> list[tuple[str, dict[str, int]]]:
    """Instructions a trampoline must run first when entered through an
    AUIPC_JALR springboard: restore the spilled scratch and sp."""
    return [
        ("ld", {"rd": FAR_SCRATCH, "rs1": 2, "imm": 8}),
        ("addi", {"rd": 2, "rs1": 2, "imm": 16}),
    ]
