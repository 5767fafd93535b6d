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

Unused bytes of the patched slot are filled with (c.)nops.
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


def _pad(code: bytes, size: int, compressed_ok: bool) -> bytes:
    """Pad to the slot size with nops."""
    pad = size - len(code)
    out = bytearray(code)
    if pad % 4 == 2:
        if not compressed_ok:
            raise SpringboardError("2-byte padding requires the C extension")
        out += encode_compressed("c.nop").to_bytes(2, "little")
        pad -= 2
    for _ in range(pad // 4):
        out += encode("addi", rd=0, rs1=0, imm=0).to_bytes(4, "little")
    return bytes(out)


def build_springboard(site: int, target: int, slot_size: int,
                      isa: ISASubset, *,
                      force_trap: bool = False) -> Springboard:
    """Pick and encode the most efficient springboard for jumping from
    *site* to *target* given *slot_size* overwritable bytes.

    ``force_trap=True`` skips ladder rungs 1–3 and encodes the trap
    tier directly — the :class:`~repro.patch.patcher.Patcher` uses it
    when the efficient rungs are exhausted (graceful degradation
    instead of a failed commit).
    """
    faults.site("patch.springboard.build")
    if slot_size < 2:
        raise SpringboardError(f"slot at {site:#x} smaller than 2 bytes")
    has_c = isa.supports("c")
    if slot_size % 2:
        raise SpringboardError("slot size must be even")
    disp = target - site

    # 1. jal x0: single 4-byte instruction, ±1MiB
    if not force_trap \
            and slot_size >= 4 and fits_signed(disp, 21) and disp % 2 == 0:
        code = encode("jal", rd=0, imm=disp).to_bytes(4, "little")
        return Springboard(SpringboardKind.JAL,
                           _pad(code, slot_size, has_c))

    # 2. c.j: 2 bytes, ±2KiB (the only option for 2-byte slots in range)
    if not force_trap \
            and has_c and CJ_RANGE[0] <= disp <= CJ_RANGE[1] and disp % 2 == 0:
        code = encode_compressed("c.j", imm=disp).to_bytes(2, "little")
        return Springboard(SpringboardKind.CJ,
                           _pad(code, slot_size, has_c))

    # 3. far form: spill t6 below sp, auipc+jalr (16 bytes)
    if not force_trap and slot_size >= FAR_SIZE:
        hi, lo = pcrel_hi_lo(target, site + 8)  # auipc is the 3rd insn
        code = b"".join(w.to_bytes(4, "little") for w in (
            encode("addi", rd=2, rs1=2, imm=-16),
            encode("sd", rs2=FAR_SCRATCH, rs1=2, imm=8),
            encode("auipc", rd=FAR_SCRATCH, imm=hi),
            encode("jalr", rd=0, rs1=FAR_SCRATCH, imm=lo),
        ))
        return Springboard(SpringboardKind.AUIPC_JALR,
                           _pad(code, slot_size, has_c),
                           clobbers=FAR_SCRATCH)

    # 4. trap: works at any distance from any slot >= 2 bytes
    if slot_size % 4 == 0:
        code = encode("ebreak").to_bytes(4, "little")
    else:
        if not has_c:
            raise SpringboardError(
                "2-byte trap needs the C extension (c.ebreak)")
        code = encode_compressed("c.ebreak").to_bytes(2, "little")
    return Springboard(SpringboardKind.TRAP, _pad(code, slot_size, has_c),
                       needs_trap=True)


def far_preamble_restore() -> list[tuple[str, dict[str, int]]]:
    """Instructions a trampoline must run first when entered through an
    AUIPC_JALR springboard: restore the spilled scratch and sp."""
    return [
        ("ld", {"rd": FAR_SCRATCH, "rs1": 2, "imm": 8}),
        ("addi", {"rd": 2, "rs1": 2, "imm": 16}),
    ]
