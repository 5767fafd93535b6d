"""InstructionAPI: ISA-independent instruction abstraction (paper §3.2.2).

Wraps the low-level decode result with what tools consume: typed
operands with read/write attribution, abstract categories, register
read/write sets and memory-access descriptions (all sourced from the
semantics registry's per-mnemonic facts, i.e. the SAIL-pipeline output
where available — the operand-access information the authors upstreamed
to Capstone v6).

Note what this layer deliberately does *not* decide: whether a
``jal``/``jalr`` is a call, return, jump or tail call.  On RISC-V that is
context-dependent (§3.1.3) and belongs to ParseAPI's classifier.
InstructionAPI only reports the raw control-flow facts (writes pc, link
register, target expression).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..riscv.decoder import decode
from ..riscv.instr import Instruction
from ..riscv.opcodes import (
    OP_AMO, OP_BRANCH, OP_JAL, OP_JALR, OP_LOAD, OP_LOAD_FP, OP_MISC_MEM,
    OP_STORE, OP_STORE_FP, OP_SYSTEM,
)
from ..riscv.registers import RA, Register, T0, freg, xreg
from ..semantics import facts_for, register_defs, register_uses


class InsnCategory(enum.Enum):
    """Abstract instruction categories (InstructionAPI's c_* categories)."""

    ARITHMETIC = "arithmetic"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"            # conditional control transfer
    JUMP = "jump"                # jal/jalr: resolved further by ParseAPI
    ATOMIC = "atomic"
    FLOAT = "float"
    CSR = "csr"
    FENCE = "fence"
    SYSCALL = "syscall"
    TRAP = "trap"
    NOP = "nop"


#: Link registers per the RISC-V calling convention: x1 (ra) and the
#: alternate link register x5 (t0).
LINK_REGISTERS: frozenset[Register] = frozenset({RA, T0})


@dataclass(frozen=True)
class MemAccess:
    """A memory operand: base register + displacement, *size* bytes."""

    base: Register
    displacement: int
    size: int
    is_read: bool
    is_write: bool


@dataclass(frozen=True)
class Operand:
    """One typed operand with access attribution."""

    value: Register | int
    is_read: bool
    is_written: bool

    @property
    def is_register(self) -> bool:
        return isinstance(self.value, Register)


class Insn:
    """One instruction at a concrete address."""

    __slots__ = ("raw", "address")

    def __init__(self, raw: Instruction, address: int):
        self.raw = raw
        self.address = address

    # -- identity ---------------------------------------------------------

    @property
    def mnemonic(self) -> str:
        return self.raw.mnemonic

    @property
    def length(self) -> int:
        return self.raw.length

    @property
    def extension(self) -> str:
        return self.raw.extension

    @property
    def is_compressed(self) -> bool:
        return self.raw.length == 2

    @property
    def next_address(self) -> int:
        return self.address + self.raw.length

    def disasm(self) -> str:
        return self.raw.disasm()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Insn {self.address:#x}: {self.disasm()}>"

    # -- categories ----------------------------------------------------------

    @property
    def category(self) -> InsnCategory:
        mn = self.mnemonic
        opc = self.raw.spec.match & 0x7F
        if mn == "ebreak":
            return InsnCategory.TRAP
        if mn == "ecall":
            return InsnCategory.SYSCALL
        if opc == OP_BRANCH:
            return InsnCategory.BRANCH
        if opc in (OP_JAL, OP_JALR):
            return InsnCategory.JUMP
        if opc in (OP_LOAD, OP_LOAD_FP):
            return InsnCategory.LOAD
        if opc in (OP_STORE, OP_STORE_FP):
            return InsnCategory.STORE
        if opc == OP_AMO:
            return InsnCategory.ATOMIC
        if opc == OP_MISC_MEM:
            return InsnCategory.FENCE
        if opc == OP_SYSTEM:
            return InsnCategory.CSR
        if self.is_nop:
            return InsnCategory.NOP
        if self.raw.spec.extension in ("f", "d") or mn.startswith("f"):
            return InsnCategory.FLOAT
        return InsnCategory.ARITHMETIC

    @property
    def is_nop(self) -> bool:
        f = self.raw.fields
        return (self.mnemonic == "addi" and f.get("rd") == 0
                and f.get("rs1") == 0 and f.get("imm") == 0)

    # -- control flow (raw facts; classification is ParseAPI's job) -----------

    @property
    def writes_pc(self) -> bool:
        opc = self.raw.spec.match & 0x7F
        return opc in (OP_BRANCH, OP_JAL, OP_JALR)

    @property
    def is_conditional_branch(self) -> bool:
        return (self.raw.spec.match & 0x7F) == OP_BRANCH

    @property
    def is_jal(self) -> bool:
        return self.mnemonic == "jal"

    @property
    def is_jalr(self) -> bool:
        return self.mnemonic == "jalr"

    @property
    def link_register(self) -> Register | None:
        """rd of jal/jalr (None otherwise).  x0 means "no link saved"."""
        if self.mnemonic in ("jal", "jalr"):
            return xreg(self.raw.fields["rd"])
        return None

    @property
    def links(self) -> bool:
        """True when this jal/jalr saves a return address to a link
        register (the call convention signal, §3.2.3)."""
        lr = self.link_register
        return lr is not None and lr in LINK_REGISTERS

    def direct_target(self) -> int | None:
        """Absolute target for jal and conditional branches."""
        if self.mnemonic == "jal" or self.is_conditional_branch:
            return self.address + self.raw.fields["imm"]
        return None

    @property
    def indirect_base(self) -> Register | None:
        """rs1 of jalr (the register holding the target)."""
        if self.is_jalr:
            return xreg(self.raw.fields["rs1"])
        return None

    # -- operands ----------------------------------------------------------------

    def operands(self) -> list[Operand]:
        """Typed operands in assembly order with read/write attribution."""
        out: list[Operand] = []
        spec = self.raw.spec
        f = self.raw.fields
        for op in spec.operands:
            key = op[1:] if op.startswith("f") else op
            if key in ("rd", "rs1", "rs2", "rs3"):
                n = f.get(key)
                if n is None:
                    continue
                reg = freg(n) if op.startswith("f") else xreg(n)
                written = key == "rd"
                # AMO/sc rd is written, rs* read; jalr rs1 read; stores
                # read rs2.  rd of a pure store never appears.
                read = not written
                out.append(Operand(reg, read, written))
            elif key in ("imm", "shamt", "zimm", "csr"):
                v = f.get(key)
                if v is not None:
                    out.append(Operand(v, True, False))
        return out

    def read_set(self) -> set[Register]:
        """Registers read (semantics-derived where available)."""
        return {
            (xreg(n) if rf == "x" else freg(n))
            for rf, n in register_uses(self.raw)
        }

    def write_set(self) -> set[Register]:
        """Registers written."""
        return {
            (xreg(n) if rf == "x" else freg(n))
            for rf, n in register_defs(self.raw)
        }

    # -- memory ------------------------------------------------------------------

    def memory_access(self) -> MemAccess | None:
        """Base+displacement memory operand, when present."""
        facts = facts_for(self.mnemonic)
        if facts.mem is None:
            return None
        base, disp, size = facts.mem
        f = self.raw.fields
        return MemAccess(xreg(f[base]), f[disp] if disp else 0, size,
                         facts.reads_memory, facts.writes_memory)

    @property
    def reads_memory(self) -> bool:
        return facts_for(self.mnemonic).reads_memory

    @property
    def writes_memory(self) -> bool:
        return facts_for(self.mnemonic).writes_memory


def decode_insn(data: bytes | memoryview, offset: int, address: int) -> Insn:
    """Decode one instruction into the InstructionAPI representation."""
    return Insn(decode(data, offset, address), address)
