"""Instruction encoder: mnemonic + fields -> machine-code bytes.

Used by the assembler and by CodeGenAPI.  The encoder is the write-side
twin of :mod:`repro.riscv.decoder`: both walk a spec's field layout from
:mod:`repro.riscv.encoding`, which places and range-checks every field.
A hypothesis round-trip test pins the two together for every
instruction in the spec table.
"""

from __future__ import annotations

from .encoding import DYNAMIC_RM, EncodingError, layout
from .instr import Instruction
from .opcodes import InstrSpec, by_mnemonic


def encode_fields(spec: InstrSpec, fields: dict[str, int]) -> int:
    """Encode a 32-bit word from an :class:`InstrSpec` and a field dict.

    Fields use the canonical keys ``rd rs1 rs2 rs3 imm shamt csr zimm rm
    aq rl fm pred succ``; register fields hold register numbers.  The
    spec's :func:`~repro.riscv.encoding.layout` says which it takes,
    and which of them have a default.
    """
    word = spec.match
    for name, field in layout(spec):
        value = fields.get(name, field.default)
        if value is None:
            raise EncodingError(f"{spec.mnemonic}: missing operand {name!r}")
        placed = field.put(value)
        if placed is None:
            raise EncodingError(
                f"{spec.mnemonic}: {name} {value} is outside "
                f"{field.lo}..{field.hi} or misaligned")
        word |= placed
    return word


def encode(mnemonic: str, **fields: int) -> int:
    """Encode one instruction to its 32-bit word."""
    return encode_fields(by_mnemonic(mnemonic), dict(fields))


def encode_bytes(mnemonic: str, **fields: int) -> bytes:
    """Encode one instruction to little-endian bytes."""
    return encode(mnemonic, **fields).to_bytes(4, "little")


def make(mnemonic: str, **fields: int) -> Instruction:
    """Construct an :class:`Instruction` (validating the encoding).

    A free rounding mode left out is the dynamic one, as in the
    encoding."""
    spec = by_mnemonic(mnemonic)
    if spec.has_rm:
        fields.setdefault("rm", DYNAMIC_RM)
    word = encode_fields(spec, dict(fields))
    return Instruction(spec=spec, fields=dict(fields), length=4, raw=word)


def instruction_bytes(instr: Instruction) -> bytes:
    """Re-encode an :class:`Instruction` to bytes.

    Standard instructions re-encode through the spec table.  Instructions
    decoded from a compressed encoding are emitted back as their original
    2-byte form.
    """
    if instr.length == 2:
        return instr.raw.to_bytes(2, "little")
    return encode_fields(instr.spec, instr.fields).to_bytes(4, "little")
