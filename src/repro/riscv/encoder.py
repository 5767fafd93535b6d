"""Instruction encoder: mnemonic + fields -> machine-code bytes.

Used by the assembler and by CodeGenAPI.  The encoder is the write-side
twin of :mod:`repro.riscv.decoder`; a hypothesis round-trip test pins the
two together for every instruction in the spec table.
"""

from __future__ import annotations

from . import encoding as enc
from .encoding import EncodingError
from .instr import Instruction
from .opcodes import InstrSpec, by_mnemonic

_DYNAMIC_RM = 0b111


def _require(fields: dict[str, int], name: str, mn: str) -> int:
    try:
        return fields[name]
    except KeyError:
        raise EncodingError(f"{mn}: missing operand {name!r}") from None


def _check_reg(n: int, mn: str, what: str) -> int:
    if not 0 <= n <= 31:
        raise EncodingError(f"{mn}: {what} register number {n} out of range")
    return n


def encode_fields(spec: InstrSpec, fields: dict[str, int]) -> int:
    """Encode a 32-bit word from an :class:`InstrSpec` and a field dict.

    Fields use the canonical keys ``rd rs1 rs2 rs3 imm shamt csr zimm rm
    aq rl pred succ``; register fields hold register numbers.
    """
    mn = spec.mnemonic
    word = spec.match
    fmt = spec.fmt
    ops = {op if op[0] != "f" else op[1:] for op in spec.operands}

    if fmt == "R":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        if "rs2" in ops:
            word |= enc.place_rs2(
                _check_reg(_require(fields, "rs2", mn), mn, "rs2"))
        if spec.has_rm:
            word |= (fields.get("rm", _DYNAMIC_RM) & 0x7) << 12
    elif fmt == "R4":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= enc.place_rs2(_check_reg(_require(fields, "rs2", mn), mn, "rs2"))
        word |= enc.place_rs3(_check_reg(_require(fields, "rs3", mn), mn, "rs3"))
        word |= (fields.get("rm", _DYNAMIC_RM) & 0x7) << 12
    elif fmt == "I":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= enc.encode_imm_i(_require(fields, "imm", mn))
    elif fmt == "S":
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= enc.place_rs2(_check_reg(_require(fields, "rs2", mn), mn, "rs2"))
        word |= enc.encode_imm_s(_require(fields, "imm", mn))
    elif fmt == "B":
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= enc.place_rs2(_check_reg(_require(fields, "rs2", mn), mn, "rs2"))
        word |= enc.encode_imm_b(_require(fields, "imm", mn))
    elif fmt == "U":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.encode_imm_u(_require(fields, "imm", mn))
    elif fmt == "J":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.encode_imm_j(_require(fields, "imm", mn))
    elif fmt == "SHIFT64":
        shamt = _require(fields, "shamt", mn)
        if not 0 <= shamt <= 63:
            raise EncodingError(f"{mn}: shamt {shamt} out of range 0..63")
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= shamt << 20
    elif fmt == "SHIFT32":
        shamt = _require(fields, "shamt", mn)
        if not 0 <= shamt <= 31:
            raise EncodingError(f"{mn}: shamt {shamt} out of range 0..31")
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        word |= shamt << 20
    elif fmt == "AMO":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        if "rs2" in ops:
            word |= enc.place_rs2(
                _check_reg(_require(fields, "rs2", mn), mn, "rs2"))
        word |= (fields.get("aq", 0) & 1) << 26
        word |= (fields.get("rl", 0) & 1) << 25
    elif fmt == "CSR":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        word |= enc.place_rs1(_check_reg(_require(fields, "rs1", mn), mn, "rs1"))
        csr = _require(fields, "csr", mn)
        if not enc.fits_unsigned(csr, 12):
            raise EncodingError(f"{mn}: CSR address {csr} out of range")
        word |= csr << 20
    elif fmt == "CSRI":
        word |= enc.place_rd(_check_reg(_require(fields, "rd", mn), mn, "rd"))
        zimm = _require(fields, "zimm", mn)
        if not enc.fits_unsigned(zimm, 5):
            raise EncodingError(f"{mn}: zimm {zimm} out of range 0..31")
        word |= zimm << 15
        csr = _require(fields, "csr", mn)
        if not enc.fits_unsigned(csr, 12):
            raise EncodingError(f"{mn}: CSR address {csr} out of range")
        word |= csr << 20
    elif fmt == "FENCE":
        # rd/rs1 are reserved-zero fields but architecturally free; keep
        # whatever the decoder captured so re-encoding is lossless.
        word |= enc.place_rd(fields.get("rd", 0))
        word |= enc.place_rs1(fields.get("rs1", 0))
        if spec.operands:
            word |= (fields.get("fm", 0) & 0xF) << 28
            word |= (fields.get("pred", 0xF) & 0xF) << 24
            word |= (fields.get("succ", 0xF) & 0xF) << 20
        else:
            word |= (fields.get("imm", 0) & 0xFFF) << 20
    elif fmt == "SYS":
        pass
    else:  # pragma: no cover - table invariant
        raise EncodingError(f"{mn}: unknown format {fmt}")
    return word & enc.MASK32


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
        fields.setdefault("rm", _DYNAMIC_RM)
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
