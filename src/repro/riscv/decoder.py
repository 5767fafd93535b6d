"""Instruction decoder: bytes -> :class:`~repro.riscv.instr.Instruction`.

The decoder is table-driven from :mod:`repro.riscv.opcodes` for standard
32-bit encodings and delegates 16-bit encodings to
:mod:`repro.riscv.compressed` (which expands them).  This pair of modules
is the Capstone substitute described in DESIGN.md.
"""

from __future__ import annotations

from typing import Iterator

from . import encoding as enc
from .compressed import IllegalCompressed, decode_compressed
from ..errors import ReproError
from .instr import Instruction
from .opcodes import InstrSpec, lookup_word


class DecodeError(ReproError, ValueError):
    """Raised when bytes do not form a known instruction."""

    def __init__(self, message: str, address: int | None = None):
        super().__init__(
            message if address is None else f"{message} at {address:#x}")
        self.address = address


def _extract_fields(spec: InstrSpec, word: int) -> dict[str, int]:
    fmt = spec.fmt
    f: dict[str, int] = {}
    ops = {op if op[0] != "f" else op[1:] for op in spec.operands}
    if fmt in ("R", "R4", "SHIFT64", "SHIFT32", "AMO", "I", "U", "J",
               "CSR", "CSRI"):
        if "rd" in ops or fmt in ("I", "U", "J", "CSR", "CSRI"):
            f["rd"] = enc.field_rd(word)
    if fmt in ("R", "R4", "SHIFT64", "SHIFT32", "AMO", "I", "S", "B", "CSR"):
        f["rs1"] = enc.field_rs1(word)
    if fmt in ("S", "B") or ("rs2" in ops and fmt in ("R", "R4", "AMO")):
        f["rs2"] = enc.field_rs2(word)
    if fmt == "R4":
        f["rs3"] = enc.field_rs3(word)
        f["rm"] = enc.field_funct3(word)
    if fmt == "R" and spec.has_rm:
        f["rm"] = enc.field_funct3(word)
    if fmt == "I":
        f["imm"] = enc.decode_imm_i(word)
    elif fmt == "S":
        f["imm"] = enc.decode_imm_s(word)
    elif fmt == "B":
        f["imm"] = enc.decode_imm_b(word)
    elif fmt == "U":
        f["imm"] = enc.decode_imm_u(word)
    elif fmt == "J":
        f["imm"] = enc.decode_imm_j(word)
    elif fmt == "SHIFT64":
        f["shamt"] = enc.bits(word, 25, 20)
    elif fmt == "SHIFT32":
        f["shamt"] = enc.bits(word, 24, 20)
    elif fmt == "AMO":
        f["aq"] = enc.bit(word, 26)
        f["rl"] = enc.bit(word, 25)
    elif fmt == "CSR":
        f["csr"] = enc.field_csr(word)
    elif fmt == "CSRI":
        f["csr"] = enc.field_csr(word)
        f["zimm"] = enc.field_rs1(word)
    elif fmt == "FENCE":
        f["rd"] = enc.field_rd(word)
        f["rs1"] = enc.field_rs1(word)
        if spec.operands:
            f["fm"] = enc.bits(word, 31, 28)
            f["pred"] = enc.bits(word, 27, 24)
            f["succ"] = enc.bits(word, 23, 20)
        else:
            f["imm"] = enc.bits(word, 31, 20)
    return f


# Decode memoization: identical encodings decode to the *same*
# Instruction object across parsing, patching, and simulation.  Safe
# because Instruction is a frozen dataclass and no caller mutates its
# fields dict (audited: semantics/evaluate.py and all dataflow/patch
# users only read).  Only successful decodes are cached — errors carry
# a per-call-site address annotation.  The caps bound memory under
# adversarial input (fuzzed byte soup); real programs use a few hundred
# distinct encodings.
_WORD_CACHE: dict[int, Instruction] = {}
_HALF_CACHE: dict[int, Instruction] = {}
_CACHE_CAP = 1 << 16


def decode_word(word: int) -> Instruction:
    """Decode a 32-bit standard instruction word."""
    word &= enc.MASK32
    ins = _WORD_CACHE.get(word)
    if ins is not None:
        return ins
    spec = lookup_word(word)
    if spec is None:
        raise DecodeError(f"unknown instruction word {word:#010x}")
    ins = Instruction(
        spec=spec,
        fields=_extract_fields(spec, word),
        length=4,
        raw=word,
    )
    if len(_WORD_CACHE) >= _CACHE_CAP:
        _WORD_CACHE.clear()
    _WORD_CACHE[word] = ins
    return ins


def _decode_half(hw: int) -> Instruction:
    ins = _HALF_CACHE.get(hw)
    if ins is not None:
        return ins
    ins = decode_compressed(hw)
    if len(_HALF_CACHE) >= _CACHE_CAP:
        _HALF_CACHE.clear()
    _HALF_CACHE[hw] = ins
    return ins


def decode(data: bytes | memoryview, offset: int = 0,
           address: int | None = None) -> Instruction:
    """Decode one instruction (2 or 4 bytes) at *offset* in *data*.

    *address* is only used to annotate errors.
    """
    if offset + 2 > len(data):
        raise DecodeError("truncated instruction", address)
    hw = data[offset] | (data[offset + 1] << 8)
    if enc.is_compressed(hw):
        try:
            return _decode_half(hw)
        except IllegalCompressed as e:
            raise DecodeError(str(e), address) from e
    if offset + 4 > len(data):
        raise DecodeError("truncated 4-byte instruction", address)
    word = int.from_bytes(data[offset:offset + 4], "little")
    try:
        return decode_word(word)
    except DecodeError as e:
        raise DecodeError(str(e), address) from e


def decode_all(data: bytes | memoryview, base_address: int = 0
               ) -> Iterator[tuple[int, Instruction]]:
    """Linearly decode a byte region, yielding ``(address, instruction)``.

    Stops at the first undecodable location by raising
    :class:`DecodeError` (traversal parsing in ParseAPI handles gaps; this
    helper is for known-pure code regions).
    """
    off = 0
    n = len(data)
    while off + 2 <= n:
        ins = decode(data, off, base_address + off)
        yield base_address + off, ins
        off += ins.length
