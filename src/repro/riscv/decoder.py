"""Instruction decoder: bytes -> :class:`~repro.riscv.instr.Instruction`.

The decoder is table-driven: :mod:`repro.riscv.opcodes` identifies a
standard 32-bit word and the field layouts of
:mod:`repro.riscv.encoding` extract its operands; 16-bit encodings go
to :mod:`repro.riscv.compressed`, which expands them through the RVC
rows of the same module.  Together these are the Capstone substitute
described in DESIGN.md.
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
    return {name: field.get(word) for name, field in enc.layout(spec)}


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
