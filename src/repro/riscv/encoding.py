"""Bit-level encoding helpers for RISC-V instruction formats.

RISC-V standard (32-bit) instructions use six core formats (R/I/S/B/U/J)
plus a few variants (R4 for FMA, AMO, shifts with 6-bit shamt, CSR).
Immediates are scattered across the word in format-specific ways; this
module centralises the scatter/gather logic so the encoder, decoder and
assembler never hand-roll bit twiddling.

All functions operate on Python ints holding the 32-bit (or 16-bit, for
the C extension) little-endian instruction word.
"""

from __future__ import annotations


MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def bits(word: int, hi: int, lo: int) -> int:
    """Extract bits ``word[hi:lo]`` inclusive."""
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def bit(word: int, idx: int) -> int:
    """Extract a single bit."""
    return (word >> idx) & 1


def sign_extend(value: int, width: int) -> int:
    """Interpret the low *width* bits of *value* as two's-complement."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        value -= 1 << width
    return value


def fits_signed(value: int, width: int) -> bool:
    """True if *value* is representable as a *width*-bit signed immediate."""
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return lo <= value <= hi


def fits_unsigned(value: int, width: int) -> bool:
    return 0 <= value < (1 << width)


def to_unsigned(value: int, width: int = 64) -> int:
    """Two's complement representation of *value* in *width* bits."""
    return value & ((1 << width) - 1)


class EncodingError(ValueError):
    """Raised when an operand cannot be encoded in the requested format."""


def _check_signed(value: int, width: int, what: str) -> None:
    if not fits_signed(value, width):
        raise EncodingError(f"{what} {value} does not fit in {width} signed bits")


# ---------------------------------------------------------------------
# Immediate scatter (encode) / gather (decode) for each format.
# ---------------------------------------------------------------------

def encode_imm_i(imm: int) -> int:
    """I-type: imm[11:0] -> word[31:20]."""
    _check_signed(imm, 12, "I-immediate")
    return (imm & 0xFFF) << 20


def decode_imm_i(word: int) -> int:
    return sign_extend(bits(word, 31, 20), 12)


def encode_imm_s(imm: int) -> int:
    """S-type: imm[11:5] -> word[31:25], imm[4:0] -> word[11:7]."""
    _check_signed(imm, 12, "S-immediate")
    imm &= 0xFFF
    return ((imm >> 5) << 25) | ((imm & 0x1F) << 7)


def decode_imm_s(word: int) -> int:
    return sign_extend((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)


def encode_imm_b(imm: int) -> int:
    """B-type: 13-bit signed, bit 0 must be zero.

    imm[12] -> word[31], imm[10:5] -> word[30:25],
    imm[4:1] -> word[11:8], imm[11] -> word[7].
    """
    _check_signed(imm, 13, "B-immediate")
    if imm & 1:
        raise EncodingError(f"B-immediate {imm} must be even")
    imm &= 0x1FFF
    return (
        (bit(imm, 12) << 31)
        | (bits(imm, 10, 5) << 25)
        | (bits(imm, 4, 1) << 8)
        | (bit(imm, 11) << 7)
    )


def decode_imm_b(word: int) -> int:
    imm = (
        (bit(word, 31) << 12)
        | (bit(word, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return sign_extend(imm, 13)


def encode_imm_u(imm: int) -> int:
    """U-type: imm[31:12] -> word[31:12].  *imm* is the 20-bit field value
    (i.e. already shifted right by 12), signed or unsigned-20 accepted."""
    if not (fits_signed(imm, 20) or fits_unsigned(imm, 20)):
        raise EncodingError(f"U-immediate field {imm} does not fit in 20 bits")
    return (imm & 0xFFFFF) << 12


def decode_imm_u(word: int) -> int:
    """Returns the 20-bit field sign-extended (matching how lui/auipc
    contribute ``imm << 12`` sign-extended to XLEN)."""
    return sign_extend(bits(word, 31, 12), 20)


def encode_imm_j(imm: int) -> int:
    """J-type: 21-bit signed, bit 0 zero.

    imm[20] -> word[31], imm[10:1] -> word[30:21],
    imm[11] -> word[20], imm[19:12] -> word[19:12].
    """
    _check_signed(imm, 21, "J-immediate")
    if imm & 1:
        raise EncodingError(f"J-immediate {imm} must be even")
    imm &= 0x1FFFFF
    return (
        (bit(imm, 20) << 31)
        | (bits(imm, 10, 1) << 21)
        | (bit(imm, 11) << 20)
        | (bits(imm, 19, 12) << 12)
    )


def decode_imm_j(word: int) -> int:
    imm = (
        (bit(word, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bit(word, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return sign_extend(imm, 21)


# ---------------------------------------------------------------------
# Register field placement.
# ---------------------------------------------------------------------

def place_rd(n: int) -> int:
    return (n & 0x1F) << 7


def place_rs1(n: int) -> int:
    return (n & 0x1F) << 15


def place_rs2(n: int) -> int:
    return (n & 0x1F) << 20


def place_rs3(n: int) -> int:
    return (n & 0x1F) << 27


def field_rd(word: int) -> int:
    return bits(word, 11, 7)


def field_rs1(word: int) -> int:
    return bits(word, 19, 15)


def field_rs2(word: int) -> int:
    return bits(word, 24, 20)


def field_rs3(word: int) -> int:
    return bits(word, 31, 27)


def field_funct3(word: int) -> int:
    return bits(word, 14, 12)


def field_csr(word: int) -> int:
    return bits(word, 31, 20)


def is_compressed(first_byte_or_word: int) -> bool:
    """A standard 32-bit instruction has the two low bits ``11``; anything
    else in the low 2 bits marks a 16-bit compressed instruction."""
    return (first_byte_or_word & 0b11) != 0b11


def instruction_length(halfword: int) -> int:
    """Length in bytes implied by the low bits of the first halfword
    (2 for compressed, 4 for standard; wider encodings unsupported)."""
    return 2 if is_compressed(halfword) else 4
