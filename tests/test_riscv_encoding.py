"""Unit tests for bit-level encoding helpers and the immediate layouts
of each 32-bit format."""

import pytest

from repro.riscv.decoder import decode_word
from repro.riscv.encoder import encode
from repro.riscv.encoding import (
    EncodingError, bit, bits, fits_signed, fits_unsigned,
    instruction_length, is_compressed, sign_extend, to_unsigned,
)


class TestBitHelpers:
    def test_bits_extracts_inclusive_range(self):
        assert bits(0b1011_0100, 5, 2) == 0b1101

    def test_bit_single(self):
        assert bit(0b100, 2) == 1
        assert bit(0b100, 1) == 0

    def test_sign_extend_positive(self):
        assert sign_extend(0x7FF, 12) == 0x7FF

    def test_sign_extend_negative(self):
        assert sign_extend(0x800, 12) == -2048
        assert sign_extend(0xFFF, 12) == -1

    def test_sign_extend_masks_upper_bits(self):
        assert sign_extend(0x1FFF, 12) == -1

    def test_to_unsigned_roundtrip(self):
        assert sign_extend(to_unsigned(-5, 64), 64) == -5

    def test_fits_signed_bounds(self):
        assert fits_signed(2047, 12)
        assert fits_signed(-2048, 12)
        assert not fits_signed(2048, 12)
        assert not fits_signed(-2049, 12)

    def test_fits_unsigned_bounds(self):
        assert fits_unsigned(0, 5) and fits_unsigned(31, 5)
        assert not fits_unsigned(32, 5) and not fits_unsigned(-1, 5)


def _imm_roundtrip(mnemonic, **fields):
    """The immediate of *mnemonic* after encode then decode."""
    return decode_word(encode(mnemonic, **fields)).fields["imm"]


class TestImmediateFormats:
    """One spec per format: addi (I), sd (S), beq (B), lui (U), jal (J)."""

    @pytest.mark.parametrize("imm", [0, 1, -1, 2047, -2048, 42, -77])
    def test_i_roundtrip(self, imm):
        assert _imm_roundtrip("addi", rd=1, rs1=2, imm=imm) == imm

    def test_i_overflow(self):
        with pytest.raises(EncodingError):
            encode("addi", rd=1, rs1=2, imm=2048)

    @pytest.mark.parametrize("imm", [0, 4, -4, 2047, -2048])
    def test_s_roundtrip(self, imm):
        assert _imm_roundtrip("sd", rs2=1, rs1=2, imm=imm) == imm

    @pytest.mark.parametrize("imm", [0, 2, -2, 4094, -4096, 1024])
    def test_b_roundtrip(self, imm):
        assert _imm_roundtrip("beq", rs1=1, rs2=2, imm=imm) == imm

    def test_b_rejects_odd(self):
        with pytest.raises(EncodingError):
            encode("beq", rs1=1, rs2=2, imm=3)

    def test_b_rejects_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("beq", rs1=1, rs2=2, imm=4096)

    @pytest.mark.parametrize("imm", [0, 1, -1, 0x7FFFF, -0x80000])
    def test_u_roundtrip(self, imm):
        assert _imm_roundtrip("lui", rd=1, imm=imm) == imm

    def test_u_accepts_unsigned_20(self):
        # 0xFFFFF as unsigned field decodes as -1 (sign-extended field).
        assert _imm_roundtrip("lui", rd=1, imm=0xFFFFF) == -1

    @pytest.mark.parametrize("imm", [0, 2, -2, 0xFFFFE, -0x100000, 2048])
    def test_j_roundtrip(self, imm):
        assert _imm_roundtrip("jal", rd=1, imm=imm) == imm

    def test_j_rejects_odd(self):
        with pytest.raises(EncodingError):
            encode("jal", rd=1, imm=1)


class TestLengthDetection:
    def test_standard_word_low_bits_11(self):
        assert not is_compressed(0x0000_0033)
        assert instruction_length(0x33) == 4

    def test_compressed_low_bits(self):
        for low in (0b00, 0b01, 0b10):
            assert is_compressed(low)
            assert instruction_length(low) == 2
