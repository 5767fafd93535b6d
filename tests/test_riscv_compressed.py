"""C-extension decode/expand tests (paper §3.1.2).

Reference encodings cross-checked against the RVC spec tables.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv.compressed import (
    CJ_RANGE, IllegalCompressed, decode_compressed, encode_compressed,
    try_compress,
)
from repro.riscv.decoder import decode
from repro.riscv.encoding import EncodingError

#: digests of the decode map and of try_compress over ``_PROBES``
_DECODE_MAP_SHA256 = (
    "004447a70f360facecad1f7fb868f98227018ed3ab447ba1f4276fb2ad072c1e")
_TRY_COMPRESS_SHA256 = (
    "8633bfa1972c9239ba39308839e68ced2ca41f0ff13cad76484abf5a95198df2")


def _exp(hw):
    return decode_compressed(hw)


class TestQuadrant0:
    def test_all_zero_is_illegal(self):
        with pytest.raises(IllegalCompressed):
            decode_compressed(0x0000)

    def test_c_addi4spn(self):
        # c.addi4spn a0, sp, 16  ->  0x0808 (uimm[5:4]=01 -> w[12:11], rd'=010)
        ins = _exp(0x0808)
        assert ins.compressed_mnemonic == "c.addi4spn"
        assert ins.mnemonic == "addi"
        assert ins.fields == {"rd": 10, "rs1": 2, "imm": 16}

    def test_c_addi4spn_zero_imm_illegal(self):
        with pytest.raises(IllegalCompressed):
            decode_compressed(0x0000 | 0b000 << 13 | 0x2 << 2 | 0b00 | 0)

    def test_c_lw(self):
        # c.lw a1, 4(a0) -> funct3=010 rs1'=010 uimm2=1 rd'=011
        hw = (0b010 << 13) | (0 << 10) | (0b010 << 7) | (1 << 6) | (0 << 5) | (0b011 << 2)
        ins = _exp(hw)
        assert ins.mnemonic == "lw" and ins.compressed_mnemonic == "c.lw"
        assert ins.fields == {"rd": 11, "rs1": 10, "imm": 4}

    def test_c_ld_and_c_sd_roundtrip_semantics(self):
        # c.ld s0, 8(s1): f3=011 uimm[5:3]=001 rs1'=001 uimm[7:6]=00 rd'=000
        hw = (0b011 << 13) | (0b001 << 10) | (0b001 << 7) | (0b000 << 2)
        ins = _exp(hw)
        assert ins.mnemonic == "ld"
        assert ins.fields == {"rd": 8, "rs1": 9, "imm": 8}
        hw_sd = (0b111 << 13) | (0b001 << 10) | (0b001 << 7) | (0b000 << 2)
        ins = _exp(hw_sd)
        assert ins.mnemonic == "sd"
        assert ins.fields == {"rs2": 8, "rs1": 9, "imm": 8}

    def test_c_fld(self):
        hw = (0b001 << 13) | (0b010 << 10) | (0b000 << 7) | (0b01 << 5) | (0b111 << 2)
        ins = _exp(hw)
        assert ins.mnemonic == "fld"
        assert ins.fields["imm"] == 16 + 64


class TestQuadrant1:
    def test_c_nop(self):
        ins = _exp(0x0001)
        assert ins.compressed_mnemonic == "c.nop"
        assert ins.mnemonic == "addi"
        assert ins.fields == {"rd": 0, "rs1": 0, "imm": 0}

    def test_c_addi(self):
        ins = _exp(encode_compressed("c.addi", rd=10, imm=-3))
        assert ins.fields == {"rd": 10, "rs1": 10, "imm": -3}

    def test_c_li(self):
        ins = _exp(encode_compressed("c.li", rd=15, imm=-32))
        assert ins.mnemonic == "addi"
        assert ins.fields == {"rd": 15, "rs1": 0, "imm": -32}

    def test_c_lui(self):
        # c.lui a1, 1 -> f3=011 rd=11 imm6=1 -> bit2=1
        hw = (0b011 << 13) | (11 << 7) | (1 << 2) | 0b01
        ins = _exp(hw)
        assert ins.mnemonic == "lui"
        assert ins.fields == {"rd": 11, "imm": 1}

    def test_c_addi16sp(self):
        # c.addi16sp sp, 32: nzimm=32 -> bit5 of imm -> word bit2
        hw = (0b011 << 13) | (2 << 7) | (1 << 2) | 0b01
        ins = _exp(hw)
        assert ins.mnemonic == "addi"
        assert ins.fields == {"rd": 2, "rs1": 2, "imm": 32}

    def test_c_alu_ops(self):
        # c.sub s0, s1: f3=100, bits11:10=11, rd'=000, bits6:5=00, rs2'=001
        hw = (0b100 << 13) | (0b11 << 10) | (0b000 << 7) | (0b00 << 5) | (0b001 << 2) | 0b01
        ins = _exp(hw)
        assert ins.mnemonic == "sub"
        assert ins.fields == {"rd": 8, "rs1": 8, "rs2": 9}

    def test_c_srli_full_shamt(self):
        hw = (0b100 << 13) | (1 << 12) | (0b00 << 10) | (0b010 << 7) | (0b00001 << 2) | 0b01
        ins = _exp(hw)
        assert ins.mnemonic == "srli"
        assert ins.fields["shamt"] == 33

    def test_c_j_roundtrip(self):
        for off in (0, 2, -2, 100, -100, CJ_RANGE[0], CJ_RANGE[1]):
            ins = _exp(encode_compressed("c.j", imm=off))
            assert ins.mnemonic == "jal"
            assert ins.fields == {"rd": 0, "imm": off}, off

    def test_c_beqz(self):
        # c.beqz s0, +8: imm=8 -> imm[4:3]=01 -> word[11:10]=01
        hw = (0b110 << 13) | (0b01 << 10) | (0b000 << 7) | 0b01
        ins = _exp(hw)
        assert ins.mnemonic == "beq"
        assert ins.fields == {"rs1": 8, "rs2": 0, "imm": 8}
        assert encode_compressed("c.beqz", rs1=8, imm=8) == hw


class TestQuadrant2:
    def test_c_slli(self):
        hw = (0b000 << 13) | (1 << 12) | (5 << 7) | (0b00010 << 2) | 0b10
        ins = _exp(hw)
        assert ins.mnemonic == "slli"
        assert ins.fields == {"rd": 5, "rs1": 5, "shamt": 34}

    def test_c_lwsp(self):
        # c.lwsp a0, 12(sp): uimm=12 -> [4:2]=011 -> word[6:4]=011
        hw = (0b010 << 13) | (10 << 7) | (0b011 << 4) | 0b10
        ins = _exp(hw)
        assert ins.mnemonic == "lw"
        assert ins.fields == {"rd": 10, "rs1": 2, "imm": 12}

    def test_c_ldsp_sdsp(self):
        hw = (0b011 << 13) | (1 << 12) | (8 << 7) | 0b10  # c.ldsp s0, 32(sp)
        ins = _exp(hw)
        assert ins.mnemonic == "ld" and ins.fields["imm"] == 32
        hw = (0b111 << 13) | (0b010 << 10) | (9 << 2) | 0b10  # c.sdsp s1, 16(sp)
        ins = _exp(hw)
        assert ins.mnemonic == "sd"
        assert ins.fields == {"rs2": 9, "rs1": 2, "imm": 16}

    def test_c_jr(self):
        ins = _exp(encode_compressed("c.jr", rs1=1))
        assert ins.mnemonic == "jalr"
        assert ins.fields == {"rd": 0, "rs1": 1, "imm": 0}

    def test_c_jr_x0_illegal(self):
        with pytest.raises(IllegalCompressed):
            decode_compressed((0b100 << 13) | 0b10)

    def test_c_mv(self):
        ins = _exp(encode_compressed("c.mv", rd=10, rs2=11))
        assert ins.mnemonic == "add"
        assert ins.fields == {"rd": 10, "rs1": 0, "rs2": 11}

    def test_c_ebreak(self):
        ins = _exp(encode_compressed("c.ebreak"))
        assert ins.mnemonic == "ebreak"
        assert ins.length == 2

    def test_c_jalr(self):
        hw = (0b100 << 13) | (1 << 12) | (5 << 7) | 0b10
        ins = _exp(hw)
        assert ins.mnemonic == "jalr"
        assert ins.fields == {"rd": 1, "rs1": 5, "imm": 0}

    def test_c_add(self):
        hw = (0b100 << 13) | (1 << 12) | (5 << 7) | (6 << 2) | 0b10
        ins = _exp(hw)
        assert ins.mnemonic == "add"
        assert ins.fields == {"rd": 5, "rs1": 5, "rs2": 6}


class TestEncoders:
    def test_cj_range_enforced(self):
        with pytest.raises(EncodingError):
            encode_compressed("c.j", imm=CJ_RANGE[1] + 2)
        with pytest.raises(EncodingError):
            encode_compressed("c.j", imm=CJ_RANGE[0] - 2)
        with pytest.raises(EncodingError):
            encode_compressed("c.j", imm=3)

    def test_c_nop_canonical(self):
        assert encode_compressed("c.nop") == 0x0001

    def test_c_ebreak_canonical(self):
        assert encode_compressed("c.ebreak") == 0x9002

    def test_hint_and_reserved_zeros_are_refused(self):
        for cmn, fields in (
                ("c.addi", dict(rd=10, imm=0)),   # hint
                ("c.addi", dict(rd=0, imm=1)),    # c.nop's encoding
                ("c.li", dict(rd=0, imm=1)),      # hint
                ("c.mv", dict(rd=10, rs2=0)),     # c.jr's encoding
                ("c.jr", dict(rs1=0)),            # reserved
                ("c.lui", dict(rd=2, imm=1)),     # c.addi16sp's encoding
                ("c.addi16sp", dict(imm=0))):     # reserved
            with pytest.raises(EncodingError):
                encode_compressed(cmn, **fields)

    def test_length_marker(self):
        ins = decode(encode_compressed("c.nop").to_bytes(2, "little"))
        assert ins.length == 2
        assert ins.extension == "c"


class TestTryCompress:
    def test_mv_compresses(self):
        hw = try_compress("add", {"rd": 5, "rs1": 0, "rs2": 6})
        assert hw is not None
        assert decode_compressed(hw).fields == {"rd": 5, "rs1": 0, "rs2": 6}

    def test_li_small_compresses(self):
        hw = try_compress("addi", {"rd": 5, "rs1": 0, "imm": 7})
        assert decode_compressed(hw).fields == {"rd": 5, "rs1": 0, "imm": 7}

    def test_nop_compresses(self):
        assert try_compress("addi", {"rd": 0, "rs1": 0, "imm": 0}) == 0x0001

    def test_large_imm_not_compressible(self):
        assert try_compress("addi", {"rd": 5, "rs1": 0, "imm": 100}) is None

    def test_ret_compresses_to_c_jr(self):
        hw = try_compress("jalr", {"rd": 0, "rs1": 1, "imm": 0})
        assert decode_compressed(hw).compressed_mnemonic == "c.jr"


def test_compressed_decode_total():
    """Every halfword either is a 32-bit prefix, raises
    IllegalCompressed, or expands to an instruction flagged length==2
    whose raw equals the input; compressing that expansion gives None
    or a halfword with the same meaning."""
    for hw in range(1 << 16):
        if (hw & 0b11) == 0b11:
            continue
        try:
            ins = decode_compressed(hw)
        except IllegalCompressed:
            continue
        assert ins.length == 2
        assert ins.raw == hw
        assert ins.compressed_mnemonic.startswith("c.")
        again = try_compress(ins.mnemonic, ins.fields)
        if again is not None:
            back = decode_compressed(again)
            assert (back.mnemonic, back.fields) == (ins.mnemonic, ins.fields)


def _decode_map_digest():
    h = hashlib.sha256()
    for hw in range(1 << 16):
        try:
            ins = decode_compressed(hw)
        except IllegalCompressed:
            h.update(b"-\n")
            continue
        h.update(repr((ins.compressed_mnemonic, ins.mnemonic,
                       tuple(ins.fields.items()))).encode() + b"\n")
    return h.hexdigest()


#: mnemonic -> (register fields, immediate field, its (lo, hi, scale)
#: ranges in the 32-bit form and in each compressed form)
_PROBES = {
    "addi": (("rd", "rs1"), "imm", ((-2048, 2047, 1), (-32, 31, 1),
                                    (-512, 496, 16), (4, 1020, 4))),
    "addiw": (("rd", "rs1"), "imm", ((-2048, 2047, 1), (-32, 31, 1))),
    "andi": (("rd", "rs1"), "imm", ((-2048, 2047, 1), (-32, 31, 1))),
    "lui": (("rd",), "imm", ((-(1 << 19), (1 << 20) - 1, 1),
                             (-32, 31, 1))),
    "slli": (("rd", "rs1"), "shamt", ((0, 63, 1),)),
    "srli": (("rd", "rs1"), "shamt", ((0, 63, 1),)),
    "srai": (("rd", "rs1"), "shamt", ((0, 63, 1),)),
    "ld": (("rd", "rs1"), "imm", ((0, 248, 8), (0, 504, 8))),
    "fld": (("rd", "rs1"), "imm", ((0, 248, 8), (0, 504, 8))),
    "lw": (("rd", "rs1"), "imm", ((0, 124, 4), (0, 252, 4))),
    "sd": (("rs2", "rs1"), "imm", ((0, 248, 8), (0, 504, 8))),
    "fsd": (("rs2", "rs1"), "imm", ((0, 248, 8), (0, 504, 8))),
    "sw": (("rs2", "rs1"), "imm", ((0, 124, 4), (0, 252, 4))),
    "jalr": (("rd", "rs1"), "imm", ((-2048, 2047, 1),)),
    "jal": (("rd",), "imm", ((-(1 << 20), (1 << 20) - 2, 2),
                             (-2048, 2046, 2))),
    "beq": (("rs1", "rs2"), "imm", ((-4096, 4094, 2), (-256, 254, 2))),
    "bne": (("rs1", "rs2"), "imm", ((-4096, 4094, 2), (-256, 254, 2))),
    "ebreak": ((), None, ()),
    **{mn: (("rd", "rs1", "rs2"), None, ())
       for mn in ("add", "sub", "xor", "or", "and", "subw", "addw")},
}


def _try_compress_digest():
    h = hashlib.sha256()
    for mn, (regs, imm, ranges) in _PROBES.items():
        values = {0}
        for lo, hi, scale in ranges:
            for v in (0, lo, hi):
                values.update((v, v + 1, v - 1, v + scale, v - scale))
        values = sorted(values) if imm else [None]
        out = []
        for n in range(32 ** len(regs)):
            fields = {r: n >> (5 * i) & 31 for i, r in enumerate(regs)}
            for v in values:
                if imm:
                    fields[imm] = v
                out.append(try_compress(mn, fields))
        h.update(f"{mn} {out}\n".encode())
    return h.hexdigest()


def test_decode_map_is_pinned():
    """The decode of every halfword, as the hand-written decoders had it."""
    assert _decode_map_digest() == _DECODE_MAP_SHA256


def test_try_compress_is_pinned():
    """try_compress over every register pair or triple against each
    immediate's range ends, ±1, ±scale and 0, as the hand-written
    encoders had it (None for jal, beq and bne)."""
    assert _try_compress_digest() == _TRY_COMPRESS_SHA256


@settings(max_examples=200, deadline=None)
@given(off=st.integers(CJ_RANGE[0] // 2, CJ_RANGE[1] // 2).map(lambda v: v * 2))
def test_cj_encode_decode_roundtrip(off):
    """PROPERTY: c.j offset encode/decode is the identity over its range."""
    ins = decode_compressed(encode_compressed("c.j", imm=off))
    assert ins.fields["imm"] == off
