"""Decoder/encoder tests, including the hypothesis round-trip property
that pins every spec-table row: encode(fields) then decode must recover
the same mnemonic and fields.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv.decoder import DecodeError, decode, decode_all, decode_word
from repro.riscv.encoder import encode, encode_fields, instruction_bytes, make
from repro.riscv.encoding import EncodingError
from repro.riscv.opcodes import all_specs, by_mnemonic, lookup_word


class TestDecodeBasics:
    def test_add(self):
        ins = decode_word(encode("add", rd=3, rs1=4, rs2=5))
        assert ins.mnemonic == "add"
        assert ins.fields["rd"] == 3
        assert ins.fields["rs1"] == 4
        assert ins.fields["rs2"] == 5

    def test_load_negative_offset(self):
        ins = decode_word(encode("ld", rd=10, rs1=2, imm=-16))
        assert ins.imm == -16

    def test_branch_offset(self):
        ins = decode_word(encode("bne", rs1=5, rs2=6, imm=-64))
        assert ins.imm == -64

    def test_lui_field_value(self):
        ins = decode_word(encode("lui", rd=7, imm=0x12345))
        assert ins.fields["imm"] == 0x12345

    def test_shift64_shamt_above_31(self):
        ins = decode_word(encode("srai", rd=1, rs1=1, shamt=63))
        assert ins.mnemonic == "srai"
        assert ins.fields["shamt"] == 63

    def test_shift32_distinct_from_shift64(self):
        assert decode_word(encode("sraiw", rd=1, rs1=1, shamt=31)).mnemonic == "sraiw"

    def test_csr_instruction(self):
        ins = decode_word(encode("csrrs", rd=10, csr=0xC00, rs1=0))
        assert ins.fields["csr"] == 0xC00

    def test_csr_immediate_form(self):
        ins = decode_word(encode("csrrwi", rd=1, csr=0x001, zimm=17))
        assert ins.fields["zimm"] == 17

    def test_ecall_vs_ebreak(self):
        assert decode_word(encode("ecall")).mnemonic == "ecall"
        assert decode_word(encode("ebreak")).mnemonic == "ebreak"

    def test_amo_aq_rl_bits_preserved(self):
        w = encode("amoadd.w", rd=1, rs1=2, rs2=3, aq=1, rl=1)
        ins = decode_word(w)
        assert ins.mnemonic == "amoadd.w"
        assert ins.fields["aq"] == 1 and ins.fields["rl"] == 1

    def test_fp_rounding_mode_free_field(self):
        w = encode("fadd.d", rd=1, rs1=2, rs2=3, rm=0)
        assert decode_word(w).mnemonic == "fadd.d"
        w = encode("fadd.d", rd=1, rs1=2, rs2=3)  # dynamic rm default
        assert decode_word(w).fields["rm"] == 0b111

    def test_fcvt_variants_distinguished_by_rs2(self):
        assert decode_word(encode("fcvt.l.d", rd=1, rs1=2)).mnemonic == "fcvt.l.d"
        assert decode_word(encode("fcvt.lu.d", rd=1, rs1=2)).mnemonic == "fcvt.lu.d"
        assert decode_word(encode("fcvt.d.s", rd=1, rs1=2)).mnemonic == "fcvt.d.s"

    def test_fmadd_r4(self):
        ins = decode_word(encode("fmadd.s", rd=1, rs1=2, rs2=3, rs3=4))
        assert ins.fields["rs3"] == 4

    def test_unknown_word_raises(self):
        with pytest.raises(DecodeError):
            decode_word(0xFFFF_FFFF)

    def test_zicond_sample(self):
        assert decode_word(encode("czero.eqz", rd=1, rs1=2, rs2=3)).extension == "zicond"

    def test_decode_from_bytes(self):
        blob = encode("addi", rd=1, rs1=0, imm=5).to_bytes(4, "little")
        assert decode(blob).mnemonic == "addi"

    def test_truncated_raises(self):
        with pytest.raises(DecodeError):
            decode(b"\x13")  # one byte of a 4-byte instruction

    def test_decode_all_linear(self):
        blob = (encode("addi", rd=1, rs1=0, imm=1).to_bytes(4, "little")
                + encode("add", rd=2, rs1=1, rs2=1).to_bytes(4, "little"))
        out = list(decode_all(blob, 0x1000))
        assert [a for a, _ in out] == [0x1000, 0x1004]


class TestSpecTable:
    def test_no_overlapping_encodings(self):
        """Every spec's match word must decode back to that spec
        (catches mask collisions between table rows)."""
        for spec in all_specs():
            found = lookup_word(spec.match)
            assert found is not None, spec.mnemonic
            assert found.mnemonic == spec.mnemonic, (
                f"{spec.mnemonic} match word decodes as {found.mnemonic}")

    def test_table_covers_rv64gc_core(self):
        for mn in ("add", "sub", "mul", "div", "lr.w", "sc.d", "amoswap.d",
                   "fadd.s", "fmadd.d", "fcvt.d.l", "csrrw", "fence",
                   "fence.i", "ecall", "lwu", "sd", "addiw", "sraw"):
            assert by_mnemonic(mn)

    def test_extension_attribution(self):
        assert by_mnemonic("mul").extension == "m"
        assert by_mnemonic("fld").extension == "d"
        assert by_mnemonic("flw").extension == "f"
        assert by_mnemonic("lr.d").extension == "a"
        assert by_mnemonic("fence.i").extension == "zifencei"
        assert by_mnemonic("csrrw").extension == "zicsr"


def _fields_strategy(spec):
    """Build a hypothesis strategy producing valid fields for one spec."""
    reg = st.integers(0, 31)
    parts = {}
    ops = {op if op[0] != "f" else op[1:] for op in spec.operands}
    fmt = spec.fmt
    if "rd" in ops or fmt in ("I", "U", "J", "CSR", "CSRI"):
        parts["rd"] = reg
    if fmt in ("R", "R4", "SHIFT64", "SHIFT32", "AMO", "I", "S", "B", "CSR"):
        parts["rs1"] = reg
    if fmt in ("S", "B") or ("rs2" in ops and fmt in ("R", "R4", "AMO")):
        parts["rs2"] = reg
    if fmt == "R4":
        parts["rs3"] = reg
        parts["rm"] = st.sampled_from([0, 1, 2, 3, 4, 7])
    if fmt == "R" and spec.has_rm:
        parts["rm"] = st.sampled_from([0, 1, 2, 3, 4, 7])
    if fmt == "I":
        parts["imm"] = st.integers(-2048, 2047)
    elif fmt == "S":
        parts["imm"] = st.integers(-2048, 2047)
    elif fmt == "B":
        parts["imm"] = st.integers(-2048, 2047).map(lambda v: v * 2)
    elif fmt == "U":
        parts["imm"] = st.integers(-(1 << 19), (1 << 19) - 1)
    elif fmt == "J":
        parts["imm"] = st.integers(-(1 << 19), (1 << 19) - 1).map(lambda v: v * 2)
    elif fmt == "SHIFT64":
        parts["shamt"] = st.integers(0, 63)
    elif fmt == "SHIFT32":
        parts["shamt"] = st.integers(0, 31)
    elif fmt == "AMO":
        parts["aq"] = st.integers(0, 1)
        parts["rl"] = st.integers(0, 1)
    if fmt == "CSR":
        parts["csr"] = st.integers(0, 4095)
    elif fmt == "CSRI":
        parts["csr"] = st.integers(0, 4095)
        parts["zimm"] = st.integers(0, 31)
    elif fmt == "FENCE" and spec.operands:
        parts["pred"] = st.integers(0, 15)
        parts["succ"] = st.integers(0, 15)
    return st.fixed_dictionaries(parts)


_ALL = sorted(all_specs(), key=lambda s: s.mnemonic)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("spec", _ALL, ids=lambda s: s.mnemonic)
def test_encode_decode_roundtrip(spec, data):
    """PROPERTY: for every instruction in the table, encode->decode is the
    identity on (mnemonic, fields)."""
    fields = data.draw(_fields_strategy(spec))
    word = encode_fields(spec, dict(fields))
    ins = decode_word(word)
    assert ins.mnemonic == spec.mnemonic
    for k, v in fields.items():
        assert ins.fields.get(k) == v, (k, v, ins.fields)


@settings(max_examples=200, deadline=None)
@given(word=st.integers(0, 0xFFFF_FFFF))
def test_decoder_total_on_32bit_words(word):
    """PROPERTY: the decoder either raises DecodeError or returns an
    instruction that re-encodes to the same word (no silent corruption)."""
    word |= 0b11  # make it a standard-length encoding
    try:
        ins = decode_word(word)
    except DecodeError:
        return
    re = encode_fields(ins.spec, ins.fields)
    # aq/rl and rm fields are round-tripped; everything else must match.
    assert re == word, (hex(word), hex(re), ins.mnemonic)


@pytest.mark.parametrize("mnemonic,fields", [
    ("fadd.d", dict(rd=1, rs1=2, rs2=3, rm=9)),
    ("amoadd.d", dict(rd=1, rs1=2, rs2=3, aq=2, rl=3)),
    ("fence", dict(pred=0x1F, succ=3)),
    ("fence", dict(rd=33)),
], ids=["rm", "aq-rl", "fence-pred", "fence-rd"])
def test_out_of_range_fields_raise(mnemonic, fields):
    """rm, aq/rl and FENCE's fields are range-checked like every other
    field, not masked into the bits of another instruction."""
    with pytest.raises(EncodingError):
        make(mnemonic, **fields)


def test_instruction_bytes_standard():
    ins = make("addi", rd=5, rs1=0, imm=7)
    assert instruction_bytes(ins) == encode("addi", rd=5, rs1=0, imm=7).to_bytes(4, "little")
