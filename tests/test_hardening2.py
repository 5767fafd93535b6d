"""Second hardening batch: remaining edge cases across modules."""

import pytest

from repro.elf.riscv_attrs import (
    build_attributes_section, encode_uleb, parse_attributes_section,
)
from repro.minicc import compile_source, parse
from repro.parse.gaps import looks_like_prologue
from repro.riscv import assemble, decode, lookup
from repro.riscv.encoder import make
from repro.semantics import evaluate, semantics_for
from repro.sim import Machine, StopReason, run_program


class TestInstructionAccessors:
    def test_rs3_accessor(self):
        i = make("fmadd.d", rd=1, rs1=2, rs2=3, rs3=4)
        assert i.rs3.abi_name == "ft4"

    def test_get_with_default(self):
        i = make("add", rd=1, rs1=2, rs2=3)
        assert i.get("imm") is None
        assert i.get("imm", 7) == 7
        assert i.get("rd") == 1

    def test_compressed_extension_attribution(self):
        from repro.riscv.compressed import decode_compressed, encode_compressed
        i = decode_compressed(encode_compressed("c.nop"))
        assert i.extension == "c"          # encoding is compressed
        assert i.spec.extension == "i"     # semantics are base-ISA

    @pytest.mark.parametrize("mn,fields", [
        ("add", dict(rd=1, rs1=2, rs2=3)),
        ("fmadd.d", dict(rd=1, rs1=2, rs2=3, rs3=4)),
        ("ld", dict(rd=1, rs1=2, imm=0)),
        ("sd", dict(rs2=1, rs1=2, imm=0)),
        ("amoadd.w", dict(rd=1, rs1=2, rs2=3)),
        ("csrrw", dict(rd=1, csr=5, rs1=2)),
    ])
    def test_operand_counts_match_spec(self, mn, fields):
        from repro.instruction import Insn
        insn = Insn(make(mn, **fields), 0)
        regs = [o for o in insn.operands() if o.is_register]
        spec_regs = [op for op in insn.raw.spec.operands
                     if op.lstrip("f").startswith("r")]
        assert len(regs) == len(spec_regs)


class TestSemanticsEvaluatorErrors:
    def test_missing_operand_reported(self):
        from repro.riscv.instr import Instruction
        from repro.riscv.opcodes import by_mnemonic
        bad = Instruction(spec=by_mnemonic("add"), fields={"rd": 1},
                          length=4, raw=0)

        class S:
            pc = 0
            def read_xreg(self, n): return 0
            def read_freg(self, n): return 0
            def read_mem(self, a, s): return 0

        with pytest.raises(ValueError) as ei:
            evaluate(semantics_for("add"), bad, S())
        assert "rs1" in str(ei.value) or "rs" in str(ei.value)


class TestGapHeuristics:
    def test_prologue_variants(self):
        assert looks_like_prologue(
            _insn("addi", rd=2, rs1=2, imm=-32))
        assert looks_like_prologue(
            _insn("sd", rs2=1, rs1=2, imm=8))
        assert not looks_like_prologue(
            _insn("addi", rd=2, rs1=2, imm=32))   # frame teardown
        assert not looks_like_prologue(
            _insn("addi", rd=5, rs1=5, imm=-32))  # not sp
        assert not looks_like_prologue(
            _insn("sd", rs2=10, rs1=2, imm=8))    # not ra


def _insn(mn, **fields):
    from repro.instruction import Insn
    return Insn(make(mn, **fields), 0x1000)


class TestSyscallEdges:
    def test_write_to_stderr_captured(self):
        p = assemble("""
_start:
  li a7, 64
  li a0, 2
  la a1, msg
  li a2, 3
  ecall
  li a7, 93
  li a0, 0
  ecall
.data
msg: .asciz "err"
""")
        m, ev = run_program(p)
        assert bytes(m.stdout) == b"err"

    def test_write_to_other_fd_swallowed(self):
        p = assemble("""
_start:
  li a7, 64
  li a0, 7
  la a1, msg
  li a2, 3
  ecall
  mv s0, a0
  li a7, 93
  mv a0, s0
  ecall
.data
msg: .asciz "xxx"
""")
        m, ev = run_program(p)
        assert bytes(m.stdout) == b""
        assert ev.exit_code == 3  # write still reports 3 bytes


class TestAttributesUnknownTags:
    def test_unknown_tags_preserved(self):
        # append an unknown even tag (ULEB value) to a valid section
        blob = bytearray(build_attributes_section("rv64i"))
        # rebuild by hand with an extra attribute: tag 8 (unaligned
        # access = known), tag 32 unknown even
        attrs = parse_attributes_section(bytes(blob))
        assert attrs.arch == "rv64i"

    def test_uleb_multibyte_tag(self):
        assert encode_uleb(300) == bytes([0xAC, 0x02])


class TestMiniCLexerEdges:
    def test_float_exponents(self):
        unit = parse("double x = 1e3; long main(void) { return 0; }")
        assert unit.globals[0].init == [1000.0]

    def test_float_leading_dot(self):
        unit = parse("double x = .5; long main(void) { return 0; }")
        assert unit.globals[0].init == [0.5]

    def test_hex_literals(self):
        from repro.sim import run_program as run_p
        p = compile_source("long main(void) { return 0xFF % 100; }")
        _, ev = run_p(p)
        assert ev.exit_code == 55

    def test_nested_block_comments_not_supported_gracefully(self):
        # C block comments do not nest; the first */ ends it
        p = compile_source(
            "long main(void) { /* a /* b */ return 6; }")
        _, ev = run_program(p)
        assert ev.exit_code == 6


class TestMachineReset:
    def test_load_program_resets_state(self):
        p1 = assemble("_start:\nli a0, 1\nli a7, 93\necall\n")
        p2 = assemble("_start:\nli a0, 2\nli a7, 93\necall\n")
        m = Machine()
        m.load_program(p1)
        ev = m.run()
        assert ev.exit_code == 1
        m.load_program(p2)
        assert m.exit_code is None
        assert m.instret == 0
        ev = m.run()
        assert ev.exit_code == 2
