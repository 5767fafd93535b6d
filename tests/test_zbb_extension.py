"""End-to-end validation of the Zbb extension addition (paper §3.4).

The paper claims new-extension support reduces to: Capstone adds the
encodings, the SAIL pipeline regenerates semantic classes.  In this
toolkit: rows in the opcode table + clauses in the mini-SAIL DSL, which
the simulator executes through the IR lowering.  These tests verify the
whole stack picked the new extension up — decode, assemble, execute,
analyze, and gate codegen.

(The encode/decode roundtrip and the semantics-vs-simulator cross-check
property tests cover Zbb automatically because they are table-driven —
itself part of the extensibility claim.)
"""

import pytest

from repro.dataflow import resolve_register
from repro.parse import parse_binary
from repro.riscv import RV64GC, assemble, decode_word, encode, lookup
from repro.riscv.extensions import RVA23_SUBSET, parse_arch_string
from repro.semantics import has_precise_semantics
from repro.sim import run_program
from repro.symtab import Symtab


def run_asm(src, max_steps=100_000):
    p = assemble(src, arch=RVA23_SUBSET)
    m, ev = run_program(p, max_steps=max_steps)
    assert ev.reason.value == "exited"
    return ev.exit_code, m


class TestDecodingAndAssembly:
    def test_all_zbb_mnemonics_registered(self):
        from repro.riscv.opcodes import specs_for_extension
        mnemonics = {s.mnemonic for s in specs_for_extension("zbb")}
        assert mnemonics == {
            "andn", "orn", "xnor", "min", "minu", "max", "maxu",
            "rol", "ror", "rori", "clz", "ctz", "cpop",
            "sext.b", "sext.h", "zext.h",
        }

    def test_unary_encodings_distinct(self):
        # clz/ctz/cpop share opcode+funct3; funct12 disambiguates.
        for mn in ("clz", "ctz", "cpop", "sext.b", "sext.h"):
            w = encode(mn, rd=1, rs1=2)
            assert decode_word(w).mnemonic == mn

    def test_zext_h_requires_zero_rs2(self):
        w = encode("zext.h", rd=1, rs1=2)
        assert decode_word(w).mnemonic == "zext.h"
        # with a nonzero rs2 field the same bits would be a different
        # (unknown) instruction — must not decode as zext.h
        from repro.riscv import DecodeError
        with pytest.raises(DecodeError):
            decode_word(w | (3 << 20))

    def test_rori_distinct_from_srai(self):
        assert decode_word(encode("rori", rd=1, rs1=2, shamt=7)).mnemonic == "rori"
        assert decode_word(encode("srai", rd=1, rs1=2, shamt=7)).mnemonic == "srai"

    def test_assembler_gates_on_extension(self):
        from repro.riscv import AsmError
        with pytest.raises(AsmError):
            assemble("clz a0, a1\n", arch=RV64GC)
        assemble("clz a0, a1\n", arch=RVA23_SUBSET)

    def test_arch_string_roundtrip(self):
        s = RVA23_SUBSET.arch_string()
        assert "zbb" in s
        assert parse_arch_string(s).supports("zbb")


class TestExecution:
    def test_clz_ctz_cpop(self):
        code, _ = run_asm("""
_start:
  li a1, 0x00f0
  clz a2, a1        # 64 - 8 = 56
  ctz a3, a1        # 4
  cpop a4, a1       # 4
  add a0, a2, a3
  add a0, a0, a4    # 64
  li a7, 93
  ecall
""")
        assert code == 64

    def test_clz_ctz_zero_input(self):
        code, _ = run_asm("""
_start:
  clz a1, zero      # 64
  ctz a2, zero      # 64
  add a0, a1, a2
  li a7, 93
  ecall
""")
        assert code == 128

    def test_min_max(self):
        code, _ = run_asm("""
_start:
  li a1, -5
  li a2, 3
  min a3, a1, a2     # -5
  max a4, a1, a2     # 3
  minu a5, a1, a2    # 3 (unsigned: -5 is huge)
  sub a0, a4, a5     # 0
  sub a3, a3, a1     # 0
  add a0, a0, a3
  li a7, 93
  ecall
""")
        assert code == 0

    def test_rotates(self):
        code, _ = run_asm("""
_start:
  li a1, 1
  li a2, 60
  rol a3, a1, a2     # 1 << 60
  li a2, 4
  rol a3, a3, a2     # wraps to 1
  rori a4, a1, 63    # 1 rotated right 63 = 2
  add a0, a3, a4
  li a7, 93
  ecall
""")
        assert code == 3

    def test_sign_extension_ops(self):
        code, _ = run_asm("""
_start:
  li a1, 0x80
  sext.b a2, a1      # -128
  li a3, 0x8000
  sext.h a4, a3      # -32768
  li a5, 0x12345
  zext.h a6, a5      # 0x2345
  neg a2, a2         # 128
  srai a4, a4, 8     # -128
  add a0, a2, a4     # 0
  li t0, 0x2345
  sub a6, a6, t0
  add a0, a0, a6
  li a7, 93
  ecall
""")
        assert code == 0

    def test_logic_with_negate(self):
        code, _ = run_asm("""
_start:
  li a1, 0b1100
  li a2, 0b1010
  andn a3, a1, a2    # 0b0100
  orn a4, zero, a2   # ~0b1010 -> ...11110101; low nibble 0101
  andi a4, a4, 15
  xnor a5, a1, a1    # all ones
  andi a5, a5, 1
  add a0, a3, a4     # 4 + 5
  add a0, a0, a5     # +1
  li a7, 93
  ecall
""")
        assert code == 10


class TestAnalysis:
    def test_precise_semantics_present(self):
        for mn in ("andn", "min", "rol", "clz", "sext.b", "zext.h"):
            assert has_precise_semantics(mn), mn

    def test_constprop_through_zbb(self):
        """Backward slicing resolves jalr targets computed with Zbb ops
        — the analysis benefits from the pipeline rerun automatically."""
        p = assemble("""
.type f, @function
f:
  li t0, 0x20000
  li t1, 0x10000
  max t0, t0, t1      # 0x20000
  ctz t2, t0          # 17
  sub t0, t0, t2
  addi t0, t0, 17     # back to 0x20000... keep simple: 0x20000
  jr t0
""", arch=RVA23_SUBSET)
        co = parse_binary(Symtab.from_program(p))
        f = co.function_containing(p.entry)
        insns = sorted(f.instructions(), key=lambda i: i.address)
        v = resolve_register(insns, len(insns) - 1, lookup("t0"))
        assert v == 0x20000

    def test_codegen_gates_zbb(self):
        """CodeGenAPI must not hand Zbb instructions to an RV64GC
        mutatee (paper §3.1.1) — verified through the generic gate."""
        from repro.codegen import SnippetGenerator
        from repro.codegen.generator import ExtensionUnavailable
        gen = SnippetGenerator(RV64GC, [lookup("t0"), lookup("t1")])
        with pytest.raises(ExtensionUnavailable):
            gen._emit("clz", rd=5, rs1=6)
        gen_rva = SnippetGenerator(RVA23_SUBSET,
                                   [lookup("t0"), lookup("t1")])
        gen_rva._emit("clz", rd=5, rs1=6)  # accepted
