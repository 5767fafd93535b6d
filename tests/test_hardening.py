"""Edge-case and error-path hardening tests across modules."""

import pytest

from repro.elf import read_elf, write_program
from repro.minicc import compile_source, fib_source
from repro.parse import parse_binary
from repro.patch.rewriter import _parse_trap_blob, _trap_blob
from repro.proccontrol import Process
from repro.riscv import AsmError, assemble, decode, decode_all
from repro.sim import Machine, MemoryFault, P550, X86PROXY
from repro.sim.timing import UCYCLE, category_of
from repro.symtab import Symtab


class TestAssemblerEdgeCases:
    def test_jalr_three_operand_form(self):
        p = assemble("jalr a0, t0, 4\n")
        ins = decode(p.text)
        assert ins.fields == {"rd": 10, "rs1": 5, "imm": 4}

    def test_jalr_single_register_form(self):
        p = assemble("jalr t2\n")
        assert decode(p.text).fields == {"rd": 1, "rs1": 7, "imm": 0}

    def test_balign_and_skip(self):
        p = assemble(".data\n.byte 1\n.balign 16\nx: .skip 3\ny: .byte 9\n")
        assert p.symbols["x"].address % 16 == 0
        assert p.symbols["y"].address == p.symbols["x"].address + 3

    def test_string_escapes(self):
        p = assemble('.data\ns: .asciz "a\\nb\\t"\n')
        assert p.data[:5] == b"a\nb\t\x00"

    def test_ascii_no_nul(self):
        p = assemble('.data\ns: .ascii "ab"\nt: .byte 7\n')
        assert p.data[:3] == b"ab\x07"

    def test_negative_word(self):
        p = assemble(".data\nw: .word -2\n")
        assert p.data[:4] == b"\xfe\xff\xff\xff"

    def test_empty_program(self):
        p = assemble("\n# only a comment\n")
        assert p.text == b""

    def test_branch_out_of_range_rejected(self):
        src = "f:\n" + "nop\n" * 1200 + "beq a0, a1, f\n"
        with pytest.raises(AsmError):
            assemble(src)

    def test_call_out_of_range_suggests_far(self):
        # simulate by using a raw big offset
        with pytest.raises(AsmError) as ei:
            assemble("call 0x200000\n")
        assert "far" in str(ei.value)

    def test_ignored_directives_accepted(self):
        assemble(".option norvc\n.file \"x.c\"\nnop\n.cfi_startproc\n")


class TestDisasmFormats:
    def test_memory_style(self):
        from repro.riscv.encoder import make
        assert make("ld", rd=10, rs1=2, imm=-8).disasm() == "ld a0, -8(sp)"
        assert make("sd", rs2=1, rs1=8, imm=16).disasm() == "sd ra, 16(s0)"
        assert make("fld", rd=5, rs1=10, imm=0).disasm() == "fld ft5, 0(a0)"

    def test_compressed_marker(self):
        from repro.riscv.compressed import decode_compressed, encode_compressed
        ins = decode_compressed(encode_compressed("c.mv", rd=10, rs2=11))
        assert ins.disasm().startswith("c.mv")

    def test_csr_hex(self):
        from repro.riscv.encoder import make
        text = make("csrrs", rd=10, csr=0xC00, rs1=0).disasm()
        assert "0xc00" in text


class TestSimulatorEdgeCases:
    def test_memory_introspection(self):
        m = Machine()
        assert m.mem.mapped_pages() == 0
        m.mem.map_region(0x5000, 1)
        assert m.mem.is_mapped(0x5000)
        assert not m.mem.is_mapped(0x6000)
        assert m.mem.mapped_pages() == 1

    def test_truncated_fetch_faults(self):
        m = Machine()
        m.mem.map_region(0x1000, 0x1000)
        # place a 4-byte instruction header at the very end of mapping
        m.mem.write_int(0x1FFE, 2, 0x0033 | 3)  # low bits 11 -> 32-bit
        m.pc = 0x1FFE
        ev = m.step()
        assert ev is not None and ev.reason.value == "fault"

    def test_misaligned_reads_ok(self):
        # RV64GC hardware supports misaligned loads; so do we.
        m = Machine()
        m.mem.map_region(0x1000, 0x100)
        m.mem.write_int(0x1001, 8, 0x1122334455667788)
        assert m.mem.read_int(0x1001, 8) == 0x1122334455667788

    def test_timing_category_coverage(self):
        from repro.riscv.opcodes import all_specs
        for spec in all_specs():
            cat = category_of(spec.mnemonic, spec.match & 0x7F)
            assert P550.ucycles(cat) >= 1
            assert X86PROXY.ucycles(cat) >= 1

    def test_timing_conversions(self):
        assert P550.seconds(UCYCLE * int(1.4e9)) == pytest.approx(1.0)
        # nanoseconds is an integer (rounded)
        assert P550.nanoseconds(UCYCLE * 14) == 10

    def test_fault_includes_address(self):
        m = Machine()
        with pytest.raises(MemoryFault) as ei:
            m.mem.read_int(0xABCD000, 8)
        assert "0xabcd000" in str(ei.value)


class TestRewriterBlob:
    def test_trap_blob_roundtrip(self):
        table = {0x1000: 0x2000, 0x1F00: 0xFFFF_FFFF_0000}
        assert _parse_trap_blob(_trap_blob(table)) == table

    def test_empty_blob(self):
        assert _parse_trap_blob(b"") == {}


class TestProcControlEdgeCases:
    def test_read_memory_masks_multiple_breakpoints(self):
        p = assemble("_start:\nnop\nnop\nnop\nli a7, 93\necall\n")
        st = Symtab.from_program(p)
        proc = Process.create(st)
        original = proc.read_memory(st.entry, 12)
        proc.insert_breakpoint(st.entry)
        proc.insert_breakpoint(st.entry + 8)
        assert proc.read_memory(st.entry, 12) == original
        # partial overlap reads too
        assert proc.read_memory(st.entry + 2, 8) == original[2:10]

    def test_duplicate_breakpoint_insert(self):
        p = assemble("_start:\nnop\nli a7, 93\necall\n")
        proc = Process.create(Symtab.from_program(p))
        b1 = proc.insert_breakpoint(p.entry)
        b2 = proc.insert_breakpoint(p.entry)
        assert b1 is b2

    def test_remove_nonexistent_breakpoint(self):
        p = assemble("_start:\nnop\nli a7, 93\necall\n")
        proc = Process.create(Symtab.from_program(p))
        proc.remove_breakpoint(0xDEAD)  # no-op


class TestParserEdgeCases:
    def test_block_targets_helper(self):
        from repro.parse import EdgeType
        co = parse_binary(Symtab.from_program(
            compile_source(fib_source(5))))
        fib = co.function_by_name("fib")
        entry = fib.entry_block
        assert entry.targets()  # some successors
        taken = entry.targets(EdgeType.COND_TAKEN)
        assert all(isinstance(t, int) for t in taken)

    def test_function_size(self):
        co = parse_binary(Symtab.from_program(
            compile_source(fib_source(5))))
        fib = co.function_by_name("fib")
        assert fib.size > 0
        assert fib.size % 2 == 0

    def test_decode_all_on_elf_text(self):
        blob = write_program(compile_source(fib_source(4)))
        elf = read_elf(blob)
        text = elf.section(".text")
        count = sum(1 for _ in decode_all(text.data, text.addr))
        assert count > 20

    def test_empty_code_object_queries(self):
        p = assemble(".data\nx: .dword 1\n")
        co = parse_binary(Symtab.from_program(p))
        assert co.function_containing(0x9999) is None
        assert co.block_containing(0x9999) is None
        assert co.covered_ranges() == []
