"""Robustness fuzzing: malformed inputs must fail cleanly, never crash
or hang — the posture a toolkit consuming arbitrary binaries needs."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.elf import ElfFormatError, read_elf, write_program
from repro.minicc import compile_source, fib_source
from repro.proccontrol import EventType, Process
from repro.riscv import assemble
from repro.symtab import Symtab


@pytest.fixture(scope="module")
def good_elf():
    return write_program(compile_source(fib_source(4)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_elf_never_crashes(good_elf, data):
    """PROPERTY: random byte corruption of a valid ELF either still
    parses or raises a clean, typed error."""
    blob = bytearray(good_elf)
    n_flips = data.draw(st.integers(1, 8))
    for _ in range(n_flips):
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] = data.draw(st.integers(0, 255))
    try:
        elf = read_elf(bytes(blob))
        # parsing succeeded: the Symtab layer must also stay clean
        try:
            Symtab.from_elf(elf)
        except (ValueError, KeyError):
            pass
    except ElfFormatError:
        # the reader's whole error surface: struct.error / IndexError /
        # bare ValueError escaping read_elf is a hardening regression
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_elf_never_crashes(good_elf, data):
    """PROPERTY: clipping a valid ELF at any byte — the classic
    truncated-download shape — parses or raises ElfFormatError only."""
    cut = data.draw(st.integers(0, len(good_elf) - 1))
    try:
        read_elf(bytes(good_elf[:cut]))
    except ElfFormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(min_size=0, max_size=512))
def test_arbitrary_bytes_never_crash_reader(blob):
    try:
        read_elf(blob)
    except ElfFormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(blob=st.binary(min_size=64, max_size=256))
# a gap function's trailing auipc overlaps the entry function's block at
# 0x10050: both functions own that address
@example(blob=bytes.fromhex("004500cd31c5") + bytes(62)
         + bytes.fromhex("2d1100a2000e000a00b09700001c"))
def test_arbitrary_code_region_parses_cleanly(blob):
    """PROPERTY: ParseAPI over arbitrary bytes terminates without
    exceptions (gaps + decode errors are normal outcomes), and the owner
    index agrees with a scan of every function at every byte."""
    from repro.parse import parse_binary
    from repro.riscv.assembler import Program, Symbol
    from repro.riscv.extensions import RV64GC

    program = Program(
        text_base=0x1_0000, text=bytes(blob),
        data_base=0x2_0000, data=b"", bss_base=0x3_0000, bss_size=0,
        symbols={"blob": Symbol("blob", 0x1_0000, len(blob), "func",
                                ".text", True)},
        entry=0x1_0000, arch=RV64GC)
    co = parse_binary(Symtab.from_program(program))
    # whatever was parsed must be internally consistent
    for fn in co.functions.values():
        for b in fn.blocks.values():
            pc = b.start
            for insn in b.insns:
                assert insn.address == pc
                pc += insn.length
    for addr in range(0x1_0000 - 2, 0x1_0000 + len(blob) + 2):
        assert co.functions_containing(addr) == [
            fn for fn in co.functions.values()
            if fn.block_at(addr) is not None], hex(addr)


class TestHardenedReader:
    """Targeted malformed-ELF shapes (the fuzz tests' named cousins):
    each must raise :class:`ElfFormatError`, never struct.error or
    IndexError."""

    def _shdr_field(self, blob: bytearray, index: int, field_off: int,
                    value: int) -> None:
        from repro.elf import structs as s
        ehdr = s.ElfHeader.unpack(bytes(blob))
        off = ehdr.e_shoff + index * s.SHDR_SIZE + field_off
        blob[off:off + 8] = value.to_bytes(8, "little")

    def test_section_offset_past_eof(self, good_elf):
        blob = bytearray(good_elf)
        # sh_offset is the 3rd u64 field (after two u32 + two u64)
        self._shdr_field(blob, 1, 4 + 4 + 8 + 8, len(blob) + 0x1000)
        with pytest.raises(ElfFormatError):
            read_elf(bytes(blob))

    def test_impossible_section_size(self, good_elf):
        blob = bytearray(good_elf)
        self._shdr_field(blob, 1, 4 + 4 + 8 + 8 + 8, 1 << 62)
        with pytest.raises(ElfFormatError):
            read_elf(bytes(blob))

    def test_truncated_section_header_table(self, good_elf):
        from repro.elf import structs as s
        ehdr = s.ElfHeader.unpack(bytes(good_elf))
        cut = ehdr.e_shoff + s.SHDR_SIZE // 2
        with pytest.raises(ElfFormatError):
            read_elf(bytes(good_elf[:cut]))

    def test_clipped_attributes_section(self):
        from repro.elf.riscv_attrs import (
            AttributesError, build_attributes_section,
            parse_attributes_section,
        )
        section = build_attributes_section("rv64imafdc")
        for cut in range(1, len(section)):
            try:
                parse_attributes_section(section[:cut])
            except AttributesError:
                pass
        # and the clipped-attributes error IS an ELF format error
        assert issubclass(AttributesError, ElfFormatError)

    def test_unterminated_string_table(self):
        from repro.elf.structs import StringTable
        with pytest.raises(ElfFormatError):
            StringTable.read(b"abc", 0)          # no NUL terminator
        with pytest.raises(ElfFormatError):
            StringTable.read(b"abc\x00", 99)     # offset out of range


class TestBreakpointWriteThrough:
    def test_write_over_breakpoint_merges(self):
        p = assemble("""
.globl _start
_start:
  li a0, 1
  addi a0, a0, 2
  li a7, 93
  ecall
""")
        st_ = Symtab.from_program(p)
        proc = Process.create(st_)
        site = p.entry + 4  # the addi
        proc.insert_breakpoint(site)
        # debugger-style code patch while the trap is planted:
        from repro.riscv import encode
        proc.write_memory(
            site, encode("addi", rd=10, rs1=10, imm=40).to_bytes(4, "little"))
        # the trap must still be armed...
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        # ...and resuming must execute the *new* instruction
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert ev.exit_code == 41

    def test_write_elsewhere_untouched(self):
        p = assemble("_start:\nli a0, 7\nli a7, 93\necall\n")
        st_ = Symtab.from_program(p)
        proc = Process.create(st_)
        proc.insert_breakpoint(p.entry + 4)
        from repro.riscv import encode
        proc.write_memory(
            p.entry, encode("addi", rd=10, rs1=0, imm=9).to_bytes(4, "little"))
        proc.continue_to_event()          # hits the breakpoint
        ev = proc.continue_to_event()
        assert ev.exit_code == 9
