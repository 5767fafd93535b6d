"""SymtabAPI tests: extension discovery (§3.2.1), regions, symbols,
stripped-binary behaviour."""

import pytest

from repro.elf import read_elf, write_elf, write_program
from repro.elf.writer import ElfImage, SectionImage, image_from_program
from repro.riscv import RV64GC, assemble
from repro.riscv.extensions import ISASubset
from repro.symtab import Symtab

SRC = """
.globl _start
.type _start, @function
_start:
  li a7, 93
  li a0, 3
  ecall
.type helper, @function
helper:
  ret
.data
val: .dword 42
"""


@pytest.fixture
def program():
    return assemble(SRC)


@pytest.fixture
def symtab(program):
    return Symtab.from_bytes(write_program(program))


class TestExtensionDiscovery:
    def test_attributes_preferred(self, symtab):
        assert symtab.isa_source == "attributes"
        assert symtab.isa.supports("c")
        assert symtab.isa.supports("d")
        assert symtab.isa.extensions == RV64GC.extensions

    def test_e_flags_fallback(self, program):
        blob = write_program(program, emit_attributes=False)
        st = Symtab.from_bytes(blob)
        assert st.isa_source == "e_flags"
        assert st.isa.supports("c")
        assert st.isa.supports("d")

    def test_e_flags_no_c_extension(self):
        from repro.riscv.extensions import RV64G
        p = assemble("nop\n", arch=RV64G)
        st = Symtab.from_bytes(write_program(p, emit_attributes=False))
        assert not st.isa.supports("c")

    def test_malformed_attributes_falls_back(self, program):
        image = image_from_program(program, emit_attributes=False)
        image.sections.append(SectionImage(
            ".riscv.attributes", b"garbage!", sh_type=0x7000_0003, align=1))
        st = Symtab.from_bytes(write_elf(image))
        assert st.isa_source == "e_flags"


class TestRegionsAndSymbols:
    def test_code_region(self, symtab, program):
        regions = symtab.code_regions()
        assert len(regions) == 1
        assert regions[0].addr == program.text_base
        assert regions[0].data == program.text

    def test_region_lookup(self, symtab, program):
        assert symtab.is_code(program.entry)
        assert not symtab.is_code(program.data_base)
        assert symtab.region_at(0xDEAD0000) is None

    def test_read_at_vaddr(self, symtab, program):
        assert symtab.read(program.data_base, 8) == (42).to_bytes(8, "little")

    def test_function_symbols(self, symtab):
        names = [s.name for s in symtab.function_symbols()]
        assert names == ["_start", "helper"]
        assert symtab.symbol("_start").is_global
        assert not symtab.symbol("helper").is_global

    def test_symbol_at(self, symtab, program):
        assert symtab.symbol_at(program.entry).name == "_start"
        assert symtab.symbol_at(program.entry + 2) is None

    def test_missing_symbol_raises(self, symtab):
        with pytest.raises(KeyError):
            symtab.symbol("nope")

    def test_from_program_equivalent(self, program):
        direct = Symtab.from_program(program)
        via_elf = Symtab.from_bytes(write_program(program))
        assert direct.entry == via_elf.entry
        assert {s.name for s in direct.function_symbols()} == \
               {s.name for s in via_elf.function_symbols()}
        assert direct.code_regions()[0].data == via_elf.code_regions()[0].data

    def test_every_nobits_section_is_mapped(self):
        """An ELF with both .sbss and .bss: each zero-fill section is
        mapped at load, reads as zeros and takes stores."""
        from repro.elf import structs as es
        from repro.sim import Machine, StopReason

        sbss, bss, bss_size = 0x3_0000, 0x4_0000, 0x2000
        text = assemble(f"""
.globl _start
_start:
  li t0, {sbss}
  li t1, {bss + bss_size - 8}
  ld a0, 0(t0)
  ld a1, 0(t1)
  add a0, a0, a1
  li t2, 7
  sd t2, 8(t0)
  sd t2, -8(t1)
  li a7, 93
  ecall
""")
        zero_fill = es.SHF_ALLOC | es.SHF_WRITE
        image = image_from_program(text)
        image.sections += [
            SectionImage(".sbss", b"", sbss, sh_type=es.SHT_NOBITS,
                         sh_flags=zero_fill, mem_size=16),
            SectionImage(".bss", b"", bss, sh_type=es.SHT_NOBITS,
                         sh_flags=zero_fill, mem_size=bss_size),
        ]
        st = Symtab.from_bytes(write_elf(image))
        m = Machine()
        st.load_into(m)
        ev = m.run(max_steps=1000)
        assert ev.reason is StopReason.EXITED, ev
        assert ev.exit_code == 0
        assert m.mem.read_int(sbss, 8) == 0
        assert m.mem.read_int(sbss + 8, 8) == 7
        assert m.mem.read_int(bss, 8) == 0
        assert m.mem.read_int(bss + bss_size - 16, 8) == 7


class TestStrippedBinaries:
    def test_stripped_still_has_regions(self, program):
        """Dyninst analyzes stripped binaries opportunistically: drop the
        symbol table, keep code regions and entry."""
        image = image_from_program(program)
        image.symbols = []
        st = Symtab.from_bytes(write_elf(image))
        assert st.function_symbols() == []
        assert st.code_regions()
        assert st.entry == program.entry

    def test_non_riscv_rejected(self, program):
        blob = bytearray(write_program(program))
        blob[18] = 0x3E  # EM_X86_64
        with pytest.raises(ValueError):
            Symtab.from_bytes(bytes(blob))
