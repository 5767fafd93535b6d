"""Static binary rewriting: serialise a PatchResult into a new ELF
(the paper's Figure 1 "static binary instrumentation" flow, and the
feature set of the planned 4Q2025 release).

The rewritten executable carries three extra sections:

* ``.dyninst.text`` — the trampolines (ALLOC+EXECINSTR);
* ``.dyninst.data`` — the instrumentation data area (counters...), a
  zero-initialised ``SHT_NOBITS`` section like ``.bss``: it has a memory
  size but no file bytes;
* ``.dyninst.traps`` — the trap-redirect map as (site, target) u64
  pairs, consumed by the loader so worst-case trap springboards work
  (in real Dyninst this role is played by the runtime library).

:func:`load_instrumented` maps a rewritten ELF into a simulator machine
(every NOBITS section as zero-filled memory) and installs the trap map.
"""

from __future__ import annotations

from ..elf import structs as es
from ..elf.reader import read_elf
from ..elf.writer import ElfImage, SectionImage, write_elf
from ..riscv.assembler import Symbol
from ..symtab.symtab import Symtab
from .patcher import PatchResult

TRAP_SECTION = ".dyninst.traps"
TEXT_SECTION = ".dyninst.text"
DATA_SECTION = ".dyninst.data"


def _trap_blob(trap_map: dict[int, int]) -> bytes:
    out = bytearray()
    for site in sorted(trap_map):
        out += site.to_bytes(8, "little")
        out += trap_map[site].to_bytes(8, "little")
    return bytes(out)


def _parse_trap_blob(blob: bytes) -> dict[int, int]:
    out: dict[int, int] = {}
    for off in range(0, len(blob) - 15, 16):
        site = int.from_bytes(blob[off:off + 8], "little")
        target = int.from_bytes(blob[off + 8:off + 16], "little")
        out[site] = target
    return out


def rewrite(symtab: Symtab, result: PatchResult) -> bytes:
    """Produce the instrumented executable."""
    sections: list[SectionImage] = []
    for region in symtab.regions:
        if region.executable and region.addr == result.text_base:
            data = result.text
        else:
            data = region.data
        mem = region.mem_size if region.mem_size is not None else None
        sh_type = es.SHT_NOBITS if (mem is not None and not data) \
            else es.SHT_PROGBITS
        flags = es.SHF_ALLOC
        if region.executable:
            flags |= es.SHF_EXECINSTR
        else:
            flags |= es.SHF_WRITE
        sections.append(SectionImage(
            region.name, data, region.addr, sh_type=sh_type,
            sh_flags=flags, mem_size=mem,
            align=4 if region.executable else 8))

    if result.trampoline_code:
        sections.append(SectionImage(
            TEXT_SECTION, result.trampoline_code, result.trampoline_base,
            sh_flags=es.SHF_ALLOC | es.SHF_EXECINSTR, align=16))
    sections.append(SectionImage(
        DATA_SECTION, b"", result.data_base, sh_type=es.SHT_NOBITS,
        sh_flags=es.SHF_ALLOC | es.SHF_WRITE, mem_size=result.data_size,
        align=8))
    if result.trap_map:
        sections.append(SectionImage(
            TRAP_SECTION, _trap_blob(result.trap_map),
            sh_type=es.SHT_PROGBITS, align=8))
    if symtab.lines:
        from ..elf.lines import LINES_SECTION, build_lines_section

        sections.append(SectionImage(
            LINES_SECTION,
            build_lines_section(symtab.lines._map),
            sh_type=es.SHT_PROGBITS, align=8))

    symbols = list(symtab.symbols.values())
    for name, var in result.data_area.variables.items():
        symbols.append(Symbol(
            name=f"dyninst${name}", address=var.address, size=var.size,
            kind="object", section=DATA_SECTION, is_global=True))

    image = ElfImage(
        entry=symtab.entry,
        sections=sections,
        symbols=symbols,
        arch=symtab.isa,
    )
    return write_elf(image)


def load_instrumented(machine, elf_bytes: bytes) -> Symtab:
    """Load a rewritten executable into a simulator machine, installing
    the trap-redirect map.  Returns the Symtab of the new binary."""
    elf = read_elf(elf_bytes)
    symtab = Symtab.from_elf(elf)
    symtab.load_into(machine)
    trap_sec = elf.section(TRAP_SECTION)
    if trap_sec is not None:
        machine.trap_redirects.update(_parse_trap_blob(trap_sec.data))
    return symtab
