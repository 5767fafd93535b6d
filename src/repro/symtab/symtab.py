"""SymtabAPI: platform-independent view of a binary's structure
(paper §2.1, §3.2.1).

Wraps the ELF substrate and answers the questions the rest of Dyninst
asks: where is the code, what symbols exist, what ISA extensions was the
binary compiled for.  Extension discovery follows the paper exactly:

1. parse ``.riscv.attributes`` and use its arch string when present;
2. otherwise fall back to ``e_flags`` (always present), which reveals
   the C extension and the float ABI.

Works on *stripped* binaries: symbols are optional, code regions come
from program/section headers (Dyninst's opportunistic analysis).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..elf.reader import ElfFile, read_elf
from ..elf.riscv_attrs import AttributesError, parse_attributes_section
from ..elf import structs as es
from ..riscv.assembler import Program, Symbol
from ..riscv.extensions import (
    ArchStringError, ISASubset, parse_arch_string,
)


@dataclass(frozen=True)
class Region:
    """A contiguous mapped region of the binary."""

    name: str
    addr: int
    data: bytes
    executable: bool
    mem_size: int | None = None  # for .bss-style regions

    @property
    def end(self) -> int:
        return self.addr + (self.mem_size if self.mem_size is not None
                            else len(self.data))

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.end


class Symtab:
    """Structured view of one binary."""

    def __init__(self, entry: int, regions: list[Region],
                 symbols: list[Symbol], isa: ISASubset,
                 isa_source: str,
                 line_map: dict[int, int] | None = None):
        from ..elf.lines import LineTable

        self.entry = entry
        self.regions = regions
        self._symbols = {sym.name: sym for sym in symbols}
        self.isa = isa
        #: where the extension info came from: 'attributes' | 'e_flags'
        #: | 'program'
        self.isa_source = isa_source
        #: optional debug line info (empty table when absent)
        self.lines = LineTable(line_map or {})

    def line_for(self, addr: int) -> int | None:
        """Source line for a text address, when debug info is present
        (Dyninst's opportunistic use of debugging data)."""
        return self.lines.line_for(addr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Symtab":
        return cls.from_elf(read_elf(data))

    @classmethod
    def from_elf(cls, elf: ElfFile) -> "Symtab":
        from ..elf.lines import LINES_SECTION, parse_lines_section

        if not elf.is_riscv:
            raise ValueError(
                f"not a RISC-V binary (e_machine={elf.header.e_machine})")
        regions = _regions_from_elf(elf)
        symbols = _symbols_from_elf(elf)
        isa, source = _discover_isa(elf)
        line_map = None
        lines_sec = elf.section(LINES_SECTION)
        if lines_sec is not None:
            line_map = parse_lines_section(lines_sec.data)
        return cls(elf.entry, regions, symbols, isa, source, line_map)

    @classmethod
    def from_program(cls, program: Program) -> "Symtab":
        """Directly from an assembled program (shortcut for tests and
        in-memory pipelines; equivalent to writing + reading the ELF)."""
        regions = [
            Region(".text", program.text_base, program.text, True),
            Region(".data", program.data_base, program.data, False),
        ]
        if program.bss_size:
            regions.append(Region(".bss", program.bss_base, b"", False,
                                  mem_size=program.bss_size))
        return cls(program.entry, regions,
                   list(program.symbols.values()), program.arch,
                   "program", program.line_map or None)

    # -- queries -------------------------------------------------------------

    @property
    def symbols(self) -> dict[str, Symbol]:
        return dict(self._symbols)

    def symbol(self, name: str) -> Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise KeyError(f"no such symbol: {name!r}") from None

    def function_symbols(self) -> list[Symbol]:
        return sorted((sym for sym in self._symbols.values()
                       if sym.kind == "func"),
                      key=lambda y: y.address)

    def code_regions(self) -> list[Region]:
        return [r for r in self.regions if r.executable]

    def region_at(self, addr: int) -> Region | None:
        for r in self.regions:
            if r.contains(addr):
                return r
        return None

    def is_code(self, addr: int) -> bool:
        r = self.region_at(addr)
        return r is not None and r.executable

    def read(self, addr: int, n: int) -> bytes:
        """Read bytes at a virtual address from the file image."""
        r = self.region_at(addr)
        if r is None:
            raise KeyError(f"address {addr:#x} not in any region")
        off = addr - r.addr
        return r.data[off:off + n]

    def symbol_at(self, addr: int) -> Symbol | None:
        for sym in self._symbols.values():
            if sym.address == addr:
                return sym
        return None

    # -- simulator interface ---------------------------------------------------

    def to_image(self):
        """(segments, zero_fill, entry, exec_ranges) for
        Machine.load_image.  *zero_fill* lists the (addr, size) tail of
        every region whose memory size exceeds its file bytes (each
        ``.sbss``/``.bss``-style NOBITS section)."""
        segments = [(r.addr, r.data) for r in self.regions if r.data]
        zero_fill = [(r.addr + len(r.data), r.mem_size - len(r.data))
                     for r in self.regions
                     if r.mem_size is not None and r.mem_size > len(r.data)]
        exec_ranges = [(r.addr, r.end) for r in self.regions if r.executable]
        return segments, zero_fill, self.entry, exec_ranges

    def load_into(self, machine) -> None:
        """Map this binary into a simulator Machine and reset to entry."""
        segments, zero_fill, entry, exec_ranges = self.to_image()
        machine.load_image(segments, entry, zero_fill=zero_fill,
                           exec_range=exec_ranges[0] if exec_ranges else None)
        for lo, hi in exec_ranges[1:]:
            machine.add_exec_range(lo, hi)


def _regions_from_elf(elf: ElfFile) -> list[Region]:
    regions: list[Region] = []
    named = False
    for sec in elf.sections:
        if not sec.is_alloc:
            continue
        named = True
        mem = sec.header.sh_size if sec.header.sh_type == es.SHT_NOBITS else None
        regions.append(Region(sec.name or f"sec@{sec.addr:#x}", sec.addr,
                              sec.data, sec.is_code, mem_size=mem))
    if not named:
        # Section-stripped binary: fall back to program headers.
        for i, (vaddr, data, memsz, execbit) in enumerate(elf.load_segments()):
            regions.append(Region(f"load{i}", vaddr, data, execbit,
                                  mem_size=memsz if memsz > len(data) else None))
    return regions


def _symbols_from_elf(elf: ElfFile) -> list[Symbol]:
    out: list[Symbol] = []
    for sym in elf.symbols:
        if not sym.name or sym.st_shndx == es.SHN_UNDEF:
            continue
        kind = {es.STT_FUNC: "func", es.STT_OBJECT: "object"}.get(
            sym.type, "notype")
        out.append(Symbol(
            name=sym.name, address=sym.st_value, size=sym.st_size,
            kind=kind, section="", is_global=sym.bind == es.STB_GLOBAL))
    return out


def _discover_isa(elf: ElfFile) -> tuple[ISASubset, str]:
    """Extension discovery per paper §3.2.1: .riscv.attributes first,
    e_flags as the universal fallback."""
    attrs_sec = elf.section(".riscv.attributes")
    if attrs_sec is not None:
        try:
            attrs = parse_attributes_section(attrs_sec.data)
            if attrs.arch:
                return parse_arch_string(attrs.arch), "attributes"
        except (AttributesError, ArchStringError):
            pass  # fall through to e_flags, like Dyninst does
    exts = {"i", "m", "a", "zicsr", "zifencei"}  # conservative G-ish base
    if elf.e_flags & es.EF_RISCV_RVC:
        exts.add("c")
    fabi = elf.e_flags & es.EF_RISCV_FLOAT_ABI_MASK
    if fabi & es.EF_RISCV_FLOAT_ABI_DOUBLE:
        exts.update({"f", "d"})
    elif fabi & es.EF_RISCV_FLOAT_ABI_SINGLE:
        exts.add("f")
    return ISASubset(64, frozenset(exts)), "e_flags"
