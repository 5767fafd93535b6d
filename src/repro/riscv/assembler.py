"""Two-pass RISC-V assembler with layout (a minimal as+ld).

Supports the RV64GC standard mnemonics from the spec table, the usual
pseudo-instructions (``li``, ``la``, ``mv``, ``call``, ``ret``,
branches-against-zero, ...), an encodable subset of compressed ``c.*``
mnemonics, labels, and the data directives the MiniC compiler emits.

The assembler also performs layout: ``.text`` is placed at ``text_base``,
``.data``/``.rodata`` on the next page, ``.bss`` after that, and all
symbols are resolved to absolute virtual addresses.  The result is a
:class:`Program` that the ELF writer serialises and the simulator loads
directly.

Pseudo-instructions whose expansion length depends on a *label* value
(``call``/``tail``/``la``) have deterministic fixed-size expansions so
that pass 1 can do exact layout without relaxation:

* ``call``/``tail``  -> single ``jal`` (error if target out of range)
* ``call.far``/``tail.far`` -> ``auipc`` + ``jalr`` pair (paper §3.2.3's
  multi-instruction jump idiom, emitted explicitly to exercise ParseAPI)
* ``la`` -> ``auipc`` + ``addi`` pair
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field

from .compressed import encode_compressed, try_compress
from .encoder import encode_fields
from .encoding import EncodingError, fits_signed
from .extensions import ISASubset, RV64GC, get_extension
from .materialize import materialize_imm, pcrel_hi_lo
from .opcodes import (
    OP_JALR, OP_LOAD, OP_LOAD_FP, by_mnemonic,
)
from .registers import lookup as reg_lookup


class AsmError(ValueError):
    """Assembly-time error, annotated with the source line."""

    def __init__(self, message: str, line_no: int | None = None,
                 line: str | None = None):
        loc = f" (line {line_no}: {line!r})" if line_no is not None else ""
        super().__init__(message + loc)
        self.line_no = line_no


@dataclass(frozen=True)
class Symbol:
    """A resolved program symbol."""

    name: str
    address: int
    size: int = 0
    kind: str = "notype"  # 'func' | 'object' | 'notype'
    section: str = ".text"
    is_global: bool = False


@dataclass
class Program:
    """A fully laid-out freestanding program image."""

    text_base: int
    text: bytes
    data_base: int
    data: bytes
    bss_base: int
    bss_size: int
    symbols: dict[str, Symbol]
    entry: int
    arch: ISASubset = RV64GC
    #: optional debug line table: text address -> source line (from
    #: ``.loc`` directives, the DWARF .debug_line stand-in)
    line_map: dict[int, int] = field(default_factory=dict)

    def symbol(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"no such symbol: {name!r}") from None

    def function_symbols(self) -> list[Symbol]:
        return sorted(
            (s for s in self.symbols.values() if s.kind == "func"),
            key=lambda s: s.address,
        )


_NAMED_CSRS = {
    "fflags": 0x001, "frm": 0x002, "fcsr": 0x003,
    "cycle": 0xC00, "time": 0xC01, "instret": 0xC02,
}

_SYM_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_RE = re.compile(r"^(?P<off>[^()]*)\((?P<base>[^()]+)\)$")

#: Pseudo-instruction fixed sizes in bytes (label-safe expansions).
_PSEUDO_SIZES = {
    "nop": 4, "mv": 4, "not": 4, "neg": 4, "negw": 4, "sext.w": 4,
    "seqz": 4, "snez": 4, "sltz": 4, "sgtz": 4,
    "beqz": 4, "bnez": 4, "blez": 4, "bgez": 4, "bltz": 4, "bgtz": 4,
    "bgt": 4, "ble": 4, "bgtu": 4, "bleu": 4,
    "j": 4, "jr": 4, "ret": 4,
    "call": 4, "tail": 4, "call.far": 8, "tail.far": 8, "la": 8,
    "fmv.s": 4, "fmv.d": 4, "fabs.s": 4, "fabs.d": 4,
    "fneg.s": 4, "fneg.d": 4,
    "csrr": 4, "csrw": 4, "csrs": 4, "csrc": 4,
    "rdcycle": 4, "rdtime": 4, "rdinstret": 4,
}

_COMPRESSED_ENCODERS = {
    "c.nop": lambda ops, ctx: encode_compressed("c.nop"),
    "c.ebreak": lambda ops, ctx: encode_compressed("c.ebreak"),
    "c.addi": lambda ops, ctx: encode_compressed(
        "c.addi", rd=ctx.reg(ops[0]), imm=ctx.imm(ops[1])),
    "c.li": lambda ops, ctx: encode_compressed(
        "c.li", rd=ctx.reg(ops[0]), imm=ctx.imm(ops[1])),
    "c.mv": lambda ops, ctx: encode_compressed(
        "c.mv", rd=ctx.reg(ops[0]), rs2=ctx.reg(ops[1])),
    "c.jr": lambda ops, ctx: encode_compressed("c.jr", rs1=ctx.reg(ops[0])),
    "c.j": lambda ops, ctx: encode_compressed(
        "c.j", imm=ctx.imm(ops[0]) - ctx.pc),
}

#: Standard mnemonics the compressing assembler shrinks when their
#: operands are literals.  ``jalr`` is left out, so ``jalr rd, 0(rs1)``
#: keeps its 4-byte form.
_LITERAL_COMPRESSIBLE = frozenset((
    "add", "sub", "xor", "or", "and", "subw", "addw", "addi", "addiw",
    "andi", "lui", "slli", "srli", "srai", "ld", "lw", "fld", "sd", "sw",
    "fsd"))


@dataclass
class _Item:
    """One statement placed during pass 1."""

    section: str
    offset: int
    size: int
    kind: str              # 'instr' | 'data' | 'align'
    mnemonic: str = ""
    operands: tuple[str, ...] = ()
    payload: bytes = b""
    data_expr: tuple[str, str] | None = None  # (directive, expr) for late eval
    line_no: int = 0
    line: str = ""


class Assembler:
    """Two-pass assembler + layout engine.

    Parameters
    ----------
    text_base:
        Virtual address of the ``.text`` section.
    arch:
        ISA subset recorded in the produced :class:`Program` (and checked
        against the extensions actually used).
    page:
        Alignment between sections.
    """

    def __init__(self, text_base: int = 0x1_0000,
                 arch: ISASubset = RV64GC, page: int = 0x1000,
                 compress: bool = False):
        self.text_base = text_base
        self.arch = arch
        self.page = page
        #: auto-compress eligible instructions to RV64C forms.  Only
        #: operand-determined forms are compressed (never anything whose
        #: encoding depends on a label value), so sizes are known in
        #: pass 1 and no relaxation is needed.
        self.compress = compress and arch.supports("c")

    # -- public API ----------------------------------------------------

    def assemble(self, source: str) -> Program:
        self._loc_marks: list[tuple[int, int]] = []
        items, labels, meta = self._pass1(source)
        sizes = meta["sizes"]
        data_base = _align(self.text_base + sizes[".text"], self.page)
        bss_base = _align(data_base + sizes[".data"], self.page)
        bases = {".text": self.text_base, ".data": data_base, ".bss": bss_base}

        symbols: dict[str, Symbol] = {}
        for name, (section, offset) in labels.items():
            symbols[name] = Symbol(
                name=name,
                address=bases[section] + offset,
                size=meta["sym_sizes"].get(name, 0),
                kind=meta["sym_kinds"].get(name, "notype"),
                section=section,
                is_global=name in meta["globals"],
            )

        text = bytearray(sizes[".text"])
        data = bytearray(sizes[".data"])
        buffers = {".text": text, ".data": data}
        for item in items:
            if item.section == ".bss":
                continue
            buf = buffers[item.section]
            addr = bases[item.section] + item.offset
            blob = self._emit(item, symbols, addr)
            if len(blob) != item.size:
                raise AsmError(
                    f"size drift: planned {item.size}, emitted {len(blob)}",
                    item.line_no, item.line)
            buf[item.offset:item.offset + len(blob)] = blob

        # Infer function sizes for 'func' symbols without explicit .size:
        # distance to the next non-local symbol in .text (or end of
        # .text).  ``.L*`` labels are assembler-local and never terminate
        # a function.
        text_syms = sorted(
            (s for s in symbols.values()
             if s.section == ".text" and not s.name.startswith(".L")),
            key=lambda s: s.address)
        text_end = self.text_base + sizes[".text"]
        for i, s in enumerate(text_syms):
            if s.size == 0 and s.kind == "func":
                nxt = next(
                    (t.address for t in text_syms[i + 1:]
                     if t.address > s.address), text_end)
                symbols[s.name] = Symbol(
                    s.name, s.address, nxt - s.address, s.kind, s.section,
                    s.is_global)

        entry = symbols["_start"].address if "_start" in symbols else self.text_base
        line_map = {self.text_base + off: line
                    for off, line in self._loc_marks}
        return Program(
            text_base=self.text_base, text=bytes(text),
            data_base=data_base, data=bytes(data),
            bss_base=bss_base, bss_size=sizes[".bss"],
            symbols=symbols, entry=entry, arch=self.arch,
            line_map=line_map,
        )

    # -- pass 1: sizing & labels ----------------------------------------

    def _pass1(self, source: str):
        items: list[_Item] = []
        labels: dict[str, tuple[str, int]] = {}
        offsets = {".text": 0, ".data": 0, ".bss": 0}
        meta = {
            "globals": set(), "sym_kinds": {}, "sym_sizes": {},
            "sizes": offsets,
        }
        section = ".text"
        for line_no, raw in enumerate(source.splitlines(), 1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            # Labels (possibly several) at line start.
            while True:
                m = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*", line)
                if not m:
                    break
                name = m.group(1)
                if name in labels:
                    raise AsmError(f"duplicate label {name!r}", line_no, raw)
                labels[name] = (section, offsets[section])
                line = line[m.end():]
            if not line:
                continue
            if line.startswith("."):
                section = self._directive_pass1(
                    line, section, offsets, items, meta, labels, line_no, raw)
                continue
            mn, ops = _split_instr(line)
            size = self._instr_size(mn, ops, line_no, raw)
            items.append(_Item(section, offsets[section], size, "instr",
                               mn, ops, line_no=line_no, line=raw))
            offsets[section] += size
        return items, labels, meta

    def _instr_size(self, mn: str, ops: tuple[str, ...],
                    line_no: int, raw: str) -> int:
        if mn in _COMPRESSED_ENCODERS:
            return 2
        if mn == "li":
            if len(ops) != 2:
                raise AsmError("li takes rd, imm", line_no, raw)
            try:
                value = _parse_int(ops[1])
            except ValueError:
                raise AsmError(
                    "li requires a literal immediate (use `la` for symbols)",
                    line_no, raw) from None
            return 4 * len(materialize_imm(5, value))
        if mn in _PSEUDO_SIZES:
            if self.compress and self._pseudo_compressible(mn, ops):
                return 2  # c.nop / c.mv / c.jr ra
            return _PSEUDO_SIZES[mn]
        try:
            by_mnemonic(mn)
        except KeyError:
            raise AsmError(f"unknown mnemonic {mn!r}", line_no, raw) from None
        if self.compress and self._literal_compress(mn, ops) is not None:
            return 2
        return 4

    def _directive_pass1(self, line, section, offsets, items, meta,
                         labels, line_no, raw):
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name in (".text",):
            return ".text"
        if name in (".data", ".rodata"):
            return ".data"
        if name == ".section":
            sec = rest.split(",")[0].strip()
            if sec in (".text",):
                return ".text"
            if sec in (".data", ".rodata", ".srodata", ".sdata"):
                return ".data"
            if sec == ".bss":
                return ".bss"
            raise AsmError(f"unsupported section {sec!r}", line_no, raw)
        if name == ".bss":
            return ".bss"
        if name in (".globl", ".global"):
            meta["globals"].add(rest.strip())
            return section
        if name == ".type":
            sym, _, kind = [p.strip() for p in rest.partition(",")]
            meta["sym_kinds"][sym] = (
                "func" if "function" in kind else "object")
            return section
        if name == ".size":
            sym, _, expr = [p.strip() for p in rest.partition(",")]
            try:
                meta["sym_sizes"][sym] = _parse_int(expr)
            except ValueError:
                pass  # `.size sym, .-sym` style: inferred instead
            return section
        if name == ".align" or name == ".p2align":
            n = 1 << _parse_int(rest.split(",")[0])
            pad = (-offsets[section]) % n
            if pad:
                items.append(_Item(section, offsets[section], pad, "align",
                                   payload=b"\x00" * pad,
                                   line_no=line_no, line=raw))
                offsets[section] += pad
            return section
        if name == ".balign":
            n = _parse_int(rest.split(",")[0])
            pad = (-offsets[section]) % n
            if pad:
                items.append(_Item(section, offsets[section], pad, "align",
                                   payload=b"\x00" * pad,
                                   line_no=line_no, line=raw))
                offsets[section] += pad
            return section
        if name == ".zero" or name == ".skip":
            n = _parse_int(rest)
            if section != ".bss":
                items.append(_Item(section, offsets[section], n, "data",
                                   payload=b"\x00" * n,
                                   line_no=line_no, line=raw))
            offsets[section] += n
            return section
        if name in (".byte", ".half", ".word", ".dword", ".quad"):
            width = {".byte": 1, ".half": 2, ".word": 4,
                     ".dword": 8, ".quad": 8}[name]
            exprs = [e.strip() for e in rest.split(",") if e.strip()]
            for e in exprs:
                items.append(_Item(section, offsets[section], width, "data",
                                   data_expr=(name, e),
                                   line_no=line_no, line=raw))
                offsets[section] += width
            return section
        if name in (".double", ".float"):
            width = 8 if name == ".double" else 4
            fmt = "<d" if width == 8 else "<f"
            for e in rest.split(","):
                blob = struct.pack(fmt, float(e.strip()))
                items.append(_Item(section, offsets[section], width, "data",
                                   payload=blob, line_no=line_no, line=raw))
                offsets[section] += width
            return section
        if name in (".asciz", ".string", ".ascii"):
            m = re.match(r'^"(.*)"$', rest.strip())
            if not m:
                raise AsmError("string directive needs a quoted string",
                               line_no, raw)
            blob = m.group(1).encode().decode("unicode_escape").encode("latin-1")
            if name != ".ascii":
                blob += b"\x00"
            items.append(_Item(section, offsets[section], len(blob), "data",
                               payload=blob, line_no=line_no, line=raw))
            offsets[section] += len(blob)
            return section
        if name == ".loc":
            # `.loc <file> <line>`: record source line for the current
            # text offset (a simplified DWARF .debug_line)
            parts2 = rest.split()
            if len(parts2) < 2:
                raise AsmError(".loc needs file and line", line_no, raw)
            if section == ".text":
                self._loc_marks.append(
                    (offsets[".text"], int(parts2[1], 0)))
            return section
        if name in (".option", ".attribute", ".file", ".ident", ".cfi_startproc",
                    ".cfi_endproc", ".comm"):
            return section  # accepted & ignored
        raise AsmError(f"unknown directive {name!r}", line_no, raw)

    # -- pass 2: emission -----------------------------------------------

    def _emit(self, item: _Item, symbols: dict[str, Symbol],
              addr: int) -> bytes:
        if item.kind in ("data", "align"):
            if item.data_expr is not None:
                directive, expr = item.data_expr
                width = {".byte": 1, ".half": 2, ".word": 4,
                         ".dword": 8, ".quad": 8}[directive]
                value = _eval_expr(expr, symbols)
                return (value & ((1 << (8 * width)) - 1)).to_bytes(
                    width, "little")
            return item.payload
        ctx = _OperandContext(symbols, addr, item)
        try:
            return self._emit_instr(item.mnemonic, item.operands, ctx)
        except (EncodingError, AsmError, KeyError, ValueError) as e:
            if isinstance(e, AsmError):
                raise
            raise AsmError(str(e), item.line_no, item.line) from e

    @staticmethod
    def _pseudo_compressible(mn: str, ops: tuple[str, ...]) -> bool:
        if mn in ("nop", "ret"):
            return True
        if mn == "mv":
            try:
                return (reg_lookup(ops[0]).number != 0
                        and reg_lookup(ops[1]).number != 0)
            except (KeyError, IndexError):
                return False
        return False

    def _literal_compress(self, mn: str, ops: tuple[str, ...]
                          ) -> int | None:
        """Try compressing a standard instruction whose operands are all
        literal (registers / integer immediates); returns the halfword
        or None.  Parsed with no symbols in scope, so a label operand
        leaves it uncompressed and both passes agree on its size."""
        if mn not in _LITERAL_COMPRESSIBLE:
            return None
        ctx = _OperandContext({}, 0, _Item(".text", 0, 2, "instr", mn, ops))
        try:
            fields = self._parse_standard(mn, ops, ctx)
        except (AsmError, KeyError, ValueError):
            return None
        return try_compress(mn, fields)

    def _emit_instr(self, mn: str, ops: tuple[str, ...],
                    ctx: "_OperandContext") -> bytes:
        if mn in _COMPRESSED_ENCODERS:
            return _COMPRESSED_ENCODERS[mn](ops, ctx).to_bytes(2, "little")
        if self.compress:
            if self._pseudo_compressible(mn, ops):
                if mn == "nop":
                    hw = encode_compressed("c.nop")
                elif mn == "mv":
                    hw = encode_compressed(
                        "c.mv", rd=ctx.reg(ops[0]), rs2=ctx.reg(ops[1]))
                else:  # ret
                    hw = encode_compressed("c.jr", rs1=1)
                return hw.to_bytes(2, "little")
            hw = self._literal_compress(mn, ops)
            if hw is not None:
                return hw.to_bytes(2, "little")
        expanded = self._expand_pseudo(mn, ops, ctx)
        if expanded is None:
            expanded = [(mn, self._parse_standard(mn, ops, ctx))]
        blob = bytearray()
        pc = ctx.pc
        for sub_mn, fields in expanded:
            spec = by_mnemonic(sub_mn)
            self._check_extension(spec.extension, ctx)
            blob += encode_fields(spec, fields).to_bytes(4, "little")
            pc += 4
        return bytes(blob)

    def _check_extension(self, ext: str, ctx: "_OperandContext") -> None:
        get_extension(ext)  # must be known
        if not self.arch.supports(ext):
            raise AsmError(
                f"instruction requires extension {ext!r} not in "
                f"{self.arch.arch_string()}", ctx.item.line_no, ctx.item.line)

    # pseudo expansion -------------------------------------------------

    def _expand_pseudo(self, mn, ops, ctx):
        r, i = ctx.reg, ctx.imm
        if mn == "nop":
            return [("addi", dict(rd=0, rs1=0, imm=0))]
        if mn == "li":
            return materialize_imm(r(ops[0]), _parse_int(ops[1]))
        if mn == "mv":
            return [("addi", dict(rd=r(ops[0]), rs1=r(ops[1]), imm=0))]
        if mn == "not":
            return [("xori", dict(rd=r(ops[0]), rs1=r(ops[1]), imm=-1))]
        if mn == "neg":
            return [("sub", dict(rd=r(ops[0]), rs1=0, rs2=r(ops[1])))]
        if mn == "negw":
            return [("subw", dict(rd=r(ops[0]), rs1=0, rs2=r(ops[1])))]
        if mn == "sext.w":
            return [("addiw", dict(rd=r(ops[0]), rs1=r(ops[1]), imm=0))]
        if mn == "seqz":
            return [("sltiu", dict(rd=r(ops[0]), rs1=r(ops[1]), imm=1))]
        if mn == "snez":
            return [("sltu", dict(rd=r(ops[0]), rs1=0, rs2=r(ops[1])))]
        if mn == "sltz":
            return [("slt", dict(rd=r(ops[0]), rs1=r(ops[1]), rs2=0))]
        if mn == "sgtz":
            return [("slt", dict(rd=r(ops[0]), rs1=0, rs2=r(ops[1])))]
        if mn in ("beqz", "bnez", "blez", "bgez", "bltz", "bgtz"):
            off = ctx.branch_offset(ops[1])
            rs = r(ops[0])
            table = {
                "beqz": ("beq", rs, 0), "bnez": ("bne", rs, 0),
                "blez": ("bge", 0, rs), "bgez": ("bge", rs, 0),
                "bltz": ("blt", rs, 0), "bgtz": ("blt", 0, rs),
            }
            base, rs1, rs2 = table[mn]
            return [(base, dict(rs1=rs1, rs2=rs2, imm=off))]
        if mn in ("bgt", "ble", "bgtu", "bleu"):
            off = ctx.branch_offset(ops[2])
            base = {"bgt": "blt", "ble": "bge",
                    "bgtu": "bltu", "bleu": "bgeu"}[mn]
            return [(base, dict(rs1=r(ops[1]), rs2=r(ops[0]), imm=off))]
        if mn == "j":
            return [("jal", dict(rd=0, imm=ctx.branch_offset(ops[0])))]
        if mn == "jr":
            return [("jalr", dict(rd=0, rs1=r(ops[0]), imm=0))]
        if mn == "ret":
            return [("jalr", dict(rd=0, rs1=1, imm=0))]
        if mn in ("call", "tail"):
            rd = 1 if mn == "call" else 0
            off = ctx.branch_offset(ops[0])
            if not fits_signed(off, 21):
                raise AsmError(
                    f"{mn} target out of jal range; use {mn}.far",
                    ctx.item.line_no, ctx.item.line)
            return [("jal", dict(rd=rd, imm=off))]
        if mn in ("call.far", "tail.far"):
            target = _eval_expr(ops[0], ctx.symbols)
            hi, lo = pcrel_hi_lo(target, ctx.pc)
            if mn == "call.far":
                # auipc ra, hi ; jalr ra, lo(ra)
                return [("auipc", dict(rd=1, imm=hi)),
                        ("jalr", dict(rd=1, rs1=1, imm=lo))]
            # tail: uses t1 as scratch (GNU convention)
            return [("auipc", dict(rd=6, imm=hi)),
                    ("jalr", dict(rd=0, rs1=6, imm=lo))]
        if mn == "la":
            target = _eval_expr(ops[1], ctx.symbols)
            rd = r(ops[0])
            hi, lo = pcrel_hi_lo(target, ctx.pc)
            return [("auipc", dict(rd=rd, imm=hi)),
                    ("addi", dict(rd=rd, rs1=rd, imm=lo))]
        if mn in ("fmv.s", "fmv.d", "fabs.s", "fabs.d", "fneg.s", "fneg.d"):
            op = {"fmv": "fsgnj", "fabs": "fsgnjx", "fneg": "fsgnjn"}[
                mn.split(".")[0]]
            sfx = mn.split(".")[1]
            rd_, rs_ = r(ops[0]), r(ops[1])
            return [(f"{op}.{sfx}", dict(rd=rd_, rs1=rs_, rs2=rs_))]
        if mn == "csrr":
            return [("csrrs", dict(rd=r(ops[0]), csr=ctx.csr(ops[1]), rs1=0))]
        if mn == "csrw":
            return [("csrrw", dict(rd=0, csr=ctx.csr(ops[0]), rs1=r(ops[1])))]
        if mn == "csrs":
            return [("csrrs", dict(rd=0, csr=ctx.csr(ops[0]), rs1=r(ops[1])))]
        if mn == "csrc":
            return [("csrrc", dict(rd=0, csr=ctx.csr(ops[0]), rs1=r(ops[1])))]
        if mn in ("rdcycle", "rdtime", "rdinstret"):
            csr = {"rdcycle": 0xC00, "rdtime": 0xC01, "rdinstret": 0xC02}[mn]
            return [("csrrs", dict(rd=r(ops[0]), csr=csr, rs1=0))]
        return None

    # standard operand parsing ------------------------------------------

    def _parse_standard(self, mn: str, ops: tuple[str, ...],
                        ctx: "_OperandContext") -> dict[str, int]:
        spec = by_mnemonic(mn)
        descrs = spec.operands
        fields: dict[str, int] = {}
        opcode = spec.match & 0x7F
        mem_style = spec.fmt in ("I", "S") and opcode in (
            OP_LOAD, OP_LOAD_FP, 0x23, 0x27, OP_JALR)

        # jalr accepts: `jalr rd, imm(rs1)`, `jalr rd, rs1, imm`,
        # and one-operand pseudo-ish `jalr rs1`.
        if mn == "jalr" and len(ops) == 1 and _MEM_RE.match(ops[0]) is None:
            return dict(rd=1, rs1=ctx.reg(ops[0]), imm=0)

        texts = list(ops)
        if mem_style and texts and _MEM_RE.match(texts[-1]):
            m = _MEM_RE.match(texts[-1])
            off = m.group("off").strip()
            texts[-1:] = [m.group("base").strip(), off if off else "0"]
        if spec.fmt == "AMO":
            # `lr.w rd, (rs1)` / `amoadd.w rd, rs2, (rs1)`
            texts = [t.strip("()") for t in texts]

        # Optional explicit rounding mode on FP ops: `fcvt.l.d a0, fa0, rtz`
        if spec.has_rm and len(texts) == len(descrs) + 1:
            rm_names = {"rne": 0, "rtz": 1, "rdn": 2, "rup": 3,
                        "rmm": 4, "dyn": 7}
            rm = rm_names.get(texts[-1].lower())
            if rm is not None:
                fields["rm"] = rm
                texts = texts[:-1]

        if len(texts) != len(descrs):
            raise AsmError(
                f"{mn} expects {len(descrs)} operands "
                f"({', '.join(descrs)}), got {len(ops)}",
                ctx.item.line_no, ctx.item.line)
        for descr, text in zip(descrs, texts):
            key = descr[1:] if descr.startswith("f") else descr
            if key in ("rd", "rs1", "rs2", "rs3"):
                fields[key] = ctx.reg(text)
            elif key == "imm":
                if spec.fmt in ("B", "J"):
                    fields["imm"] = ctx.branch_offset(text)
                else:
                    fields["imm"] = ctx.imm(text)
            elif key == "shamt":
                fields["shamt"] = ctx.imm(text)
            elif key == "csr":
                fields["csr"] = ctx.csr(text)
            elif key == "zimm":
                fields["zimm"] = ctx.imm(text)
            elif key in ("pred", "succ"):
                fields[key] = 0xF
        return fields


class _OperandContext:
    """Operand evaluation helpers bound to one instruction's site."""

    def __init__(self, symbols: dict[str, Symbol], pc: int, item: _Item):
        self.symbols = symbols
        self.pc = pc
        self.item = item

    def reg(self, text: str) -> int:
        return reg_lookup(text.strip()).number

    def imm(self, text: str) -> int:
        t = text.strip()
        # GNU-style absolute relocation operators: %hi(sym)/%lo(sym)
        m = re.match(r"^%(hi|lo)\((.+)\)$", t)
        if m:
            value = _eval_expr(m.group(2), self.symbols)
            hi = (value + 0x800) >> 12
            if m.group(1) == "hi":
                from .encoding import sign_extend

                return sign_extend(hi, 20)
            return value - (hi << 12)
        return _eval_expr(t, self.symbols)

    def csr(self, text: str) -> int:
        t = text.strip().lower()
        if t in _NAMED_CSRS:
            return _NAMED_CSRS[t]
        return _parse_int(t)

    def branch_offset(self, text: str) -> int:
        """A branch/jal target: label -> pc-relative, int -> literal offset."""
        t = text.strip()
        try:
            return _parse_int(t)
        except ValueError:
            return _eval_expr(t, self.symbols) - self.pc


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------

def _align(v: int, a: int) -> int:
    return (v + a - 1) & ~(a - 1)


def _strip_comment(line: str) -> str:
    for marker in ("#", "//", ";"):
        idx = _find_outside_quotes(line, marker)
        if idx >= 0:
            line = line[:idx]
    return line


def _find_outside_quotes(line: str, marker: str) -> int:
    in_q = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == '"':
            in_q = not in_q
        elif not in_q and line.startswith(marker, i):
            return i
        i += 1
    return -1


def _split_instr(line: str) -> tuple[str, tuple[str, ...]]:
    parts = line.split(None, 1)
    mn = parts[0].lower()
    if len(parts) == 1:
        return mn, ()
    ops = tuple(o.strip() for o in _split_operands(parts[1]))
    return mn, ops


def _split_operands(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        out.append("".join(cur))
    return [o for o in (s.strip() for s in out) if o]


def _parse_int(text: str) -> int:
    t = text.strip().lower().replace("_", "")
    neg = t.startswith("-")
    if neg:
        t = t[1:]
    if t.startswith("0x"):
        v = int(t, 16)
    elif t.startswith("0b"):
        v = int(t, 2)
    elif t.isdigit():
        v = int(t, 10)
    else:
        raise ValueError(f"not an integer literal: {text!r}")
    return -v if neg else v


def _eval_expr(text: str, symbols: dict[str, Symbol]) -> int:
    """Evaluate ``int``, ``sym``, ``sym+int`` or ``sym-int``."""
    t = text.strip()
    try:
        return _parse_int(t)
    except ValueError:
        pass
    m = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*([+-])?\s*(.*)$", t)
    if not m or not _SYM_RE.match(m.group(1)):
        raise ValueError(f"cannot evaluate expression {text!r}")
    name, sign, rest = m.groups()
    if name not in symbols:
        raise ValueError(f"undefined symbol {name!r}")
    base = symbols[name].address
    if not sign:
        return base
    delta = _parse_int(rest)
    return base + delta if sign == "+" else base - delta


def assemble(source: str, text_base: int = 0x1_0000,
             arch: ISASubset = RV64GC, compress: bool = False) -> Program:
    """Convenience one-shot assembly."""
    return Assembler(text_base=text_base, arch=arch,
                     compress=compress).assemble(source)
