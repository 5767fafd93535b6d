"""Declarative instruction specification tables for RV64GC (+ samples of
RVA23 extensions).

Every standard (32-bit) instruction the toolkit understands is described
by one :class:`InstrSpec` row: mnemonic, owning extension, format,
match/mask pair, and operand descriptors.  The decoder, encoder,
assembler, InstructionAPI, semantics pipeline and simulator are all
driven by this single table — adding an extension means adding rows here
(plus semantics), which is the modularity property the paper calls for
(§3.1.1).

Where each spec's operands sit in the word is its format's field layout
in :mod:`repro.riscv.encoding`.  Compressed (16-bit) instructions are
rows there too; :mod:`repro.riscv.compressed` decodes them to an
*expansion* in terms of these specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

# --- major opcode map (bits [6:0]) -------------------------------------
OP_LOAD = 0x03
OP_LOAD_FP = 0x07
OP_MISC_MEM = 0x0F
OP_IMM = 0x13
OP_AUIPC = 0x17
OP_IMM_32 = 0x1B
OP_STORE = 0x23
OP_STORE_FP = 0x27
OP_AMO = 0x2F
OP_OP = 0x33
OP_LUI = 0x37
OP_OP_32 = 0x3B
OP_MADD = 0x43
OP_MSUB = 0x47
OP_NMSUB = 0x4B
OP_NMADD = 0x4F
OP_FP = 0x53
OP_BRANCH = 0x63
OP_JALR = 0x67
OP_JAL = 0x6F
OP_SYSTEM = 0x73


@dataclass(frozen=True)
class InstrSpec:
    """Specification of one 32-bit instruction encoding.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic (``add``, ``fcvt.d.l``...).
    extension:
        Owning extension name in the :mod:`repro.riscv.extensions`
        registry.
    fmt:
        Encoding format tag: one of ``R I S B U J R4 AMO SHIFT64 SHIFT32
        CSR CSRI FENCE SYS``.
    match / mask:
        ``word & mask == match`` identifies this instruction.
    operands:
        Ordered operand descriptors.  Register operands are ``rd rs1 rs2
        rs3`` with an ``f`` prefix for FP register file (``frd`` ...);
        immediates are ``imm`` (format-implied placement), ``shamt``,
        ``csr``, ``zimm`` (CSR immediate), ``rm`` (rounding mode, only
        when free), ``aqrl``.
    """

    mnemonic: str
    extension: str
    fmt: str
    match: int
    mask: int
    operands: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.match & ~self.mask:
            raise ValueError(f"{self.mnemonic}: match bits outside mask")

    @property
    def has_rm(self) -> bool:
        """True when funct3 is a free rounding-mode field."""
        return (self.mask & 0x7000) == 0 and self.fmt in ("R", "R4") and (
            self.match & 0x7F
        ) in (OP_FP, OP_MADD, OP_MSUB, OP_NMSUB, OP_NMADD)


_SPECS: list[InstrSpec] = []
_BY_MNEMONIC: dict[str, InstrSpec] = {}


def _add(spec: InstrSpec) -> InstrSpec:
    if spec.mnemonic in _BY_MNEMONIC:
        raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
    _SPECS.append(spec)
    _BY_MNEMONIC[spec.mnemonic] = spec
    return spec


_F3 = 0x0000_7000  # funct3 mask
_F7 = 0xFE00_0000  # funct7 mask
_RS2 = 0x01F0_0000
_OPC = 0x0000_007F
_F12 = 0xFFF0_0000  # full imm12 / funct12


def _r(mn: str, ext: str, opcode: int, f3: int, f7: int,
       ops: tuple[str, ...] = ("rd", "rs1", "rs2")) -> InstrSpec:
    return _add(InstrSpec(mn, ext, "R",
                          (f7 << 25) | (f3 << 12) | opcode,
                          _F7 | _F3 | _OPC, ops))


def _i(mn: str, ext: str, opcode: int, f3: int,
       ops: tuple[str, ...] = ("rd", "rs1", "imm")) -> InstrSpec:
    return _add(InstrSpec(mn, ext, "I", (f3 << 12) | opcode, _F3 | _OPC, ops))


def _s(mn: str, ext: str, f3: int, ops: tuple[str, ...]) -> InstrSpec:
    return _add(InstrSpec(mn, ext, "S", (f3 << 12) | OP_STORE, _F3 | _OPC, ops))


def _sfp(mn: str, ext: str, f3: int, ops: tuple[str, ...]) -> InstrSpec:
    return _add(InstrSpec(mn, ext, "S", (f3 << 12) | OP_STORE_FP, _F3 | _OPC, ops))


def _b(mn: str, f3: int) -> InstrSpec:
    return _add(InstrSpec(mn, "i", "B", (f3 << 12) | OP_BRANCH, _F3 | _OPC,
                          ("rs1", "rs2", "imm")))


def _u(mn: str, opcode: int) -> InstrSpec:
    return _add(InstrSpec(mn, "i", "U", opcode, _OPC, ("rd", "imm")))


def _shift64(mn: str, opcode: int, f3: int, f6: int,
             ext: str = "i") -> InstrSpec:
    # RV64 shifts: 6-bit shamt, funct6 in word[31:26].
    return _add(InstrSpec(mn, ext, "SHIFT64",
                          (f6 << 26) | (f3 << 12) | opcode,
                          0xFC00_0000 | _F3 | _OPC, ("rd", "rs1", "shamt")))


def _shift32(mn: str, opcode: int, f3: int, f7: int) -> InstrSpec:
    # *W shifts: 5-bit shamt, funct7 in word[31:25].
    return _add(InstrSpec(mn, "i", "SHIFT32",
                          (f7 << 25) | (f3 << 12) | opcode,
                          _F7 | _F3 | _OPC, ("rd", "rs1", "shamt")))


def _amo(mn: str, f5: int, f3: int, ops: tuple[str, ...]) -> InstrSpec:
    # aq/rl (word[26:25]) are free bits.  lr.* has no rs2 operand: the
    # field is architecturally zero, so it joins the mask.
    mask = 0xF800_0000 | _F3 | _OPC
    if "rs2" not in ops:
        mask |= _RS2
    return _add(InstrSpec(mn, "a", "AMO",
                          (f5 << 27) | (f3 << 12) | OP_AMO, mask, ops))


def _csr(mn: str, f3: int, ops: tuple[str, ...]) -> InstrSpec:
    return _add(InstrSpec(mn, "zicsr", "CSR" if "rs1" in ops else "CSRI",
                          (f3 << 12) | OP_SYSTEM, _F3 | _OPC, ops))


def _fp_r(mn: str, ext: str, f7: int, f3: int | None,
          ops: tuple[str, ...]) -> InstrSpec:
    """OP-FP R-type; f3=None means funct3 is a free rounding-mode field."""
    mask = _F7 | _OPC
    match = (f7 << 25) | OP_FP
    if f3 is not None:
        mask |= _F3
        match |= f3 << 12
    return _add(InstrSpec(mn, ext, "R", match, mask, ops))


def _fp_unary(mn: str, ext: str, f7: int, rs2val: int, f3: int | None,
              ops: tuple[str, ...]) -> InstrSpec:
    """OP-FP with rs2 fixed (fsqrt, fcvt, fmv, fclass)."""
    mask = _F7 | _RS2 | _OPC
    match = (f7 << 25) | (rs2val << 20) | OP_FP
    if f3 is not None:
        mask |= _F3
        match |= f3 << 12
    return _add(InstrSpec(mn, ext, "R", match, mask, ops))


def _r4(mn: str, ext: str, opcode: int, fmt2: int) -> InstrSpec:
    # FMA: rs3 in word[31:27], fmt in word[26:25], rm free.
    return _add(InstrSpec(mn, ext, "R4",
                          (fmt2 << 25) | opcode,
                          0x0600_007F, ("frd", "frs1", "frs2", "frs3")))


# =======================================================================
# RV64I base
# =======================================================================
_u("lui", OP_LUI)
_u("auipc", OP_AUIPC)
_add(InstrSpec("jal", "i", "J", OP_JAL, _OPC, ("rd", "imm")))
_i("jalr", "i", OP_JALR, 0)
_b("beq", 0); _b("bne", 1); _b("blt", 4); _b("bge", 5); _b("bltu", 6); _b("bgeu", 7)
_i("lb", "i", OP_LOAD, 0); _i("lh", "i", OP_LOAD, 1); _i("lw", "i", OP_LOAD, 2)
_i("ld", "i", OP_LOAD, 3); _i("lbu", "i", OP_LOAD, 4); _i("lhu", "i", OP_LOAD, 5)
_i("lwu", "i", OP_LOAD, 6)
_s("sb", "i", 0, ("rs2", "rs1", "imm"))
_s("sh", "i", 1, ("rs2", "rs1", "imm"))
_s("sw", "i", 2, ("rs2", "rs1", "imm"))
_s("sd", "i", 3, ("rs2", "rs1", "imm"))
_i("addi", "i", OP_IMM, 0)
_i("slti", "i", OP_IMM, 2)
_i("sltiu", "i", OP_IMM, 3)
_i("xori", "i", OP_IMM, 4)
_i("ori", "i", OP_IMM, 6)
_i("andi", "i", OP_IMM, 7)
_shift64("slli", OP_IMM, 1, 0x00)
_shift64("srli", OP_IMM, 5, 0x00)
_shift64("srai", OP_IMM, 5, 0x10)
_r("add", "i", OP_OP, 0, 0x00); _r("sub", "i", OP_OP, 0, 0x20)
_r("sll", "i", OP_OP, 1, 0x00); _r("slt", "i", OP_OP, 2, 0x00)
_r("sltu", "i", OP_OP, 3, 0x00); _r("xor", "i", OP_OP, 4, 0x00)
_r("srl", "i", OP_OP, 5, 0x00); _r("sra", "i", OP_OP, 5, 0x20)
_r("or", "i", OP_OP, 6, 0x00); _r("and", "i", OP_OP, 7, 0x00)
_i("addiw", "i", OP_IMM_32, 0)
_shift32("slliw", OP_IMM_32, 1, 0x00)
_shift32("srliw", OP_IMM_32, 5, 0x00)
_shift32("sraiw", OP_IMM_32, 5, 0x20)
_r("addw", "i", OP_OP_32, 0, 0x00); _r("subw", "i", OP_OP_32, 0, 0x20)
_r("sllw", "i", OP_OP_32, 1, 0x00); _r("srlw", "i", OP_OP_32, 5, 0x00)
_r("sraw", "i", OP_OP_32, 5, 0x20)
_add(InstrSpec("fence", "i", "FENCE", OP_MISC_MEM, _F3 | _OPC, ("pred", "succ")))
_add(InstrSpec("ecall", "i", "SYS", OP_SYSTEM, 0xFFFF_FFFF, ()))
_add(InstrSpec("ebreak", "i", "SYS", (1 << 20) | OP_SYSTEM, 0xFFFF_FFFF, ()))

# Zifencei
_add(InstrSpec("fence.i", "zifencei", "FENCE", (1 << 12) | OP_MISC_MEM,
               _F3 | _OPC, ()))

# Zicsr
_csr("csrrw", 1, ("rd", "csr", "rs1"))
_csr("csrrs", 2, ("rd", "csr", "rs1"))
_csr("csrrc", 3, ("rd", "csr", "rs1"))
_csr("csrrwi", 5, ("rd", "csr", "zimm"))
_csr("csrrsi", 6, ("rd", "csr", "zimm"))
_csr("csrrci", 7, ("rd", "csr", "zimm"))

# =======================================================================
# M extension
# =======================================================================
for _name, _f3 in (("mul", 0), ("mulh", 1), ("mulhsu", 2), ("mulhu", 3),
                   ("div", 4), ("divu", 5), ("rem", 6), ("remu", 7)):
    _r(_name, "m", OP_OP, _f3, 0x01)
for _name, _f3 in (("mulw", 0), ("divw", 4), ("divuw", 5),
                   ("remw", 6), ("remuw", 7)):
    _r(_name, "m", OP_OP_32, _f3, 0x01)

# =======================================================================
# A extension (aq/rl bits left free in the mask)
# =======================================================================
for _suffix, _f3 in ((".w", 2), (".d", 3)):
    _amo("lr" + _suffix, 0x02, _f3, ("rd", "rs1"))
    _amo("sc" + _suffix, 0x03, _f3, ("rd", "rs2", "rs1"))
    for _name, _f5 in (("amoswap", 0x01), ("amoadd", 0x00), ("amoxor", 0x04),
                       ("amoand", 0x0C), ("amoor", 0x08), ("amomin", 0x10),
                       ("amomax", 0x14), ("amominu", 0x18), ("amomaxu", 0x1C)):
        _amo(_name + _suffix, _f5, _f3, ("rd", "rs2", "rs1"))

# =======================================================================
# F / D extensions
# =======================================================================
_i("flw", "f", OP_LOAD_FP, 2, ("frd", "rs1", "imm"))
_i("fld", "d", OP_LOAD_FP, 3, ("frd", "rs1", "imm"))
_sfp("fsw", "f", 2, ("frs2", "rs1", "imm"))
_sfp("fsd", "d", 3, ("frs2", "rs1", "imm"))

for _sfx, _ext, _fbit in ((".s", "f", 0), (".d", "d", 1)):
    _fp_r("fadd" + _sfx, _ext, 0x00 | _fbit, None, ("frd", "frs1", "frs2"))
    _fp_r("fsub" + _sfx, _ext, 0x04 | _fbit, None, ("frd", "frs1", "frs2"))
    _fp_r("fmul" + _sfx, _ext, 0x08 | _fbit, None, ("frd", "frs1", "frs2"))
    _fp_r("fdiv" + _sfx, _ext, 0x0C | _fbit, None, ("frd", "frs1", "frs2"))
    _fp_unary("fsqrt" + _sfx, _ext, 0x2C | _fbit, 0, None, ("frd", "frs1"))
    _fp_r("fsgnj" + _sfx, _ext, 0x10 | _fbit, 0, ("frd", "frs1", "frs2"))
    _fp_r("fsgnjn" + _sfx, _ext, 0x10 | _fbit, 1, ("frd", "frs1", "frs2"))
    _fp_r("fsgnjx" + _sfx, _ext, 0x10 | _fbit, 2, ("frd", "frs1", "frs2"))
    _fp_r("fmin" + _sfx, _ext, 0x14 | _fbit, 0, ("frd", "frs1", "frs2"))
    _fp_r("fmax" + _sfx, _ext, 0x14 | _fbit, 1, ("frd", "frs1", "frs2"))
    _fp_r("fle" + _sfx, _ext, 0x50 | _fbit, 0, ("rd", "frs1", "frs2"))
    _fp_r("flt" + _sfx, _ext, 0x50 | _fbit, 1, ("rd", "frs1", "frs2"))
    _fp_r("feq" + _sfx, _ext, 0x50 | _fbit, 2, ("rd", "frs1", "frs2"))
    # int <- fp conversions: rs2 selects w/wu/l/lu
    _fp_unary(f"fcvt.w{_sfx}", _ext, 0x60 | _fbit, 0, None, ("rd", "frs1"))
    _fp_unary(f"fcvt.wu{_sfx}", _ext, 0x60 | _fbit, 1, None, ("rd", "frs1"))
    _fp_unary(f"fcvt.l{_sfx}", _ext, 0x60 | _fbit, 2, None, ("rd", "frs1"))
    _fp_unary(f"fcvt.lu{_sfx}", _ext, 0x60 | _fbit, 3, None, ("rd", "frs1"))
    # fp <- int conversions
    _fp_unary(f"fcvt{_sfx}.w", _ext, 0x68 | _fbit, 0, None, ("frd", "rs1"))
    _fp_unary(f"fcvt{_sfx}.wu", _ext, 0x68 | _fbit, 1, None, ("frd", "rs1"))
    _fp_unary(f"fcvt{_sfx}.l", _ext, 0x68 | _fbit, 2, None, ("frd", "rs1"))
    _fp_unary(f"fcvt{_sfx}.lu", _ext, 0x68 | _fbit, 3, None, ("frd", "rs1"))
    _fp_unary("fclass" + _sfx, _ext, 0x70 | _fbit, 0, 1, ("rd", "frs1"))

_fp_unary("fmv.x.w", "f", 0x70, 0, 0, ("rd", "frs1"))
_fp_unary("fmv.w.x", "f", 0x78, 0, 0, ("frd", "rs1"))
_fp_unary("fmv.x.d", "d", 0x71, 0, 0, ("rd", "frs1"))
_fp_unary("fmv.d.x", "d", 0x79, 0, 0, ("frd", "rs1"))
_fp_unary("fcvt.s.d", "d", 0x20, 1, None, ("frd", "frs1"))
_fp_unary("fcvt.d.s", "d", 0x21, 0, None, ("frd", "frs1"))

for _sfx, _ext, _fmt2 in ((".s", "f", 0), (".d", "d", 1)):
    _r4("fmadd" + _sfx, _ext, OP_MADD, _fmt2)
    _r4("fmsub" + _sfx, _ext, OP_MSUB, _fmt2)
    _r4("fnmsub" + _sfx, _ext, OP_NMSUB, _fmt2)
    _r4("fnmadd" + _sfx, _ext, OP_NMADD, _fmt2)

# =======================================================================
# RVA23 samples: Zicond, Zba, Zbb (future-work hook, paper §3.4).
# Demonstrates the port's extensibility claim: a new extension is rows
# here + semantics clauses in the SAIL DSL + (for execution) simulator
# op lambdas — nothing else changes.
# =======================================================================
_r("czero.eqz", "zicond", OP_OP, 5, 0x07)
_r("czero.nez", "zicond", OP_OP, 7, 0x07)
_r("add.uw", "zba", OP_OP_32, 0, 0x04)
_r("sh1add", "zba", OP_OP, 2, 0x10)
_r("sh2add", "zba", OP_OP, 4, 0x10)
_r("sh3add", "zba", OP_OP, 6, 0x10)


def _zbb_unary(mn: str, opcode: int, f3: int, funct12: int) -> InstrSpec:
    """Zbb unary ops: the whole imm12 field selects the operation."""
    return _add(InstrSpec(mn, "zbb", "R",
                          (funct12 << 20) | (f3 << 12) | opcode,
                          _F12 | _F3 | _OPC, ("rd", "rs1")))


# logic-with-negate
_r("andn", "zbb", OP_OP, 7, 0x20)
_r("orn", "zbb", OP_OP, 6, 0x20)
_r("xnor", "zbb", OP_OP, 4, 0x20)
# integer min/max
_r("min", "zbb", OP_OP, 4, 0x05)
_r("minu", "zbb", OP_OP, 5, 0x05)
_r("max", "zbb", OP_OP, 6, 0x05)
_r("maxu", "zbb", OP_OP, 7, 0x05)
# rotates
_r("rol", "zbb", OP_OP, 1, 0x30)
_r("ror", "zbb", OP_OP, 5, 0x30)
_shift64("rori", OP_IMM, 5, 0x18, ext="zbb")
# count leading/trailing zeros, popcount, sign/zero extension
_zbb_unary("clz", OP_IMM, 1, 0x600)
_zbb_unary("ctz", OP_IMM, 1, 0x601)
_zbb_unary("cpop", OP_IMM, 1, 0x602)
_zbb_unary("sext.b", OP_IMM, 1, 0x604)
_zbb_unary("sext.h", OP_IMM, 1, 0x605)
# zext.h on RV64: OP-32 opcode with rs2 = 0
_add(InstrSpec("zext.h", "zbb", "R",
               (0x04 << 25) | (4 << 12) | OP_OP_32,
               _F7 | _RS2 | _F3 | _OPC, ("rd", "rs1")))


# =======================================================================
# Lookup structures
# =======================================================================

#: Specs bucketed by major opcode, most-specific mask first, so linear
#: scan within a bucket finds the unique match.
_BY_OPCODE: dict[int, tuple[InstrSpec, ...]] = {}
for _spec in _SPECS:
    _BY_OPCODE.setdefault(_spec.match & 0x7F, [])  # type: ignore[arg-type]
_tmp: dict[int, list[InstrSpec]] = {k: [] for k in _BY_OPCODE}
for _spec in _SPECS:
    _tmp[_spec.match & 0x7F].append(_spec)
for _k, _v in _tmp.items():
    _BY_OPCODE[_k] = tuple(
        sorted(_v, key=lambda s: bin(s.mask).count("1"), reverse=True)
    )


def lookup_word(word: int) -> InstrSpec | None:
    """Find the spec matching a 32-bit instruction word, or None."""
    bucket = _BY_OPCODE.get(word & 0x7F)
    if bucket is None:
        return None
    for spec in bucket:
        if word & spec.mask == spec.match:
            return spec
    return None


def by_mnemonic(mnemonic: str) -> InstrSpec:
    """Look up a spec by mnemonic; raises KeyError for unknown names."""
    try:
        return _BY_MNEMONIC[mnemonic]
    except KeyError:
        raise KeyError(f"unknown instruction mnemonic: {mnemonic!r}") from None


def all_specs() -> Iterator[InstrSpec]:
    """Iterate all registered instruction specs."""
    return iter(_SPECS)


def specs_for_extension(ext: str) -> list[InstrSpec]:
    """All specs owned by one extension."""
    return [s for s in _SPECS if s.extension == ext]
