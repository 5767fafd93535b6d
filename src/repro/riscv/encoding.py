"""RV64GC instruction encodings, written once as data.

A :class:`Field` says where one named field lives in an instruction
and which values it takes.  Two tables are built from fields, and the
decoder, the encoder and the compressed-instruction codec all derive
from them rather than twiddling bits of their own:

* :data:`FORMATS` lays out each 32-bit format of
  :mod:`repro.riscv.opcodes` (``R``, ``I``, ``S`` ...) as an ordered
  list of named fields; :func:`layout` filters it once per spec.
* :data:`C_FORMS` holds one :class:`CForm` row per RVC encoding: its
  match/mask, the standard instruction it expands to, and where each
  expanded field comes from.  :mod:`repro.riscv.compressed` decodes and
  encodes through it.

The bit helpers below operate on Python ints holding the 32-bit word
or 16-bit halfword.
"""

from __future__ import annotations

from typing import NamedTuple, Union


MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def bits(word: int, hi: int, lo: int) -> int:
    """Extract bits ``word[hi:lo]`` inclusive."""
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def bit(word: int, idx: int) -> int:
    """Extract a single bit."""
    return (word >> idx) & 1


def sign_extend(value: int, width: int) -> int:
    """Interpret the low *width* bits of *value* as two's-complement."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        value -= 1 << width
    return value


def fits_signed(value: int, width: int) -> bool:
    """True if *value* is representable as a *width*-bit signed immediate."""
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    return lo <= value <= hi


def fits_unsigned(value: int, width: int) -> bool:
    return 0 <= value < (1 << width)


def to_unsigned(value: int, width: int = 64) -> int:
    """Two's complement representation of *value* in *width* bits."""
    return value & ((1 << width) - 1)


class EncodingError(ValueError):
    """Raised when an operand cannot be encoded in the requested format."""


def is_compressed(first_byte_or_word: int) -> bool:
    """A standard 32-bit instruction has the two low bits ``11``; anything
    else in the low 2 bits marks a 16-bit compressed instruction."""
    return (first_byte_or_word & 0b11) != 0b11


def instruction_length(halfword: int) -> int:
    """Length in bytes implied by the low bits of the first halfword
    (2 for compressed, 4 for standard; wider encodings unsupported)."""
    return 2 if is_compressed(halfword) else 4


# ---------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------

class Field:
    """Where one field lives in an instruction, and which values it takes.

    *layout* lists the field's pieces as ``"ihi:ilo=vhi:vlo"`` (or
    ``"i=v"`` for one bit), the notation of the ISA manual's tables:
    value bits ``vhi..vlo`` sit at instruction bits ``ihi..ilo``.  They
    become :attr:`pieces`, ``(instruction bit, width, value bit)``
    tuples.

    A value must lie in ``[lo, hi]`` and be a multiple of the
    alignment, ``1 <<`` the lowest value bit.  By default the range is
    every aligned value the pieces can hold, signed or unsigned.
    Decoding picks the value in the range whose low bits were
    gathered, so the range also decides sign extension.  *default* is
    the value of a field an encoder may leave out.
    """

    __slots__ = ("pieces", "lo", "hi", "default", "bits", "_scatter",
                 "_align", "_wrap")

    def __init__(self, layout: str, *, signed: bool = False,
                 lo: int | None = None, hi: int | None = None,
                 default: int | None = None):
        pieces = []
        for piece in layout.split():
            ins, val = (part.split(":") for part in piece.split("="))
            width = int(ins[0]) - int(ins[-1]) + 1
            if int(val[0]) - int(val[-1]) + 1 != width:
                raise ValueError(f"piece {piece!r}: widths differ")
            pieces.append((int(ins[-1]), width, int(val[-1])))
        self.pieces = tuple(pieces)
        low = min(v for _, _, v in pieces)
        top = max(v + w for _, w, v in pieces)
        if lo is None:
            lo = -(1 << (top - 1)) if signed else 0
        if hi is None:
            hi = (1 << (top - signed)) - (1 << low)
        self.lo, self.hi, self.default = lo, hi, default
        self.bits = sum(((1 << w) - 1) << at for at, w, _ in pieces)
        self._scatter = tuple((at, (1 << w) - 1, v) for at, w, v in pieces)
        self._align = (1 << low) - 1
        self._wrap = (1 << top) - 1

    def put(self, value: int) -> int | None:
        """The instruction bits holding *value*, or ``None`` when it is
        out of range or misaligned."""
        if value < self.lo or value > self.hi or value & self._align:
            return None
        word = 0
        for at, mask, vbit in self._scatter:
            word |= (value >> vbit & mask) << at
        return word

    def get(self, word: int) -> int:
        """The field's value in the instruction *word*."""
        value = 0
        for at, mask, vbit in self._scatter:
            value |= (word >> at & mask) << vbit
        return self.lo + ((value - self.lo) & self._wrap)


# ---------------------------------------------------------------------
# 32-bit formats
# ---------------------------------------------------------------------

_RD = ("rd", Field("11:7=4:0"))
_RS1 = ("rs1", Field("19:15=4:0"))
_RS2 = ("rs2", Field("24:20=4:0"))
DYNAMIC_RM = 0b111  # the rounding mode a free ``rm`` left out takes
_RM = ("rm", Field("14:12=2:0", default=DYNAMIC_RM))
_IMM12 = Field("31:20=11:0", signed=True)
_CSR = ("csr", Field("31:20=11:0"))

#: Each 32-bit format's fields, in the order decoded field dicts list
#: them.  A spec keeps the fields :func:`layout` selects.
FORMATS: dict[str, tuple[tuple[str, Field], ...]] = {
    "R": (_RD, _RS1, _RS2, _RM),
    "R4": (_RD, _RS1, _RS2, ("rs3", Field("31:27=4:0")), _RM),
    "I": (_RD, _RS1, ("imm", _IMM12)),
    "S": (_RS1, _RS2, ("imm", Field("31:25=11:5 11:7=4:0", signed=True))),
    "B": (_RS1, _RS2,
          ("imm", Field("31=12 30:25=10:5 11:8=4:1 7=11", signed=True))),
    # lui/auipc take the 20-bit field signed or unsigned; it decodes
    # sign-extended, as it contributes ``imm << 12`` to XLEN.
    "U": (_RD, ("imm", Field("31:12=19:0", lo=-(1 << 19)))),
    "J": (_RD, ("imm", Field("31=20 30:21=10:1 20=11 19:12=19:12",
                             signed=True))),
    "SHIFT64": (_RD, _RS1, ("shamt", Field("25:20=5:0"))),
    "SHIFT32": (_RD, _RS1, ("shamt", Field("24:20=4:0"))),
    "AMO": (_RD, _RS1, _RS2, ("aq", Field("26=0", default=0)),
            ("rl", Field("25=0", default=0))),
    "CSR": (_RD, _RS1, _CSR),
    "CSRI": (_RD, _CSR, ("zimm", Field("19:15=4:0"))),
    # rd/rs1 are reserved-zero but architecturally free: keep whatever
    # the decoder captured so re-encoding is lossless.
    "FENCE": (("rd", Field("11:7=4:0", default=0)),
              ("rs1", Field("19:15=4:0", default=0)),
              ("imm", Field("31:20=11:0", default=0)),
              ("fm", Field("31:28=3:0", default=0)),
              ("pred", Field("27:24=3:0", default=0xF)),
              ("succ", Field("23:20=3:0", default=0xF))),
    "SYS": (),
}

_LAYOUTS: dict[str, tuple[tuple[str, Field], ...]] = {}


def layout(spec) -> tuple[tuple[str, Field], ...]:
    """The named fields of an :class:`~repro.riscv.opcodes.InstrSpec`.

    These are its format's fields whose bits the spec's mask leaves
    free.  Where two of them overlap, one the spec names as an operand
    wins, then the earlier one: ``fence`` (operands ``pred``/``succ``)
    gets ``fm pred succ`` and ``fence.i`` (none) gets ``imm``.
    """
    fields = _LAYOUTS.get(spec.mnemonic)
    if fields is None:
        ops = {op[1:] if op[0] == "f" else op for op in spec.operands}
        taken = 0
        for name, f in FORMATS[spec.fmt]:
            if name in ops:
                taken |= f.bits
        kept = []
        for name, f in FORMATS[spec.fmt]:
            if f.bits & spec.mask:
                continue
            if name not in ops:
                if f.bits & taken:
                    continue
                taken |= f.bits
            kept.append((name, f))
        fields = _LAYOUTS[spec.mnemonic] = tuple(kept)
    return fields


# ---------------------------------------------------------------------
# Compressed (RVC) forms
# ---------------------------------------------------------------------

#: Where an expanded field of a compressed form comes from: a
#: :class:`Field` of the halfword, a constant, or the name of an
#: earlier field it equals (``rs1`` tied to ``rd``).
Source = Union[Field, int, str]


class CForm(NamedTuple):
    """One RVC encoding and the standard instruction it expands to."""

    cmn: str
    match: int
    mask: int
    mnemonic: str
    fields: tuple[tuple[str, Source], ...]
    #: fields whose zero is reserved: the halfword does not decode
    reserved: tuple[str, ...]
    #: fields whose zero is a hint: decoded, never produced
    hints: tuple[str, ...]
    #: try ``rs1``/``rs2`` swapped when the fields do not fit as given
    commutative: bool
    #: ``try_compress`` may pick this form (not when fitting it depends
    #: on a label, as for ``c.j`` and ``c.beqz``)
    auto: bool


def _c(cmn: str, pattern: str, mnemonic: str, *, reserved=(), hints=(),
       commutative: bool = False, auto: bool = True,
       **fields: Source) -> CForm:
    """A row from its bit pattern, bit 15 first: ``0``/``1`` are fixed
    bits, ``-`` free ones, and spaces only separate fields."""
    pattern = pattern.replace(" ", "")
    if len(pattern) != 16:
        raise ValueError(f"{cmn}: pattern {pattern!r} is not 16 bits")
    mask = int("".join("0" if c == "-" else "1" for c in pattern), 2)
    match = int(pattern.replace("-", "0"), 2)
    return CForm(cmn, match, mask, mnemonic, tuple(fields.items()),
                 reserved, hints, commutative, auto)


_RD5 = Field("11:7=4:0")                     # rd / rs1, any register
_RS2_5 = Field("6:2=4:0")
_RS1P = Field("9:7=2:0", lo=8, hi=15)        # rd' / rs1', x8-x15
_RS2P = Field("4:2=2:0", lo=8, hi=15)        # rd' / rs2', x8-x15
_IMM6 = Field("12=5 6:2=4:0", signed=True)
_SHAMT = Field("12=5 6:2=4:0")
_LD8 = Field("12:10=5:3 6:5=7:6")            # c.ld c.sd c.fld c.fsd
_LW4 = Field("12:10=5:3 6=2 5=6")            # c.lw c.sw
_LDSP = Field("12=5 6:5=4:3 4:2=8:6")        # c.ldsp c.fldsp
_SDSP = Field("12:10=5:3 9:7=8:6")           # c.sdsp c.fsdsp
_CB = Field("12=8 11:10=4:3 6:5=7:6 4:3=2:1 2=5", signed=True)
C_J_IMM = Field("12=11 11=4 10:9=9:8 8=10 7=6 6=7 5:3=3:1 2=5", signed=True)

#: Every RV64C encoding, in quadrant and funct3 order.  Decoding takes
#: the matching row with the most fixed bits; ``try_compress`` takes
#: rows of a mnemonic in this order.
C_FORMS: tuple[CForm, ...] = (
    # quadrant 0
    _c("c.addi4spn", "000 -------- --- 00", "addi", rd=_RS2P, rs1=2,
       imm=Field("12:11=5:4 10:7=9:6 6=2 5=3"), reserved=("imm",)),
    _c("c.fld", "001 --- --- -- --- 00", "fld", rd=_RS2P, rs1=_RS1P,
       imm=_LD8),
    _c("c.lw", "010 --- --- -- --- 00", "lw", rd=_RS2P, rs1=_RS1P,
       imm=_LW4),
    _c("c.ld", "011 --- --- -- --- 00", "ld", rd=_RS2P, rs1=_RS1P,
       imm=_LD8),
    _c("c.fsd", "101 --- --- -- --- 00", "fsd", rs2=_RS2P, rs1=_RS1P,
       imm=_LD8),
    _c("c.sw", "110 --- --- -- --- 00", "sw", rs2=_RS2P, rs1=_RS1P,
       imm=_LW4),
    _c("c.sd", "111 --- --- -- --- 00", "sd", rs2=_RS2P, rs1=_RS1P,
       imm=_LD8),
    # quadrant 1; c.nop's immediate bits are hints
    _c("c.nop", "000 - 00000 ----- 01", "addi", rd=0, rs1=0, imm=0),
    _c("c.addi", "000 - ----- ----- 01", "addi", rd=_RD5, rs1="rd",
       imm=_IMM6, hints=("imm",)),
    _c("c.addiw", "001 - ----- ----- 01", "addiw", rd=_RD5, rs1="rd",
       imm=_IMM6, reserved=("rd",)),
    _c("c.li", "010 - ----- ----- 01", "addi", rd=_RD5, rs1=0, imm=_IMM6,
       hints=("rd",)),
    _c("c.addi16sp", "011 - 00010 ----- 01", "addi", rd=2, rs1=2,
       imm=Field("12=9 6=4 5=6 4:3=8:7 2=5", signed=True),
       reserved=("imm",)),
    _c("c.lui", "011 - ----- ----- 01", "lui", rd=_RD5, imm=_IMM6,
       reserved=("rd", "imm")),
    _c("c.srli", "100 - 00 --- ----- 01", "srli", rd=_RS1P, rs1="rd",
       shamt=_SHAMT, hints=("shamt",)),
    _c("c.srai", "100 - 01 --- ----- 01", "srai", rd=_RS1P, rs1="rd",
       shamt=_SHAMT, hints=("shamt",)),
    _c("c.andi", "100 - 10 --- ----- 01", "andi", rd=_RS1P, rs1="rd",
       imm=_IMM6),
    _c("c.sub", "100 0 11 --- 00 --- 01", "sub", rd=_RS1P, rs1="rd",
       rs2=_RS2P),
    _c("c.xor", "100 0 11 --- 01 --- 01", "xor", rd=_RS1P, rs1="rd",
       rs2=_RS2P, commutative=True),
    _c("c.or", "100 0 11 --- 10 --- 01", "or", rd=_RS1P, rs1="rd",
       rs2=_RS2P, commutative=True),
    _c("c.and", "100 0 11 --- 11 --- 01", "and", rd=_RS1P, rs1="rd",
       rs2=_RS2P, commutative=True),
    _c("c.subw", "100 1 11 --- 00 --- 01", "subw", rd=_RS1P, rs1="rd",
       rs2=_RS2P),
    _c("c.addw", "100 1 11 --- 01 --- 01", "addw", rd=_RS1P, rs1="rd",
       rs2=_RS2P, commutative=True),
    _c("c.j", "101 ----------- 01", "jal", rd=0, imm=C_J_IMM, auto=False),
    _c("c.beqz", "110 --- --- ----- 01", "beq", rs1=_RS1P, rs2=0, imm=_CB,
       auto=False),
    _c("c.bnez", "111 --- --- ----- 01", "bne", rs1=_RS1P, rs2=0, imm=_CB,
       auto=False),
    # quadrant 2
    _c("c.slli", "000 - ----- ----- 10", "slli", rd=_RD5, rs1="rd",
       shamt=_SHAMT, hints=("rd", "shamt")),
    _c("c.fldsp", "001 - ----- ----- 10", "fld", rd=_RD5, rs1=2,
       imm=_LDSP),
    _c("c.lwsp", "010 - ----- ----- 10", "lw", rd=_RD5, rs1=2,
       imm=Field("12=5 6:4=4:2 3:2=7:6"), reserved=("rd",)),
    _c("c.ldsp", "011 - ----- ----- 10", "ld", rd=_RD5, rs1=2, imm=_LDSP,
       reserved=("rd",)),
    _c("c.jr", "100 0 ----- 00000 10", "jalr", rd=0, rs1=_RD5, imm=0,
       reserved=("rs1",)),
    _c("c.mv", "100 0 ----- ----- 10", "add", rd=_RD5, rs1=0, rs2=_RS2_5,
       hints=("rd",)),
    _c("c.ebreak", "100 1 00000 00000 10", "ebreak"),
    _c("c.jalr", "100 1 ----- 00000 10", "jalr", rd=1, rs1=_RD5, imm=0),
    _c("c.add", "100 1 ----- ----- 10", "add", rd=_RD5, rs1="rd",
       rs2=_RS2_5, hints=("rd",), commutative=True),
    _c("c.fsdsp", "101 ------ ----- 10", "fsd", rs2=_RS2_5, rs1=2,
       imm=_SDSP),
    _c("c.swsp", "110 ------ ----- 10", "sw", rs2=_RS2_5, rs1=2,
       imm=Field("12:9=5:2 8:7=7:6")),
    _c("c.sdsp", "111 ------ ----- 10", "sd", rs2=_RS2_5, rs1=2,
       imm=_SDSP),
)
