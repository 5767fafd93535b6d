"""The C (compressed) extension: 16-bit encodings for RV64GC.

Compressed instructions are 2-byte encodings of a subset of the standard
instructions (paper §3.1.2).  Decoding *expands* each compressed
instruction into its standard equivalent — the resulting
:class:`~repro.riscv.instr.Instruction` carries ``length == 2`` and the
originating ``c.*`` mnemonic, so analysis operates on one uniform
instruction vocabulary while patching still knows the true byte size.

Every form is one row of :data:`repro.riscv.encoding.C_FORMS`; this
module decodes and encodes through those rows.  A halfword decodes by
the matching row with the most fixed bits.  A row encodes fields only
when they fit it (ranges, ties, constants, no zero in a hint or
reserved field) and the halfword decodes back through the same row.
"""

from __future__ import annotations

from .encoding import C_FORMS, C_J_IMM, CForm, EncodingError, Field
from .instr import Instruction
from .opcodes import by_mnemonic


class IllegalCompressed(ValueError):
    """Raised for halfwords that are not valid RV64C encodings."""


#: Range of the c.j target offset (paper §3.1.2): [-2^11, 2^11) bytes...
#: The paper text says [-2^12, 2^12); the architectural field is an
#: 11-bit signed offset in units of 2 bytes, i.e. [-2048, 2046] byte
#: displacements — we use the architectural value.
CJ_RANGE = (C_J_IMM.lo, C_J_IMM.hi)

_BY_SPECIFICITY = sorted(C_FORMS, key=lambda row: -bin(row.mask).count("1"))
_BY_CMN = {row.cmn: row for row in C_FORMS}
_AUTO: dict[str, list[CForm]] = {}
for _row in C_FORMS:
    if _row.auto:
        _AUTO.setdefault(_row.mnemonic, []).append(_row)


def _row_of(hw: int) -> CForm | None:
    for row in _BY_SPECIFICITY:
        if hw & row.mask == row.match:
            return row
    return None


def decode_compressed(hw: int) -> Instruction:
    """Decode a 16-bit halfword into its expanded Instruction.

    Raises :class:`IllegalCompressed` for illegal/unsupported encodings
    (including the all-zero halfword, which is defined illegal and is a
    common parse-gap marker).
    """
    hw &= 0xFFFF
    row = _row_of(hw)
    if row is None:
        raise IllegalCompressed(f"no RV64C encoding {hw:#06x}")
    fields: dict[str, int] = {}
    for name, source in row.fields:
        if type(source) is Field:
            fields[name] = source.get(hw)
        elif type(source) is str:
            fields[name] = fields[source]
        else:
            fields[name] = source
    for name in row.reserved:
        if not fields[name]:
            raise IllegalCompressed(
                f"{row.cmn} with {name}=0 is reserved: {hw:#06x}")
    return Instruction(spec=by_mnemonic(row.mnemonic), fields=fields,
                       length=2, raw=hw, compressed_mnemonic=row.cmn)


def _encode(row: CForm, fields: dict[str, int]) -> int | None:
    """The halfword encoding *fields* in *row*, or ``None``."""
    hw = row.match
    for name, source in row.fields:
        value = fields.get(name)
        if value is None:
            return None
        if type(source) is Field:
            placed = source.put(value)
            if placed is None:
                return None
            hw |= placed
        elif type(source) is str:
            if value != fields.get(source):
                return None
        elif value != source:
            return None
    for name in row.reserved + row.hints:
        if not fields[name]:
            return None
    return hw if _row_of(hw) is row else None


def try_compress(mnemonic: str, fields: dict[str, int]) -> int | None:
    """Return a 16-bit encoding equivalent to the given standard
    instruction, or ``None`` when no compressed form applies.

    Takes the first row of *mnemonic* that encodes the fields, trying
    ``rs1``/``rs2`` swapped for commutative rows.  Covers the
    operand-determined RV64C forms (everything whose compressibility
    does not depend on a label value): ALU ops, loads and stores (both
    sp-based and x8-x15-based), shifts, and register moves.  This is
    what lets the assembler's auto-compression pass produce
    realistically dense RV64GC binaries without relaxation.
    """
    for row in _AUTO.get(mnemonic, ()):
        hw = _encode(row, fields)
        if hw is None and row.commutative:
            hw = _encode(row, {**fields, "rs1": fields.get("rs2"),
                               "rs2": fields.get("rs1")})
        if hw is not None:
            return hw
    return None


def encode_compressed(cmn: str, **fields: int) -> int:
    """Encode the compressed form *cmn* (``c.j``, ``c.nop`` ...) from
    its expanded fields; constants and tied fields may be left out.

    ``encode_compressed("c.j", imm=offset)`` is a springboard,
    ``encode_compressed("c.ebreak")`` the 2-byte trap.
    """
    row = _BY_CMN[cmn]
    for name, source in row.fields:
        if name not in fields and type(source) is not Field:
            fields[name] = (fields.get(source) if type(source) is str
                            else source)
    hw = _encode(row, fields)
    if hw is None:
        raise EncodingError(f"{cmn}: cannot encode {fields}")
    return hw
