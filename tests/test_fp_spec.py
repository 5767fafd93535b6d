"""F/D results against literal values from the RISC-V specification,
on the interpreter, superblocks and megatraces.

A NaN produced by arithmetic or by a conversion between formats is the
canonical NaN: ``0x7ff8000000000000`` for a double, ``0x7fc00000``
NaN-boxed for a single.  Moves (``fsgnj``, ``fmv``) copy bit patterns,
signalling-NaN payloads included.

The interpreter runs the instruction once.  The compiled tiers run it
in a three-iteration counted loop compiled on first dispatch, so it
executes in a superblock, then (megatrace tier) in a megatrace's
warm-up body and its steady-state body, where the double-precision
arithmetic the emitter inlines runs on Python floats.
"""

from __future__ import annotations

import pytest

from repro.riscv.encoder import encode_fields, make
from repro.sim import Machine, StopReason
from repro.sim.memory import PAGE_SIZE

_CODE = 0x1000
_COUNTER = 31

ONE = 0x3FF0_0000_0000_0000      # 1.0
INF = 0x7FF0_0000_0000_0000      # +inf
NEG_ONE = 0xBFF0_0000_0000_0000  # -1.0
QNAN64 = 0x7FF8_0000_0000_0000
QNAN32_BOXED = 0xFFFF_FFFF_7FC0_0000
SNAN64 = 0x7FF0_0000_0000_0001
ONE32_BOXED = 0xFFFF_FFFF_3F80_0000  # 1.0f

_RR = {"rd": 5, "rs1": 6, "rs2": 7}
_R1 = {"rd": 5, "rs1": 6}

#: name -> (mnemonic, fields, initial FP registers, expected fr[5])
ROWS = {
    "fmul.d-zero-times-inf": ("fmul.d", _RR, {6: 0, 7: INF}, QNAN64),
    "fsub.d-inf-minus-inf": ("fsub.d", _RR, {6: INF, 7: INF}, QNAN64),
    "fdiv.d-inf-over-inf": ("fdiv.d", _RR, {6: INF, 7: INF}, QNAN64),
    "fadd.d-payload-nan": ("fadd.d", _RR,
                           {6: 0x7FF8_0000_0000_0123, 7: ONE}, QNAN64),
    "fmin.d-two-nans": ("fmin.d", _RR,
                        {6: 0x7FF8_0000_0000_0001,
                         7: 0x7FF8_0000_0000_0002}, QNAN64),
    "fmax.d-one-nan": ("fmax.d", _RR, {6: SNAN64, 7: ONE}, ONE),
    "fmadd.d-inf-times-zero": ("fmadd.d", {**_RR, "rs3": 8},
                               {6: INF, 7: 0, 8: ONE}, QNAN64),
    "fsqrt.d-negative": ("fsqrt.d", _R1, {6: NEG_ONE}, QNAN64),
    "fcvt.s.d-nan": ("fcvt.s.d", _R1, {6: 0x7FF8_4000_0000_0000},
                     QNAN32_BOXED),
    "fcvt.d.s-nan": ("fcvt.d.s", _R1, {6: 0xFFFF_FFFF_7FC0_0001},
                     QNAN64),
    "fadd.s-unboxed-operand": ("fadd.s", _RR,
                               {6: 0x3F80_0000, 7: ONE32_BOXED},
                               QNAN32_BOXED),
    "fmul.s-zero-times-inf": ("fmul.s", _RR,
                              {6: 0xFFFF_FFFF_0000_0000,
                               7: 0xFFFF_FFFF_7F80_0000}, QNAN32_BOXED),
    # moves keep every bit
    "fsgnj.d-snan": ("fsgnj.d", _RR, {6: SNAN64, 7: SNAN64}, SNAN64),
    "fsgnjn.d-snan": ("fsgnjn.d", _RR, {6: SNAN64, 7: SNAN64},
                      SNAN64 | 1 << 63),
}

TIERS = ["interpreter", "superblock", "megatrace"]


def _run(tier, instr, init):
    """Run *instr* on *tier* with FP registers *init*; the machine."""
    m = Machine(trace_compile=tier != "interpreter",
                megatraces=tier == "megatrace")
    m.traces.hot_threshold = 1
    m.mem.map_region(_CODE, PAGE_SIZE)
    for r, v in init.items():
        m.f[r] = v
    if tier == "interpreter":
        program = [instr, make("ebreak")]
    else:
        m.x[_COUNTER] = 3
        program = [instr,
                   make("addi", rd=_COUNTER, rs1=_COUNTER, imm=-1),
                   make("bne", rs1=_COUNTER, rs2=0, imm=-8),
                   make("ebreak")]
    for k, ins in enumerate(program):
        m.mem.write_int(_CODE + 4 * k, 4, encode_fields(ins.spec, ins.fields))
    m.pc = _CODE
    ev = m.run()
    assert (ev.reason, ev.pc) == (StopReason.BREAKPOINT,
                                  _CODE + 4 * (len(program) - 1))
    if tier != "interpreter":
        assert m.traces.compiles > 0
        assert m.traces.mega_compiles == (tier == "megatrace")
    return m


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("row", sorted(ROWS))
def test_fp_spec_literals(row, tier):
    mnemonic, fields, init, expected = ROWS[row]
    m = _run(tier, make(mnemonic, **fields), init)
    assert f"{m.f[5]:#x}" == f"{expected:#x}"
    assert {r: m.f[r] for r in init} == init  # sources keep their bits
