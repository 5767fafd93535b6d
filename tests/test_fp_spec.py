"""F/D results against literal values from the RISC-V specification,
on the interpreter and the trace JIT at two hotness thresholds.

A NaN produced by arithmetic or by a conversion between formats is the
canonical NaN: ``0x7ff8000000000000`` for a double, ``0x7fc00000``
NaN-boxed for a single.  Moves (``fsgnj``, ``fmv``) copy bit patterns,
signalling-NaN payloads included.  Only loads, stores and ``fmv`` take a
single's bits as they are; every other single-precision operand that is
not properly NaN-boxed reads as the canonical NaN.  Fused multiply-adds
and conversions round once.

The interpreter runs the instruction once.  The JIT runs it in a
three-iteration counted loop whose head roots a looping trace: at
threshold 1 on its first dispatch, so the instruction executes in the
trace's warm-up body and then its steady-state body, where the
double-precision arithmetic the emitter inlines runs on Python floats;
at threshold 2 after one iteration on the interpreter.
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

#: name -> (mnemonic, fields, initial registers, expected fr[5], or
#: ``("x", value)`` for x5).  Integer keys of the initial registers name
#: F registers, ``"x<n>"`` keys x registers.
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
    "fmv.x.w-raw-bits": ("fmv.x.w", _R1, {6: 0x1234_5678_BF80_0000},
                         ("x", 0xFFFF_FFFF_BF80_0000)),
    # every other single-precision operand is unboxed
    "fsgnj.s-unboxed-rs1": ("fsgnj.s", _RR,
                            {6: 0x3F80_0000, 7: ONE32_BOXED}, QNAN32_BOXED),
    "fsgnjn.s-unboxed-rs2": ("fsgnjn.s", _RR,
                             {6: ONE32_BOXED, 7: 0x8000_0000},
                             0xFFFF_FFFF_BF80_0000),
    "fclass.s-unboxed": ("fclass.s", _R1, {6: 0x3F80_0000}, ("x", 0x200)),
    # one rounding: (1 + 2**-30)**2 - (1 + 2**-29) is 2**-60, which a
    # rounded product loses
    "fmadd.d-fused": ("fmadd.d", {**_RR, "rs3": 8},
                      {6: 0x3FF0_0000_0040_0000, 7: 0x3FF0_0000_0040_0000,
                       8: 0xBFF0_0000_0080_0000}, 0x3C30_0000_0000_0000),
    "fcvt.s.l-rounds-once": ("fcvt.s.l", _R1, {"x6": 0x1000_0010_0000_0001},
                             0xFFFF_FFFF_5D80_0001),
    "fcvt.s.lu-rounds-once": ("fcvt.s.lu", _R1,
                              {"x6": 0x8000_0080_0000_0001},
                              0xFFFF_FFFF_5F00_0001),
}

#: engine id -> the JIT's hot threshold (``None``: the interpreter).
#: The ``superblock`` id, kept so test ids stay stable, names the
#: threshold-2 engine since looping traces became the only JIT tier.
HOT = {"interpreter": None, "superblock": 2, "megatrace": 1}
TIERS = list(HOT)


def _run(tier, instr, init):
    """Run *instr* on *tier* with FP registers *init*; the machine."""
    hot = HOT[tier]
    m = Machine(trace_compile=hot is not None)
    if hot is not None:
        m.traces.hot_threshold = hot
    m.mem.map_region(_CODE, PAGE_SIZE)
    for r, v in init.items():
        if isinstance(r, str):
            m.x[int(r[1:])] = v
        else:
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
    if hot is not None:
        # one trace, rooted at the loop head
        assert m.traces.mega_compiles == 1
        assert m.traces.fns.get(_CODE)
    return m


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("row", sorted(ROWS))
def test_fp_spec_literals(row, tier):
    mnemonic, fields, init, expected = ROWS[row]
    m = _run(tier, make(mnemonic, **fields), init)
    got = m.f[5]
    if isinstance(expected, tuple):
        got, expected = m.x[5], expected[1]
    assert f"{got:#x}" == f"{expected:#x}"
    # sources keep their bits
    assert {r: m.x[int(r[1:])] if isinstance(r, str) else m.f[r]
            for r in init} == init
