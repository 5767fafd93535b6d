"""Cross-validation of the SAIL-derived semantics against every
simulator tier.

The simulator derives its instructions (integer, F/D and the AMOs) from
the same IR through :mod:`repro.semantics.lower`, and each tier runs
that lowering differently: the closure interpreter through per-mnemonic
factories, the trace JIT as inlined, constant-folded source that keeps
doubles in Python floats.
PROPERTY: for every instruction with precise semantics, evaluating the IR
on a random machine state produces exactly the x register, F register,
pc and memory writes each tier's execution produces.  F registers start
as random bits biased towards the values float code gets wrong: NaN
payloads, zeros and infinities of both signs, subnormals, and singles
that are (or are not) properly NaN-boxed.

The interpreter runs the instruction once.  The JIT runs it in a
three-iteration counted loop whose head roots a looping trace: with
``hot_threshold = 1`` on its first dispatch, so the instruction executes
in the trace's loop body on every iteration; with
``hot_threshold = 2`` after one iteration on the interpreter.  In half
the draws its source registers are re-materialised inside the loop: the
integer ones as constants the trace folds, the F ones by ``fld`` from a
slot, so the trace holds them as Python floats.  The reference evaluates
the whole loop on the IR.

Because the simulator and the evaluator share one definition of each
operator, :data:`SPEC_ROWS` pins both to values taken from the RISC-V
unprivileged specification.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv.encoder import encode_fields, make
from repro.riscv.opcodes import by_mnemonic
from repro.semantics import evaluate, sail_semantics
from repro.sim import Machine, StopReason
from repro.sim.memory import PAGE_SIZE
from repro.sim.timing import category_of

_BASE = 0x2000  # scratch memory region the random state points into
_CODE = 0x1000
_HEAD = _CODE + 0x100  # the instruction (interpreter) or loop head
_COUNTER = 31  # loop-counter register of the compiled-tier loop
_FSLOT = 0x700  # f<n>'s initial bits sit at _FSLOT + 8n (x0-relative)
_M64 = (1 << 64) - 1
_BOX = 0xFFFF_FFFF_0000_0000

#: F register values float code gets wrong: NaNs (quiet, signalling,
#: with payloads, negative), signed zeros and infinities, subnormals,
#: the largest finite double, and singles boxed and unboxed
_F_SPECIAL = [
    0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0123,
    0x7FF4_0000_0000_0000, 0, 1 << 63, 0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000, 1, 0x800F_FFFF_FFFF_FFFF, 0x7FEF_FFFF_FFFF_FFFF,
    0x3FF0_0000_0000_0000, 0x4330_0000_0000_0001,
    _BOX | 0x7FC0_0000, _BOX | 0x7F80_0001, _BOX | 0x7F80_0000,
    _BOX | 0xFF80_0000, _BOX | 0x8000_0000, _BOX, _BOX | 1,
    _BOX | 0x3F80_0000, _BOX | 0x4B80_0001, 0x3F80_0000, 0x7FC0_0000,
    0x1234_5678_3F80_0000,
]
_XREG = st.integers(0, 31)
#: an F register operand: f0 in half the draws
_FREG = st.integers(-31, 31).map(lambda n: max(n, 0))
_FREG_VALUE = st.one_of(
    st.sampled_from(_F_SPECIAL),
    st.integers(0, _M64),
    st.integers(0, 0xFFFF_FFFF).map(lambda v: _BOX | v),
    # subnormal doubles of either sign
    st.tuples(st.booleans(), st.integers(1, (1 << 52) - 1)).map(
        lambda t: t[0] << 63 | t[1]),
)

#: Instructions excluded from the cross-check: fences have no
#: state-visible effect; ecall/ebreak trap.
_SKIP = {"fence", "fence.i", "ecall", "ebreak"}

_MNEMONICS = sorted(mn for mn in sail_semantics() if mn not in _SKIP)

#: engine id -> the JIT's hot threshold (``None``: the interpreter).
#: The ``superblock`` id, kept so test ids stay stable, names the
#: threshold-2 engine since looping traces became the only JIT tier.
_HOT = {"interpreter": None, "superblock": 2, "megatrace": 1}
_TIERS = list(_HOT)

#: (tier, mnemonic) cases; the interpreter's keep their bare-mnemonic ids
_CASES = [pytest.param(tier, mn, id=mn if tier == "interpreter"
                       else f"{tier}-{mn}")
          for tier in _TIERS for mn in _MNEMONICS]


class _EvalAdapter:
    """Expose a Machine as the evaluator's EvalState protocol."""

    def __init__(self, m: Machine):
        self._m = m
        self.pc = m.pc

    def read_xreg(self, n):
        return self._m.x[n]

    def read_freg(self, n):
        return self._m.f[n]

    def read_mem(self, addr, size):
        return self._m.mem.read_int(addr, size)


def _fresh_machine(reg_values, mem_bytes, tier="interpreter", fregs=None):
    hot = _HOT[tier]
    m = Machine(trace_compile=hot is not None)
    if hot is not None:
        m.traces.hot_threshold = hot
    m.mem.map_region(_CODE, PAGE_SIZE)
    m.mem.map_region(_BASE, PAGE_SIZE)
    m.mem.write_bytes(_BASE, mem_bytes)
    for i in range(1, 32):
        m.x[i] = reg_values[i - 1]
    if fregs is not None:
        m.f[:] = fregs
        m.mem.map_region(0, PAGE_SIZE)
        for n, v in enumerate(fregs):
            m.mem.write_int(_FSLOT + 8 * n, 8, v)
    m.pc = _HEAD
    return m


def _random_fields(spec, draw):
    """Operand fields for *spec*: registers (an F operand is f0 in at
    least half the draws), immediates, a static rounding mode."""
    f = {}
    for op in spec.operands:
        if op.lstrip("f") in ("rd", "rs1", "rs2", "rs3"):
            f[op.lstrip("f")] = draw(_FREG if op[0] == "f" else _XREG)
    fmt = spec.fmt
    if fmt in ("I", "S", "B"):
        f.setdefault("rs1", draw(st.integers(0, 31)))
    if fmt in ("S", "B"):
        f.setdefault("rs2", draw(st.integers(0, 31)))
    if spec.has_rm:
        f["rm"] = draw(st.sampled_from([0, 1, 2, 3, 4, 7]))
    if fmt in ("I", "S"):
        f["imm"] = draw(st.integers(-2048, 2047))
    elif fmt == "B":
        f["imm"] = draw(st.integers(-1024, 1023)) * 2
    elif fmt == "U":
        f["imm"] = draw(st.integers(-(1 << 19), (1 << 19) - 1))
    elif fmt == "J":
        f["imm"] = draw(st.integers(-(1 << 18), (1 << 18) - 1)) * 2
    elif fmt == "SHIFT64":
        f["shamt"] = draw(st.integers(0, 63))
    elif fmt == "SHIFT32":
        f["shamt"] = draw(st.integers(0, 31))
    return f


def _apply(m: Machine, writes) -> None:
    """Apply evaluator writes to *m* (pc included)."""
    for w in writes:
        if w[0] == "x":
            m.x[w[1]] = w[2]
        elif w[0] == "f":
            m.f[w[1]] = w[2]
        elif w[0] == "mem":
            m.mem.write_int(w[1], w[2], w[3])
        elif w[0] == "pc":
            m.pc = w[1]


def _li(r: int, value: int) -> list:
    """``lui``/``addiw`` loading the sign-extended low word of *value*."""
    lo = ((value & 0xFFF) ^ 0x800) - 0x800
    hi = ((value - lo) >> 12) & 0xFFFFF
    return [make("lui", rd=r, imm=hi), make("addiw", rd=r, rs1=r, imm=lo)]


def _loop(instr, remat: dict, fremat=()) -> list:
    """The compiled tiers' program at ``_HEAD``: *remat* (register ->
    value) re-loaded, the F registers *fremat* re-loaded from their
    slots, *instr*, a ``nop`` a taken transfer skips, then the counter
    decrement and back edge."""
    body = [i for r, v in remat.items() for i in _li(r, v)]
    body += [make("fld", rd=n, rs1=0, imm=_FSLOT + 8 * n) for n in fremat]
    body += [instr, make("addi", rd=0, rs1=0, imm=0),
             make("addi", rd=_COUNTER, rs1=_COUNTER, imm=-1)]
    body.append(make("bne", rs1=_COUNTER, rs2=0, imm=-4 * len(body)))
    return body + [make("ebreak")]


def _run_loop(tier, regs, mem0, program, fregs=None):
    """Run *program* on *tier* and on the IR evaluator from the same
    state; assert the final states agree and return the tier's machine."""
    regs = list(regs)
    regs[_COUNTER - 1] = 3
    m_sim = _fresh_machine(regs, mem0, tier, fregs)
    m_ref = _fresh_machine(regs, mem0, fregs=fregs)
    code = {_HEAD + 4 * k: instr for k, instr in enumerate(program)}
    for pc, instr in code.items():
        m_sim.mem.write_int(pc, 4, encode_fields(instr.spec, instr.fields))
    stop = max(code)

    ev = m_sim.run()
    assert (ev.reason, ev.pc) == (StopReason.BREAKPOINT, stop), ev
    assert m_sim.traces.mega_compiles > 0
    assert m_sim.traces.fns.get(_HEAD), "the loop head roots a trace"

    # Reference: evaluate every executed instruction's IR on its pre
    # state, charging the cost the timing model gives its category.
    table = sail_semantics()
    while m_ref.pc != stop:
        instr = code[m_ref.pc]
        mn = instr.mnemonic
        _apply(m_ref, evaluate(table[mn], instr, _EvalAdapter(m_ref)))
        m_ref.instret += 1
        m_ref.ucycles += m_ref.timing.ucycles(
            category_of(mn, instr.spec.match & 0x7F))

    assert m_sim.x == m_ref.x, "register file mismatch"
    assert _hex(m_sim.f) == _hex(m_ref.f), "FP register file mismatch"
    assert (m_sim.mem.read_bytes(_BASE, 256)
            == m_ref.mem.read_bytes(_BASE, 256)), "memory mismatch"
    assert (m_sim.instret, m_sim.ucycles) == (m_ref.instret, m_ref.ucycles)
    return m_sim


def _hex(regs) -> list[str]:
    return [f"{v:#x}" for v in regs]


def _step(regs, mem0, instr, fregs=None):
    """Run *instr* once on the interpreter and on the evaluator; assert
    they agree and return the interpreter's machine."""
    m_sim = _fresh_machine(regs, mem0, fregs=fregs)
    m_ref = _fresh_machine(regs, mem0, fregs=fregs)
    m_sim.mem.write_int(m_sim.pc, 4, encode_fields(instr.spec, instr.fields))

    # Reference: evaluate IR semantics against the *pre* state.
    writes = evaluate(sail_semantics()[instr.mnemonic], instr,
                      _EvalAdapter(m_ref))

    ev = m_sim.step()
    assert ev is None, f"simulator stopped: {ev}"

    _apply(m_ref, writes)
    assert m_sim.pc == m_ref.pc, "pc mismatch"
    assert m_sim.x == m_ref.x, "register file mismatch"
    assert _hex(m_sim.f) == _hex(m_ref.f), "FP register file mismatch"
    assert (m_sim.mem.read_bytes(_BASE, 256)
            == m_ref.mem.read_bytes(_BASE, 256)), "memory mismatch"
    return m_sim


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("tier, mnemonic", _CASES)
def test_sail_semantics_match_simulator(tier, mnemonic, data):
    spec = by_mnemonic(mnemonic)
    fields = _random_fields(spec, data.draw)

    # Random register state (raw bytes: bit 63 set as often as not);
    # memory-addressing registers are redirected so every access lands
    # in the compared scratch window.
    raw = data.draw(st.binary(min_size=8 * 31, max_size=8 * 31))
    regs = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, 248, 8)]
    mem0 = data.draw(st.binary(min_size=256, max_size=256))
    remat = tier != "interpreter" and data.draw(st.booleans())

    sem = sail_semantics()[mnemonic]
    fregs = None
    if any(rf == "f" for rf, _ in sem.register_uses() | sem.register_defs()):
        # random bits everywhere, the biased values in the sources
        raw = data.draw(st.binary(min_size=8 * 32, max_size=8 * 32))
        fregs = [int.from_bytes(raw[i:i + 8], "little")
                 for i in range(0, 256, 8)]
        for rf, op in sorted(sem.register_uses()):
            if rf == "f":
                fregs[fields[op]] = data.draw(_FREG_VALUE)
    rs1 = fields.get("rs1")
    if sem.reads_memory() or sem.writes_memory():
        if not rs1:
            return  # unmappable without a base register; skip
        # an AMO's address is aligned; every access stays in the window
        offset = data.draw(st.integers(0, 31)) * 8 if spec.fmt == "AMO" \
            else data.draw(st.integers(0, 248))
        regs[rs1 - 1] = _BASE + offset - fields.get("imm", 0)

    if tier == "interpreter":
        _step(regs, mem0, make(mnemonic, **fields), fregs)
        return

    # Compiled tiers: the loop needs its counter, an access that keeps
    # its base, and control transfers that land back in the loop.
    xregs = {fields[op] for op in spec.operands
             if op in ("rd", "rs1", "rs2")}
    if _COUNTER in xregs or (("x", "rd") in sem.register_defs()
                             and sem.reads_memory() and fields["rd"] == rs1):
        return
    sources = sorted({fields[op] for rf, op in sem.register_uses()
                      if rf == "x"} - {0})
    fsources = sorted({fields[op] for rf, op in sem.register_uses()
                       if rf == "f"}) if remat else []
    # the instruction's pc
    at = _HEAD + 8 * len(sources) * remat + 4 * len(fsources)
    if sem.writes_pc():
        if mnemonic == "jalr":
            if not rs1:
                return
            fields["imm"] = 0
            regs[rs1 - 1] = at + 8
        else:
            fields["imm"] = 8
    instr = make(mnemonic, **fields)
    _run_loop(tier, regs, mem0, _loop(
        instr, {r: regs[r - 1] for r in sources} if remat else {},
        fsources), fregs)


# -- spec literals ----------------------------------------------------------

_R = {"rd": 5, "rs1": 6, "rs2": 7}
_INT64_MIN = 1 << 63
_INT64_MAX = _INT64_MIN - 1
_B = {"rs1": 6, "rs2": 7, "imm": 8}  # a branch over the loop's nop

#: (mnemonic, fields, initial registers, expected registers and pc), the
#: expected values read off the RISC-V unprivileged specification
SPEC_ROWS = {
    "div-overflow": ("div", _R, {6: _INT64_MIN, 7: _M64}, {5: _INT64_MIN}),
    "rem-overflow": ("rem", _R, {6: _INT64_MIN, 7: _M64}, {5: 0}),
    "div-by-zero": ("div", _R, {6: 1234, 7: 0}, {5: _M64}),
    "divu-by-zero": ("divu", _R, {6: 1234, 7: 0}, {5: _M64}),
    "rem-by-zero": ("rem", _R, {6: 1234, 7: 0}, {5: 1234}),
    "remu-by-zero": ("remu", _R, {6: 1234, 7: 0}, {5: 1234}),
    "divw-by-zero": ("divw", _R, {6: 0xDEAD_BEEF_0000_1234,
                                  7: 0xFFFF_FFFF_0000_0000}, {5: _M64}),
    "divuw-by-zero": ("divuw", _R, {6: 0xDEAD_BEEF_0000_1234,
                                    7: 0xFFFF_FFFF_0000_0000}, {5: _M64}),
    "remw-by-zero": ("remw", _R, {6: 0x1234_5678_8000_0001,
                                  7: 0xABCD_0000_0000_0000},
                     {5: 0xFFFF_FFFF_8000_0001}),
    "remuw-by-zero": ("remuw", _R, {6: 0x1234_5678_8000_0001,
                                    7: 0xABCD_0000_0000_0000},
                      {5: 0xFFFF_FFFF_8000_0001}),
    "divw-overflow": ("divw", _R, {6: 0x1234_5678_8000_0000,
                                   7: 0xABCD_EF01_FFFF_FFFF},
                      {5: 0xFFFF_FFFF_8000_0000}),
    "remw-overflow": ("remw", _R, {6: 0x1234_5678_8000_0000,
                                   7: 0xABCD_EF01_FFFF_FFFF}, {5: 0}),
    "mulh-ones": ("mulh", _R, {6: _M64, 7: _M64}, {5: 0}),
    "mulhsu-ones": ("mulhsu", _R, {6: _M64, 7: _M64}, {5: _M64}),
    "mulhu-ones": ("mulhu", _R, {6: _M64, 7: _M64}, {5: _M64 - 1}),
    "sllw-shift-33": ("sllw", _R, {6: 0x4000_0000, 7: 33},
                      {5: 0xFFFF_FFFF_8000_0000}),
    "srlw-shift-33": ("srlw", _R, {6: 0x8000_0000, 7: 33},
                      {5: 0x4000_0000}),
    "sraw-shift-33": ("sraw", _R, {6: 0x8000_0000, 7: 33},
                      {5: 0xFFFF_FFFF_C000_0000}),
    "sll-shift-65": ("sll", _R, {6: 1, 7: 65}, {5: 2}),
    "srliw-by-0": ("srliw", {"rd": 5, "rs1": 6, "shamt": 0},
                   {6: 0x8000_0000}, {5: 0xFFFF_FFFF_8000_0000}),
    "addw-overflow": ("addw", _R, {6: 0x7FFF_FFFF, 7: 1},
                      {5: 0xFFFF_FFFF_8000_0000}),
    "addiw-overflow": ("addiw", {"rd": 5, "rs1": 6, "imm": 1},
                       {6: 0x7FFF_FFFF}, {5: 0xFFFF_FFFF_8000_0000}),
    "sltiu-imm-minus-1": ("sltiu", {"rd": 5, "rs1": 6, "imm": -1},
                          {6: 0x7FFF_FFFF_FFFF_FFFF}, {5: 1}),
    "lui-bit-19": ("lui", {"rd": 5, "imm": 0x80000}, {},
                   {5: 0xFFFF_FFFF_8000_0000}),
    # signed compares at the sign boundary, register against register
    # and against an immediate (the tiers compare sign-flipped values)
    "slt-max-vs-min": ("slt", _R, {6: _INT64_MAX, 7: _INT64_MIN}, {5: 0}),
    "slt-min-vs-max": ("slt", _R, {6: _INT64_MIN, 7: _INT64_MAX}, {5: 1}),
    "slt-minus-1-vs-0": ("slt", _R, {6: _M64, 7: 0}, {5: 1}),
    "slt-0-vs-minus-1": ("slt", _R, {6: 0, 7: _M64}, {5: 0}),
    "slti-min-vs-0": ("slti", {"rd": 5, "rs1": 6, "imm": 0},
                      {6: _INT64_MIN}, {5: 1}),
    "slti-max-vs-minus-1": ("slti", {"rd": 5, "rs1": 6, "imm": -1},
                            {6: _INT64_MAX}, {5: 0}),
    "slti-below-negative": ("slti", {"rd": 5, "rs1": 6, "imm": -4},
                            {6: _M64 - 4}, {5: 1}),
    "slti-at-negative": ("slti", {"rd": 5, "rs1": 6, "imm": -4},
                         {6: _M64 - 3}, {5: 0}),
    "blt-minus-1-vs-0": ("blt", _B, {6: _M64, 7: 0}, {"pc": _HEAD + 8}),
    "blt-max-vs-min": ("blt", _B, {6: _INT64_MAX, 7: _INT64_MIN},
                       {"pc": _HEAD + 4}),
    "bge-min-vs-max": ("bge", _B, {6: _INT64_MIN, 7: _INT64_MAX},
                       {"pc": _HEAD + 4}),
    "bge-0-vs-minus-1": ("bge", _B, {6: 0, 7: _M64}, {"pc": _HEAD + 8}),
    # the target uses the old x5; x5 then holds the link
    "jalr-rd-is-rs1": ("jalr", {"rd": 5, "rs1": 5, "imm": 0},
                       {5: _HEAD + 8}, {5: _HEAD + 4, "pc": _HEAD + 8}),
}


@pytest.mark.parametrize("tier", ["evaluator"] + _TIERS)
@pytest.mark.parametrize("row", sorted(SPEC_ROWS))
def test_spec_literals(row, tier):
    mnemonic, fields, init, expected = SPEC_ROWS[row]
    regs = [0] * 31
    for r, v in init.items():
        regs[r - 1] = v
    instr = make(mnemonic, **fields)
    if tier == "evaluator":
        m = _fresh_machine(regs, bytes(256))
        _apply(m, evaluate(sail_semantics()[mnemonic], instr,
                           _EvalAdapter(m)))
    elif tier == "interpreter":
        m = _step(regs, bytes(256), instr)
    else:
        m = _run_loop(tier, regs, bytes(256), _loop(instr, {}))
        expected = {k: v for k, v in expected.items() if k != "pc"}
    got = {k: m.pc if k == "pc" else m.x[k] for k in expected}
    assert got == expected
