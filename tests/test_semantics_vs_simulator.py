"""Cross-validation of the SAIL-derived semantics against every
simulator tier.

The simulator derives its integer instructions from the same IR through
:mod:`repro.semantics.lower`, and each tier runs that lowering
differently: the closure interpreter through per-mnemonic factories,
superblocks and megatraces as inlined, constant-folded source.
PROPERTY: for every instruction with precise semantics, evaluating the IR
on a random machine state produces exactly the register/pc/memory writes
each tier's execution produces.

The interpreter runs the instruction once.  The compiled tiers run it in
a three-iteration counted loop with ``hot_threshold = 1``, so it executes
in a superblock, then (megatrace tier) in a megatrace's warm-up body and
its steady-state body; in half the draws its source registers are
re-materialised inside the loop, so the megatrace folds them as
constants.  The reference evaluates the whole loop on the IR.

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
_M64 = (1 << 64) - 1

#: Instructions excluded from the cross-check: fences have no
#: state-visible effect; ecall/ebreak trap.
_SKIP = {"fence", "fence.i", "ecall", "ebreak"}

_MNEMONICS = sorted(mn for mn in sail_semantics() if mn not in _SKIP)

_TIERS = ["interpreter", "superblock", "megatrace"]

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


def _fresh_machine(reg_values, mem_bytes, tier="interpreter"):
    m = Machine(trace_compile=tier != "interpreter",
                megatraces=tier == "megatrace")
    m.traces.hot_threshold = 1
    m.mem.map_region(_CODE, PAGE_SIZE)
    m.mem.map_region(_BASE, PAGE_SIZE)
    m.mem.write_bytes(_BASE, mem_bytes)
    for i in range(1, 32):
        m.x[i] = reg_values[i - 1]
    m.pc = _HEAD
    return m


def _random_fields(spec, draw):
    reg = st.integers(0, 31)
    f = {}
    ops = {op if op[0] != "f" else op[1:] for op in spec.operands}
    fmt = spec.fmt
    if "rd" in ops:
        f["rd"] = draw(reg)
    if fmt in ("R", "SHIFT64", "SHIFT32", "I", "S", "B"):
        if "rs1" in ops or fmt in ("I", "S", "B"):
            f["rs1"] = draw(reg)
    if fmt in ("S", "B") or "rs2" in ops:
        f["rs2"] = draw(reg)
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
        elif w[0] == "mem":
            m.mem.write_int(w[1], w[2], w[3])
        elif w[0] == "pc":
            m.pc = w[1]


def _li(r: int, value: int) -> list:
    """``lui``/``addiw`` loading the sign-extended low word of *value*."""
    lo = ((value & 0xFFF) ^ 0x800) - 0x800
    hi = ((value - lo) >> 12) & 0xFFFFF
    return [make("lui", rd=r, imm=hi), make("addiw", rd=r, rs1=r, imm=lo)]


def _loop(instr, remat: dict) -> list:
    """The compiled tiers' program at ``_HEAD``: *remat* (register ->
    value) re-loaded, *instr*, a ``nop`` a taken transfer skips, then the
    counter decrement and back edge."""
    body = [i for r, v in remat.items() for i in _li(r, v)]
    body += [instr, make("addi", rd=0, rs1=0, imm=0),
             make("addi", rd=_COUNTER, rs1=_COUNTER, imm=-1)]
    body.append(make("bne", rs1=_COUNTER, rs2=0, imm=-4 * len(body)))
    return body + [make("ebreak")]


def _run_loop(tier, regs, mem0, program):
    """Run *program* on *tier* and on the IR evaluator from the same
    state; assert the final states agree and return the tier's machine."""
    regs = list(regs)
    regs[_COUNTER - 1] = 3
    m_sim = _fresh_machine(regs, mem0, tier)
    m_ref = _fresh_machine(regs, mem0)
    code = {_HEAD + 4 * k: instr for k, instr in enumerate(program)}
    for pc, instr in code.items():
        m_sim.mem.write_int(pc, 4, encode_fields(instr.spec, instr.fields))
    stop = max(code)

    ev = m_sim.run()
    assert (ev.reason, ev.pc) == (StopReason.BREAKPOINT, stop), ev
    assert m_sim.traces.compiles > 0
    assert m_sim.traces.mega_compiles == (tier == "megatrace")

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
    assert (m_sim.mem.read_bytes(_BASE, 256)
            == m_ref.mem.read_bytes(_BASE, 256)), "memory mismatch"
    assert (m_sim.instret, m_sim.ucycles) == (m_ref.instret, m_ref.ucycles)
    return m_sim


def _step(regs, mem0, instr):
    """Run *instr* once on the interpreter and on the evaluator; assert
    they agree and return the interpreter's machine."""
    m_sim = _fresh_machine(regs, mem0)
    m_ref = _fresh_machine(regs, mem0)
    m_sim.mem.write_int(m_sim.pc, 4, encode_fields(instr.spec, instr.fields))

    # Reference: evaluate IR semantics against the *pre* state.
    writes = evaluate(sail_semantics()[instr.mnemonic], instr,
                      _EvalAdapter(m_ref))

    ev = m_sim.step()
    assert ev is None, f"simulator stopped: {ev}"

    _apply(m_ref, writes)
    assert m_sim.pc == m_ref.pc, "pc mismatch"
    assert m_sim.x == m_ref.x, "register file mismatch"
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
    rs1 = fields.get("rs1")
    if sem.reads_memory() or sem.writes_memory():
        if not rs1:
            return  # unmappable without a base register; skip
        offset = data.draw(st.integers(0, 248))
        regs[rs1 - 1] = _BASE + offset - fields["imm"]

    if tier == "interpreter":
        _step(regs, mem0, make(mnemonic, **fields))
        return

    # Compiled tiers: the loop needs its counter, a load that keeps its
    # base, and control transfers that land back in the loop.
    regs_used = {fields.get(op) for op in ("rd", "rs1", "rs2")}
    if _COUNTER in regs_used or (sem.reads_memory() and fields["rd"] == rs1):
        return
    sources = sorted({fields[op] for _, op in sem.register_uses()} - {0})
    at = _HEAD + 8 * len(sources) * remat  # the instruction's pc
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
        instr, {r: regs[r - 1] for r in sources} if remat else {}))


# -- spec literals ----------------------------------------------------------

_R = {"rd": 5, "rs1": 6, "rs2": 7}
_INT64_MIN = 1 << 63

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
