"""Instruction execution engine: decoded instruction -> Python closure.

The hot path of the simulator.  Each instruction at a given pc is decoded
once and compiled into a small closure that mutates the machine state;
closures are cached per-pc (the machine invalidates entries when code is
patched — which is precisely what dynamic instrumentation does).  An
instruction with SAIL semantics gets its closure from a per-mnemonic
factory compiled from the lowered IR (:mod:`repro.semantics.lower`);
F/D, A, Zicsr, ``ecall``/``ebreak`` and ``fence.i`` are hand-written.

Per the HPC guides: the interpreter optimises the *hot loop* only —
closure dispatch, locals-bound state, no per-step allocation.  Everything
else favours clarity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, TYPE_CHECKING

from ..errors import ReproError
from ..riscv.encoding import sign_extend, to_unsigned
from ..riscv.instr import Instruction
from ..semantics.lower import ATOM, HELPERS, Lowering, Val, sx
from ..semantics.registry import semantics_for
from . import fp
from .timing import category_of

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

M64 = (1 << 64) - 1
M32 = (1 << 32) - 1

Closure = Callable[[], None]


class SimFault(ReproError):
    """Architectural fault (illegal instruction, bad fetch...)."""

    def __init__(self, message: str, pc: int | None = None):
        super().__init__(message if pc is None else f"{message} at pc={pc:#x}")
        self.pc = pc


class BreakpointHit(Exception):
    """ebreak executed; machine stopped with pc at the ebreak."""

    def __init__(self, pc: int):
        super().__init__(f"breakpoint at {pc:#x}")
        self.pc = pc


class ExitTrap(Exception):
    """Program requested exit via the exit syscall."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


def _sx32(v: int) -> int:
    v &= M32
    return v - (1 << 32) if v >> 31 else v


AMO_OPS = {
    "amoswap": lambda old, src, sx: src,
    "amoadd": lambda old, src, sx: old + src,
    "amoxor": lambda old, src, sx: old ^ src,
    "amoand": lambda old, src, sx: old & src,
    "amoor": lambda old, src, sx: old | src,
    "amomin": lambda old, src, sx: old if sx(old) <= sx(src) else src,
    "amomax": lambda old, src, sx: old if sx(old) >= sx(src) else src,
    "amominu": lambda old, src, sx: min(old, src),
    "amomaxu": lambda old, src, sx: max(old, src),
}

#: two-operand FP arithmetic on Python floats.  A NaN result, like one
#: of FMA, ``fsqrt`` or ``fcvt`` between formats, is packed as the
#: canonical NaN (``fp.canonical_bits_from_f64``, ``fp.bits_from_f32``)
FP_RR = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": fp.fp_div,
    "fmin": fp.fp_min,
    "fmax": fp.fp_max,
}

FP_CMP = {
    "feq": lambda a, b: int(a == b),
    "flt": lambda a, b: int(a < b),
    "fle": lambda a, b: int(a <= b),
}

FMA_SIGNS = {  # mnemonic root -> (product sign, addend sign)
    "fmadd": (1, 1), "fmsub": (1, -1), "fnmsub": (-1, 1), "fnmadd": (-1, -1),
}


class _ClosureTarget:
    """Lowering target for the closure interpreter: registers are read
    through the operand fields bound by the factory, static values are
    computed once per pc in the factory prologue, and memory reads go
    into closure-body temps."""

    def __init__(self):
        self.prologue: list[str] = []
        self.body: list[str] = []

    def reg(self, name: str) -> Val:
        return Val(f"x[{name}]")

    def hoist(self, v: Val) -> Val:
        k = v.src
        if v.prec != ATOM:
            k = f"k{len(self.prologue)}"
            self.prologue.append(f"{k} = {v.src}")
        return Val(k, canon=v.canon, signed=v.signed, bits=v.bits)

    def load(self, lw: Lowering, base: str, off: Val, size: int) -> Val:
        addr = lw.value(lw.binop("add", self.reg(base), off))
        v = f"v{len(self.body)}"
        self.body.append(f"{v} = ri({addr.src}, {size})")
        return Val(v, bits=8 * size)


@lru_cache(maxsize=None)
def _factory(mnemonic: str, rd_zero: bool):
    """Compile the closure factory of one IR-covered mnemonic (with the
    write to ``rd`` dropped when *rd_zero*).  The factory binds an
    instruction's operand fields and returns its per-pc closure."""
    t = _ClosureTarget()
    lw = Lowering(semantics_for(mnemonic), t, zero=("rd",) if rd_zero
                  else ())
    body = t.body
    for st in lw.stores:
        addr, val = lw.value(lw.expr(st.addr)), lw.value(lw.expr(st.value))
        body.append(f"si({addr.src}, {st.size}, {val.src})")
    writes = [(r, lw.value(v)) for r, v in lw.writes]
    pc = "next_pc"
    if lw.target is not None:
        pc = lw.value(lw.target).src
        if lw.cond is not None:
            cond = t.hoist(lw.cond) if lw.cond.static else lw.cond
            pc = f"{pc} if {cond.src} else next_pc"
        if writes and not lw.target.static:
            body.append(f"t = {pc}")  # read before the writes land
            pc = "t"
    body += [f"x[{r}] = {v.src}" for r, v in writes]
    src = "\n".join([
        "def __make__(m, pc, F, ilen, cost):",
        "    x = m.x",
        "    ri = m.mem.read_int",
        "    si = m.mem.write_int",
        "    next_pc = pc + ilen",
        *[f"    {n} = F[{n!r}]" for n in lw.operands],
        *[f"    {ln}" for ln in t.prologue],
        "    def run():",
        *[f"        {ln}" for ln in body],
        f"        m.pc = {pc}",
        "        m.ucycles += cost",
        "        m.instret += 1",
        "    return run",
    ])
    env = dict(HELPERS)
    exec(compile(src, f"<closure:{mnemonic}>", "exec"), env)
    return env["__make__"]


def build_closure(m: "Machine", pc: int, instr: Instruction) -> Closure:
    """Compile one decoded instruction into an executable closure.

    The closure updates registers/memory/pc and charges cycle cost.
    Instructions with SAIL semantics run the closure their lowered IR
    builds; the rest are hand-written below.
    """
    mn = instr.mnemonic
    f = instr.fields
    length = instr.length
    next_pc = pc + length
    cost = m.timing.ucycles(category_of(mn, instr.spec.match & 0x7F))

    if mn != "fence.i" and semantics_for(mn) is not None:
        return _factory(mn, f.get("rd") == 0)(m, pc, f, length, cost)

    def _finish_simple(body: Callable[[], None]) -> Closure:
        def run() -> None:
            body()
            m.pc = next_pc
            m.ucycles += cost
            m.instret += 1
        return run

    # ---- F/D (shared with the trace compiler) ---------------------------
    simple = build_body(m, pc, instr)
    if simple is not None:
        return _finish_simple(simple)

    # ---- environment ----------------------------------------------------
    if mn == "ecall":
        def run() -> None:
            m.ucycles += cost
            m.instret += 1
            m.syscall()          # may raise ExitTrap
            m.pc = next_pc
        return run

    if mn == "ebreak":
        def run() -> None:
            raise BreakpointHit(pc)
        return run

    if mn == "fence.i":
        # the IR has no icache to flush: its semantics are ``skip``
        return _finish_simple(m.flush_icache)

    # ---- Zicsr -----------------------------------------------------------
    if mn.startswith("csrr"):
        return _build_csr(m, mn, f, _finish_simple)

    # ---- A extension ------------------------------------------------------
    if mn.startswith(("lr.", "sc.", "amo")):
        return _build_amo(m, mn, f, _finish_simple)

    raise SimFault(f"no handler for instruction {mn!r}", pc)


def _build_csr(m, mn, f, finish):
    rd = f["rd"]
    csr = f["csr"]
    write_kind = mn.rstrip("i")[-1]  # w / s / c
    if mn.endswith("i"):
        src_val = f["zimm"]
        def src():
            return src_val
    else:
        rs1 = f["rs1"]
        x = m.x
        def src():
            return x[rs1]
    x = m.x

    def body():
        old = m.read_csr(csr)
        v = src()
        if write_kind == "w":
            m.write_csr(csr, v)
        elif write_kind == "s":
            if v:
                m.write_csr(csr, old | v)
        else:
            if v:
                m.write_csr(csr, old & ~v & M64)
        if rd:
            x[rd] = old
    return finish(body)


def _build_amo(m, mn, f, finish):
    x = m.x
    rd = f["rd"]
    rs1 = f["rs1"]
    size = 4 if mn.endswith(".w") else 8
    bitw = size * 8
    mem = m.mem

    if mn.startswith("lr."):
        def body():
            addr = x[rs1]
            m.reservation = addr
            v = mem.read_int(addr, size)
            if rd:
                x[rd] = to_unsigned(sign_extend(v, bitw), 64)
        return finish(body)

    rs2 = f["rs2"]
    if mn.startswith("sc."):
        def body():
            addr = x[rs1]
            if m.reservation == addr:
                m.store_int(addr, size, x[rs2])
                ok = 0
            else:
                ok = 1
            m.reservation = None
            if rd:
                x[rd] = ok
        return finish(body)

    root = mn.split(".")[0]
    op = AMO_OPS[root]
    mask = (1 << bitw) - 1
    sx_ = _sx32 if size == 4 else sx

    def body():
        addr = x[rs1]
        old = mem.read_int(addr, size)
        new = op(old, x[rs2] & mask, sx_) & mask
        m.store_int(addr, size, new)
        if rd:
            x[rd] = to_unsigned(sign_extend(old, bitw), 64)
    return finish(body)


def build_body(m: "Machine", pc: int, instr: Instruction
               ) -> Closure | None:
    """Compile the *state update* of one F/D instruction.

    Returns a bookkeeping-free callable that mutates registers/memory
    only (no pc/ucycles/instret updates) -- the unit the trace compiler
    (:mod:`repro.sim.trace`) calls for the F/D forms it does not inline
    -- or ``None`` for anything else.
    """
    mn = instr.mnemonic
    f = instr.fields
    x = m.x
    fr = m.f
    mem = m.mem

    if mn in ("flw", "fld"):
        size = 4 if mn == "flw" else 8
        rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
        if size == 4:
            def body():
                fr[rd] = fp.NAN_BOX | mem.read_int((x[rs1] + imm) & M64, 4)
        else:
            def body():
                fr[rd] = mem.read_int((x[rs1] + imm) & M64, 8)
        return body

    if mn in ("fsw", "fsd"):
        size = 4 if mn == "fsw" else 8
        rs1, rs2, imm = f["rs1"], f["rs2"], f["imm"]
        def run_body():
            m.store_int((x[rs1] + imm) & M64, size, fr[rs2])
        return run_body

    parts = mn.split(".")
    root = parts[0]

    if root in FP_RR and len(parts) == 2:
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        put = fp.bits_from_f32 if single else fp.canonical_bits_from_f64
        op = FP_RR[root]
        rd, rs1, rs2 = f["rd"], f["rs1"], f["rs2"]
        def body():
            fr[rd] = put(op(get(fr[rs1]), get(fr[rs2])))
        return body

    if root in FP_CMP:
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        op = FP_CMP[root]
        rd, rs1, rs2 = f["rd"], f["rs1"], f["rs2"]
        def body():
            if rd:
                a, b = get(fr[rs1]), get(fr[rs2])
                x[rd] = 0 if (math.isnan(a) or math.isnan(b)) else op(a, b)
        return body

    if root == "fsqrt":
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        put = fp.bits_from_f32 if single else fp.canonical_bits_from_f64
        rd, rs1 = f["rd"], f["rs1"]
        def body():
            fr[rd] = put(fp.fp_sqrt(get(fr[rs1])))
        return body

    if root in ("fsgnj", "fsgnjn", "fsgnjx"):
        single = parts[1] == "s"
        sbit = 31 if single else 63
        rd, rs1, rs2 = f["rd"], f["rs1"], f["rs2"]
        mode = root[5:]
        def body():
            a, b = fr[rs1], fr[rs2]
            if single:
                a &= 0xFFFF_FFFF
                b_sign = (b >> sbit) & 1
            else:
                b_sign = (b >> sbit) & 1
            if mode == "n":
                b_sign ^= 1
            elif mode == "x":
                b_sign ^= (a >> sbit) & 1
            res = (a & ~(1 << sbit)) | (b_sign << sbit)
            fr[rd] = (fp.NAN_BOX | res) if single else res
        return body

    if root == "fclass":
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        rd, rs1 = f["rd"], f["rs1"]
        def body():
            if rd:
                bits = fr[rs1] & (0xFFFF_FFFF if single else M64)
                x[rd] = fp.classify(get(fr[rs1]), bits, single)
        return body

    if root in FMA_SIGNS and len(parts) == 2:
        psign, asign = FMA_SIGNS[root]
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        put = fp.bits_from_f32 if single else fp.canonical_bits_from_f64
        rd, rs1, rs2, rs3 = f["rd"], f["rs1"], f["rs2"], f["rs3"]
        def body():
            fr[rd] = put(psign * (get(fr[rs1]) * get(fr[rs2]))
                         + asign * get(fr[rs3]))
        return body

    if root == "fmv":
        rd, rs1 = f["rd"], f["rs1"]
        if mn == "fmv.x.w":
            def body():
                if rd:
                    x[rd] = to_unsigned(
                        sign_extend(fr[rs1] & 0xFFFF_FFFF, 32), 64)
        elif mn == "fmv.w.x":
            def body():
                fr[rd] = fp.NAN_BOX | (x[rs1] & 0xFFFF_FFFF)
        elif mn == "fmv.x.d":
            def body():
                if rd:
                    x[rd] = fr[rs1]
        else:  # fmv.d.x
            def body():
                fr[rd] = x[rs1]
        return body

    if root == "fcvt":
        return _build_fcvt(m, mn, parts, f)

    return None


def _build_fcvt(m, mn, parts, f):
    x = m.x
    fr = m.f
    rd, rs1 = f["rd"], f["rs1"]
    dst, src = parts[1], parts[2]

    int_widths = {"w": (32, True), "wu": (32, False),
                  "l": (64, True), "lu": (64, False)}

    if dst in int_widths:  # fp -> int
        width, signed = int_widths[dst]
        single = src == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        rm = f.get("rm", 0)
        if rm == 7:
            rm = 0  # dynamic: frm defaults to RNE in this simulator
        def body():
            if rd:
                v = fp.cvt_to_int(get(fr[rs1]), width, signed, rm)
                x[rd] = to_unsigned(
                    sign_extend(to_unsigned(v, width), width)
                    if width == 32 else v, 64)
        return body

    if src in int_widths:  # int -> fp
        width, signed = int_widths[src]
        single = dst == "s"
        put = fp.bits_from_f32 if single else fp.bits_from_f64
        def body():
            raw = x[rs1] & ((1 << width) - 1)
            v = sign_extend(raw, width) if signed else raw
            fr[rd] = put(float(v))
        return body

    if dst == "s" and src == "d":
        def body():
            fr[rd] = fp.bits_from_f32(fp.f64_from_bits(fr[rs1]))
        return body

    if dst == "d" and src == "s":
        def body():
            fr[rd] = fp.canonical_bits_from_f64(fp.f32_from_bits(fr[rs1]))
        return body

    return None
