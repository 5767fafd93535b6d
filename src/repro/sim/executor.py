"""Instruction execution engine: decoded instruction -> Python closure.

The hot path of the simulator.  An instruction is decoded once and
compiled into a small closure that mutates the machine state, in one of
two shapes.  A per-pc closure computes everything that depends on its pc
(branch targets, links, ``auipc`` values) once, when it is built: the
closure interpreter and ``step()`` cache one per pc (the machine
invalidates entries when code is patched — which is precisely what
dynamic instrumentation does).  A shared closure serves every pc holding
its encoding and reads the pc from ``m.pc`` when its meaning needs it:
the trace JIT's cold path, where most pcs run only a few times, builds
one per encoding.  An instruction with SAIL semantics gets either shape
from a per-mnemonic factory compiled from the lowered IR
(:mod:`repro.semantics.lower`); only ``lr``/``sc``, Zicsr,
``ecall``/``ebreak`` and ``fence.i``'s icache flush are hand-written,
and their closures are always per pc.

Per the HPC guides: the interpreter optimises the *hot loop* only —
closure dispatch, locals-bound state, no per-step allocation.  Everything
else favours clarity.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, TYPE_CHECKING

from ..errors import ReproError
from ..riscv.encoding import sign_extend, to_unsigned
from ..riscv.instr import Instruction
from ..semantics.lower import ATOM, HELPERS, Lowering, Val
from ..semantics.registry import semantics_for
from .timing import category_of

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

M64 = (1 << 64) - 1

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


class _ClosureTarget:
    """Lowering target for the closure interpreter: registers are read
    through the operand fields bound by the factory, static values are
    computed once per pc in the factory prologue, and memory reads go
    into closure-body temps.  F registers hold bit patterns, which the
    float primitives take and return."""

    floats = False

    def __init__(self):
        self.prologue: list[str] = []
        self.body: list[str] = []
        self.loads: dict[tuple, Val] = {}

    def reg(self, name: str) -> Val:
        return Val(f"x[{name}]")

    def freg(self, name: str, fl) -> Val:
        return Val(f"fr[{name}]")

    def hoist(self, v: Val) -> Val:
        k = v.src
        if v.prec != ATOM:
            k = f"k{len(self.prologue)}"
            self.prologue.append(f"{k} = {v.src}")
        return Val(k, canon=v.canon, signed=v.signed, bits=v.bits)

    def load(self, lw: Lowering, base: str, off: Val, size: int,
             dest=None) -> Val:
        key = (base, off.src, size)  # an AMO reads its address twice
        if key not in self.loads:
            addr = lw.value(lw.binop("add", self.reg(base), off))
            v = f"v{len(self.body)}"
            self.body.append(f"{v} = ri({addr.src}, {size})")
            self.loads[key] = Val(v, bits=8 * size)
        return self.loads[key]


#: a factory prologue line that computes a value over the pc
_READS_PC = re.compile(r"\bpc\b")


@lru_cache(maxsize=None)
def _factory(mnemonic: str, rd_zero: bool, shared: bool):
    """Compile the closure factory of one IR-covered mnemonic (with a
    write to ``X(rd)`` dropped when *rd_zero*; ``F(rd)`` is then f0, an
    ordinary register).  The factory binds an instruction's operand
    fields and returns its closure: a per-pc one, whose values over the
    pc the factory computes once, or with *shared* one for every pc
    holding the encoding.  A shared closure computes its values over the
    pc on each run, reading ``pc = m.pc`` first, and advances with
    ``m.pc += ilen`` when it writes no target."""
    t = _ClosureTarget()
    lw = Lowering(semantics_for(mnemonic), t, zero=("rd",) if rd_zero
                  else ())
    body = t.body
    for base, off, size, val in lw.stores:
        addr = lw.value(lw.binop("add", t.reg(base), off))
        body.append(f"si({addr.src}, {size}, {lw.value(val).src})")
    writes = [(f"x[{r}]", lw.value(v)) for r, v in lw.writes]
    writes += [(f"fr[{r}]", lw.value(v)) for r, v in lw.fwrites]
    pc = "next_pc"
    if lw.target is not None:
        pc = lw.value(lw.target).src
        if lw.cond is not None:
            cond = t.hoist(lw.cond) if lw.cond.static else lw.cond
            pc = f"{pc} if {cond.src} else next_pc"
        if writes and not lw.target.static:
            body.append(f"t = {pc}")  # read before the writes land
            pc = "t"
    body += [f"{r} = {v.src}" for r, v in writes]
    prologue = t.prologue
    advance = f"m.pc = {pc}"
    if not shared:
        prologue = ["next_pc = pc + ilen", *prologue]
    else:
        # the values over the pc move into run(), which reads it first
        per_pc = [ln for ln in prologue if _READS_PC.search(ln)]
        prologue = [ln for ln in prologue if ln not in per_pc]
        if pc == "next_pc":
            advance = "m.pc += ilen"
        elif "next_pc" in "\n".join([*body, pc]):
            per_pc.insert(0, "next_pc = pc + ilen")
        if per_pc:
            body = ["pc = m.pc", *per_pc, *body]
    src = "\n".join([
        "def __make__(m, pc, F, ilen, cost):",
        "    x = m.x",
        "    fr = m.f",
        "    ri = m.mem.read_int",
        "    si = m.mem.write_int",
        *[f"    {n} = F[{n!r}]" for n in lw.operands],
        *[f"    {ln}" for ln in prologue],
        "    def run():",
        *[f"        {ln}" for ln in body],
        f"        {advance}",
        "        m.ucycles += cost",
        "        m.instret += 1",
        "    return run",
    ])
    env = dict(HELPERS)
    exec(compile(src, f"<closure:{mnemonic}>", "exec"), env)
    return env["__make__"]


def lowered(instr: Instruction) -> bool:
    """Does *instr* run from its lowered IR, and so have a shared
    closure (``build_closure(m, None, instr)``)?"""
    mn = instr.mnemonic
    return mn != "fence.i" and semantics_for(mn) is not None


def build_closure(m: "Machine", pc: int | None,
                  instr: Instruction) -> Closure:
    """Compile one decoded instruction into an executable closure.

    The closure updates registers/memory/pc and charges cycle cost.
    Instructions with SAIL semantics run the closure their lowered IR
    builds: per pc, or shared by every pc holding the encoding when *pc*
    is ``None`` (only for :func:`lowered` instructions).  The rest are
    hand-written below, per pc.
    """
    mn = instr.mnemonic
    f = instr.fields
    length = instr.length
    cost = m.timing.ucycles(category_of(mn, instr.spec.match & 0x7F))

    if lowered(instr):
        return _factory(mn, f.get("rd") == 0, pc is None)(
            m, pc, f, length, cost)
    next_pc = pc + length

    def _finish_simple(body: Callable[[], None]) -> Closure:
        def run() -> None:
            body()
            m.pc = next_pc
            m.ucycles += cost
            m.instret += 1
        return run

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

    # ---- A extension: the reservation of lr/sc --------------------------
    if mn.startswith(("lr.", "sc.")):
        return _build_lrsc(m, mn, f, _finish_simple)

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


def _build_lrsc(m, mn, f, finish):
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
