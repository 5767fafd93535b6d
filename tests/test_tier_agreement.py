"""Every execution tier agrees with the closure interpreter.

The MiniC workload suite runs unbounded on four engines: the closure
interpreter, superblocks only, megatraces compiling on first dispatch,
and the default hotness threshold.  Each run must leave the same
registers, FP registers, pc, ``instret``, ``ucycles``, stdout and
memory.  Superblock boundaries are pinned to the rule
``docs/INTERNALS.md`` states.  Hand-written programs fault inside
compiled code, and take paths on which a megatrace once ran the wrong
code.
"""

from __future__ import annotations

import pytest

from repro.api import open_binary
from repro.minicc import (
    Options, compile_source, crc_source, fib_source, linked_list_source,
    matmul_source, nbody_source, qsort_source, switch_source,
    tailcall_source,
)
from repro.riscv import assemble
from repro.riscv.decoder import DecodeError
from repro.sim import Machine, P550, StopReason
from repro.sim.memory import MemoryFault
from repro.sim.trace import MAX_BLOCK
from repro.tools import count_basic_blocks

#: workload -> (source, hot function, compile options)
WORKLOADS = {
    "matmul": (matmul_source(6, 2), "multiply", {}),
    "fib": (fib_source(12), "fib", {}),
    "switch": (switch_source(40), "dispatch", {}),
    "qsort": (qsort_source(32), "partition", {}),
    "nbody": (nbody_source(3, 6), "step", {}),
    "crc": (crc_source(64, 2), "checksum", {}),
    "list": (linked_list_source(24), "sum_list", {}),
    "tailcall": (tailcall_source(60), "odd_step", {"tail_calls": True}),
}

CONFIGS = [f"{w}-{build}-{inst}" for w in WORKLOADS
           for build in ("plain", "rvc") for inst in ("none", "bb")]

#: engine -> (Machine keywords, hot threshold or None for the default)
ENGINES = {
    "interp": ({"trace_compile": False}, None),
    "superblocks": ({"trace_compile": True, "megatraces": False}, 1),
    "megatraces": ({"trace_compile": True}, 1),
    "default": ({"trace_compile": True}, None),
}

_TRANSFERS = {"beq", "bne", "blt", "bge", "bltu", "bgeu", "jal", "jalr"}
_REFUSED = {"ecall", "ebreak", "fence", "fence.i"}


def _state(m):
    return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
            bytes(m.stdout),
            {i: bytes(p) for i, p in m.mem._pages.items() if any(p)})


def _run(load, engine):
    kwargs, hot = ENGINES[engine]
    m = Machine(P550, **kwargs)
    if hot is not None:
        m.traces.hot_threshold = hot
    load(m)
    return m, m.run()


@pytest.fixture(scope="module", params=CONFIGS)
def load(request):
    """Loader of one configuration: a workload, built plain or with
    RVC, with or without a counter at every block of its hot
    function."""
    name, build, inst = request.param.split("-")
    src, hot, opts = WORKLOADS[name]
    edit = open_binary(compile_source(
        src, Options(compress=build == "rvc", **opts)))
    if inst == "bb":
        count_basic_blocks(edit, hot)
    result = edit.commit()

    def into(m):
        edit.symtab.load_into(m)
        result.apply_to_machine(m)
    return into


def test_tiers_agree(load):
    ref, ev = _run(load, "interp")
    assert ev.reason is StopReason.EXITED
    for engine in ("superblocks", "megatraces", "default"):
        m, ev = _run(load, engine)
        assert ev.reason is StopReason.EXITED, engine
        assert _state(m) == _state(ref), engine
        if engine == "superblocks":
            assert m.traces.compiles > 0
            assert m.traces.mega_compiles == 0
        elif engine == "megatraces":
            assert m.traces.mega_compiles > 0


def _block_end(m, entry: int) -> int:
    """Where the superblock entered at *entry* ends: just after its
    first branch, ``jal`` or ``jalr``, after ``MAX_BLOCK``
    instructions, or just before the first instruction the compiler
    refuses (``entry + 4`` for a negative entry)."""
    pc = entry
    for _ in range(MAX_BLOCK):
        try:
            instr = m.traces._fetch(pc)
        except (DecodeError, MemoryFault):
            instr = None
        if instr is None or instr.mnemonic in _REFUSED \
                or instr.spec.extension in ("zicsr", "a"):
            return pc if pc != entry else entry + 4
        pc += instr.length
        if instr.mnemonic in _TRANSFERS:
            return pc
    return pc


def test_superblock_boundaries(load):
    m, ev = _run(load, "superblocks")
    assert ev.reason is StopReason.EXITED
    traces = list(m.traces._traces.values())
    assert traces
    for tr in traces:
        assert tr.kind == "super"
        assert tr.spans == [(tr.entry, _block_end(m, tr.entry))], \
            hex(tr.entry)


def _agree_on(prog, reason=StopReason.EXITED):
    """Run *prog* on every engine; all must stop for *reason* in the
    interpreter's state.  Returns the megatrace engine's machine."""
    runs = {engine: _run(lambda m: m.load_program(prog), engine)
            for engine in ENGINES}
    ref = runs["interp"][0]
    for engine, (m, ev) in runs.items():
        assert (ev.reason, ev.pc) == (reason, ref.pc), engine
        assert _state(m) == _state(ref), engine
    mega = runs["megatraces"][0]
    assert mega.traces.compiles > 0
    return mega


class TestFaults:
    """A fault inside compiled code leaves exactly the interpreter's
    state: register locals are spilled, constant and FP registers
    restored, and pc and counters point at the faulting load."""

    def test_load_fault_mid_superblock(self):
        """The load faults on the second pass through ``body``, after
        a constant write (``t0``), integer expressions (``t1``,
        ``s0``) and an FP write (``f1``) earlier in the same block."""
        prog = assemble("""
_start:
  li s1, 7
  fcvt.d.l f2, s1
  li t1, 3
  la a0, data
  li s0, 0
  j body
body:
  li t0, 5
  add t1, t1, s1
  fadd.d f1, f1, f2
  addi s0, s0, 1
  ld t2, 0(a0)
  add t3, t3, t2
  li t4, 0x100000
  add a0, a0, t4
  j body
.data
data:
  .dword 41
""")
        _agree_on(prog, StopReason.FAULT)

    def test_pointer_walks_off_the_stack_in_steady_state(self):
        """``a0`` climbs from ``sp`` one double word per iteration and
        leaves the stack in the ninth, well inside the megatrace's
        steady-state body."""
        prog = assemble("""
_start:
  mv a0, sp
  li s1, 0
  li t1, 1
  fcvt.d.l f2, t1
loop:
  ld t2, 0(a0)
  add s2, s2, t2
  sd s1, 0(a0)
  addi a0, a0, 8
  add s1, s1, t1
  fadd.d f1, f1, f2
  j loop
""")
        mega = _agree_on(prog, StopReason.FAULT)
        assert mega.traces.mega_compiles > 0


class TestWrongPath:
    """Paths on which a megatrace once ran the wrong code."""

    def test_jalr_exits_keep_their_own_guards(self):
        """The loop ``head`` ends in an indirect jump through ``a5``
        and becomes a megatrace whose warm-up and steady-state bodies
        each exit through that jump.  ``a5`` is ``A`` for ten outer
        iterations, then ``B``.  Once the steady-state exit rebinds its
        inline cache to ``B``, the warm-up exit still chains to ``A``'s
        trace: one guard cell shared by both exits sent it there."""
        prog = assemble("""
_start:
  li s0, 0
  li s3, 0
  la s4, A
  la s5, B
outer:
  fence rw, rw
  li t3, 3
  mv a5, s4
  li t4, 10
  blt s0, t4, phase1
  mv a5, s5
  li t4, 90
  blt s0, t4, go
  li t3, 1
  j go
phase1:
  andi t5, s0, 1
  beqz t5, go
  li t3, 1
go:
  li t0, 0
  j head
head:
  addi t0, t0, 1
  blt t0, t3, head
  jalr x0, 0(a5)
A:
  addi s3, s3, 1
  j next
B:
  addi s3, s3, 100
next:
  addi s0, s0, 1
  li t4, 100
  blt s0, t4, outer
  mv a0, s3
  li a7, 93
  ecall
""")
        mega = _agree_on(prog)
        assert mega.x[19] == 9010  # s3

    def test_fallback_bodies_keep_their_pcs(self):
        """``beq t2, zero, A`` folds in the steady state (``t2`` is 0
        there) but not in the warm-up, so the two bodies call the
        executor's ``fcvt.d.l`` for different pcs; each must call its
        own."""
        prog = assemble("""
_start:
  li s0, 0
outer:
  fence rw, rw
  li t2, 1
  li t0, 0
  j loop
loop:
  beq t2, zero, A
  fcvt.d.l f1, s0
  j B
A:
  fcvt.d.l f3, t0
B:
  li t2, 0
  addi t0, t0, 1
  li t3, 10
  blt t0, t3, loop
  addi s0, s0, 1
  li s1, 5
  blt s0, s1, outer
  li a7, 93
  ecall
""")
        mega = _agree_on(prog)
        assert mega.f[1] == 0x4010000000000000  # 4.0

    def test_fp_destination_keeps_the_link_constant(self):
        """``fcvt.d.l f1`` writes an FP register: ``ra`` (``x1``) stays
        the constant ``jal`` set, so the megatrace follows ``ret`` back
        into the loop instead of leaving through a guarded exit on
        every iteration."""
        prog = assemble("""
_start:
  li s0, 0
loop:
  jal ra, f
  addi s0, s0, 1
  li t0, 200
  blt s0, t0, loop
  li a7, 93
  ecall
f:
  fcvt.d.l f1, s0
  ret
""")
        mega = _agree_on(prog)
        assert mega.traces.jalr_hits[0] < 10


#: loop bodies mixing integer and FP accesses to the same bytes; each
#: runs 200 times inside :data:`_MIXED`, so the default threshold
#: reaches megatraces too.  ``f2`` holds 3.0, ``f9`` 1.0f, and ``s2``
#: points at page offset 4092, 8 KiB below the stack frame.
MIXED = {
    # an integer store, then a double load of the same slot
    "sd-then-fld": """
  li t1, 0x4000000000000000
  add t0, t1, s0
  sd t0, 0(sp)
  fld f3, 0(sp)
  fadd.d f4, f4, f3
""",
    # a double store over a forwarded integer, then integer reloads:
    # the whole slot and its upper half
    "fsd-then-ld": """
  ld t1, 0(sp)
  lw t4, 12(sp)
  fadd.d f5, f5, f2
  fsd f5, 0(sp)
  fsd f5, 8(sp)
  ld t2, 0(sp)
  lw t3, 12(sp)
  add a1, a1, t2
  xor a2, a2, t1
  add a3, a3, t3
  xor a4, a4, t4
""",
    # a word store into half of a double slot, then a double load
    "sw-into-double-then-fld": """
  fadd.d f5, f5, f2
  fsd f5, 16(sp)
  sw s0, 20(sp)
  fld f6, 16(sp)
  fadd.d f7, f7, f6
  fsd f7, 48(sp)
""",
    # singles beside (and inside) a double slot
    "flw-fsw-beside-fsd": """
  fadd.d f5, f5, f2
  fsd f5, 24(sp)
  flw f8, 32(sp)
  fadd.s f8, f8, f9
  fsw f8, 32(sp)
  flw f10, 32(sp)
  fld f11, 24(sp)
  fadd.d f12, f12, f11
  fsw f8, 28(sp)
  fld f13, 24(sp)
  fadd.d f12, f12, f13
""",
    # a double straddling two pages: the slow path only
    "double-across-pages": """
  fld f14, 0(s2)
  fadd.d f14, f14, f2
  fsd f14, 0(s2)
  ld t0, 0(s2)
  add a1, a1, t0
  lw t1, 4(s2)
  add a2, a2, t1
""",
    # a double at a constant address in .data
    "constant-double": """
  la t0, dval
  fld f15, 0(t0)
  fadd.d f15, f15, f2
  fsd f15, 0(t0)
  ld t1, 0(t0)
  xor a1, a1, t1
""",
    # signalling-NaN and payload-NaN patterns copied by fld/fsd
    "nan-copies": """
  la t0, nans
  andi t1, s0, 3
  slli t1, t1, 3
  add t2, t0, t1
  fld f16, 0(t2)
  fsd f16, 32(t2)
  fld f17, 32(t2)
  fsd f17, 40(sp)
  ld t3, 40(sp)
  xor a5, a5, t3
  fld f18, 8(t0)
  fsd f18, 56(t0)
  fsd f18, 8(sp)
""",
}

_MIXED = """
_start:
  addi sp, sp, -64
  li s0, 0
  li t6, 3
  fcvt.d.l f2, t6
  li t6, 1
  fcvt.s.l f9, t6
  li t6, -8192
  add s2, sp, t6
  srli s2, s2, 12
  slli s2, s2, 12
  addi s2, s2, -4
loop:
{body}
  addi s0, s0, 1
  li t5, 200
  blt s0, t5, loop
  li a7, 93
  ecall
.data
dval:
  .dword 0x3ff8000000000000
nans:
  .dword 0x7ff0000000000001, 0x7ff4000000000abc
  .dword 0xfff8000000000123, 0x7ff8000000000000
copies:
  .zero 32
"""


@pytest.mark.parametrize("case", sorted(MIXED))
def test_mixed_memory_accesses(case):
    """Integer and FP accesses to the same bytes, page-crossing and
    constant-address doubles, and NaN bit patterns leave the same
    state on every engine."""
    mega = _agree_on(assemble(_MIXED.format(body=MIXED[case])))
    assert mega.traces.mega_compiles > 0
