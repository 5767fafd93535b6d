"""Alias classes of the trace JIT's store-to-load forwarding.

A looping trace keeps loaded and stored values in Python locals and forwards
them to later loads of the same address.  A constant-address store (an
instrumentation counter in ``.dyninst.data``) keeps the forwarded values
of an ``sp``-relative stack slot, and a store through ``sp`` keeps the
constant ones, as long as the trace never writes ``sp``; an entry guard
checks that ``sp``'s accesses miss the constant addresses and, when they
do not, the trace is replaced by one compiled with no such assumption.

Every run here is compared with the closure interpreter: registers, the
bytes of every mapped page, pc, ``instret``, ``ucycles`` and stdout.
"""

from __future__ import annotations

import io
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.sim.machine as machine_mod
from repro import telemetry
from repro.api import open_binary
from repro.minicc import compile_source
from repro.minicc.workloads import matmul_source
from repro.parse import natural_loops
from repro.riscv import assemble
from repro.sim import Machine, P550, StopReason
from repro.sim.memory import Memory
from repro.tools import count_basic_blocks


def _state(m):
    mem = m.mem
    return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
            bytes(m.stdout), set(mem._pages) | mem._reserved,
            {i: bytes(p) for i, p in mem._pages.items() if any(p)})


def _run_pair(prog):
    """(traced machine compiling on first dispatch, interpreter)."""
    runs = []
    for tc in (True, False):
        m = Machine(P550, trace_compile=tc)
        if tc:
            m.traces.hot_threshold = 1
        m.load_program(prog)
        assert m.run().reason is StopReason.EXITED
        runs.append(m)
    traced, interp = runs
    assert traced.traces.mega_compiles > 0
    assert _state(traced) == _state(interp)
    return traced


def _guarded(fn) -> bool:
    """Does compiled trace *fn* carry an alias entry guard?"""
    return "AG" in fn.__code__.co_varnames


_EXIT = """
  li a7, 93
  ecall
"""

#: a constant-address double word with room for stack slots either side
_DATA = """
.data
  .zero 128
cbuf:
  .dword 0x1111111111111111
  .zero 128
"""


#: ``sp`` points at the counter, so the constant store really rewrites
#: the stack slot the loop re-reads
_SP_ON_COUNTER = f"""
_start:
  la sp, cbuf
  addi sp, sp, -8
  li t0, 0
  li a0, 0
loop:
  ld t1, 8(sp)
  addi t1, t1, 1
  sd t1, 8(sp)
  la t2, cbuf
  ld t3, 0(t2)
  addi t3, t3, 1
  sd t3, 0(t2)
  ld t4, 8(sp)
  add a0, a0, t4
  addi t0, t0, 1
  li t5, 100
  blt t0, t5, loop
{_EXIT}{_DATA}"""


class TestGuard:
    def test_sp_in_counter_page_fails_the_guard(self):
        """The guard fails on the first entry, and the conservative
        trace runs the loop."""
        prog = assemble(_SP_ON_COUNTER)
        traced = _run_pair(prog)
        assert traced.traces.alias_guard_misses == 1
        # a straight-line trace at _start, the guarded loop trace, and
        # its conservative replacement
        assert traced.traces.mega_compiles == 3
        head = traced.traces.fns[prog.symbol("loop").address]
        assert not _guarded(head)

    def test_guard_miss_telemetry(self):
        m = Machine(P550, trace_compile=True)
        m.traces.hot_threshold = 1
        m.load_program(assemble(_SP_ON_COUNTER))
        report = io.StringIO()
        with telemetry.enabled() as rec:
            assert m.run(report=report).reason is StopReason.EXITED
        counters = rec.snapshot()["counters"]
        assert counters["sim.trace.alias_guard_misses"] == 1
        # _start, the guarded loop trace, its conservative replacement
        assert counters["sim.trace.megatraces_compiled"] == 3
        assert "alias_guard_misses=1" in report.getvalue()

    def test_disjoint_sp_keeps_the_guarded_trace(self):
        prog = assemble(f"""
_start:
  li t0, 0
  li a0, 0
  sd zero, 8(sp)
loop:
  ld t1, 8(sp)
  addi t1, t1, 1
  sd t1, 8(sp)
  la t2, cbuf
  ld t3, 0(t2)
  addi t3, t3, 1
  sd t3, 0(t2)
  ld t4, 8(sp)
  add a0, a0, t4
  addi t0, t0, 1
  li t5, 100
  blt t0, t5, loop
{_EXIT}{_DATA}""")
        traced = _run_pair(prog)
        assert traced.traces.alias_guard_misses == 0
        assert _guarded(traced.traces.fns[prog.symbol("loop").address])

    def test_loop_advancing_its_base_into_the_constant_store(self):
        """``s0`` walks a buffer, one double word per iteration; the
        constant store hits the slot ``s0`` reaches in iteration 5.  The
        loop writes ``s0``, so its slots are not assumed disjoint: the
        re-read after the constant store must see the stored value."""
        prog = assemble(f"""
_start:
  la s0, buf
  li t0, 0
  li a0, 0
loop:
  ld t1, 0(s0)
  la t2, buf + 32
  addi t6, t0, 1000
  sd t6, 0(t2)
  ld t3, 0(s0)
  add a0, a0, t3
  slli a0, a0, 1
  add a0, a0, t1
  addi s0, s0, 8
  addi t0, t0, 1
  li t5, 12
  blt t0, t5, loop
{_EXIT}
.data
buf:
  .dword 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
""")
        traced = _run_pair(prog)
        assert traced.traces.alias_guard_misses == 0

    @pytest.mark.parametrize("delta", [0, 8, -4], ids=["alias", "adjacent",
                                                       "overlap4"])
    def test_fld_fsd_slot_against_constant_fsd(self, delta):
        """The floating-point forwarding table: a double stack slot kept
        in a float local across a constant-address ``fsd``."""
        prog = assemble(f"""
_start:
  la t2, cbuf
  addi sp, t2, {delta}
  li t0, 0
  li t6, 3
  fcvt.d.l f2, t6
  fcvt.d.l f4, t0
  fsd f4, 0(sp)
  fmv.d f6, f4
loop:
  fld f1, 0(sp)
  fadd.d f1, f1, f2
  fsd f1, 0(sp)
  la t2, cbuf
  fld f3, 0(t2)
  fadd.d f3, f3, f2
  fsd f3, 0(t2)
  fld f5, 0(sp)
  fadd.d f6, f6, f5
  addi t0, t0, 1
  li t5, 50
  blt t0, t5, loop
  fcvt.l.d a0, f6
{_EXIT}{_DATA}""")
        traced = _run_pair(prog)
        overlap = -8 < delta < 8
        assert (traced.traces.alias_guard_misses > 0) == overlap


_SIZES = st.sampled_from([4, 8])


@settings(max_examples=40, deadline=None)
@given(delta=st.integers(-64, 64), slot=_SIZES, store=_SIZES)
@example(delta=8, slot=8, store=8)     # adjacent above
@example(delta=-8, slot=8, store=8)    # adjacent below
@example(delta=4, slot=4, store=4)     # adjacent, word slot
@example(delta=7, slot=8, store=8)     # one byte overlaps
@example(delta=-7, slot=8, store=8)
@example(delta=3, slot=4, store=4)
@example(delta=-3, slot=4, store=8)
@example(delta=0, slot=4, store=8)     # slot fully inside the store
@example(delta=4, slot=4, store=8)
@example(delta=-2, slot=8, store=4)    # store fully inside the slot
def test_slot_offset_from_constant_store(delta, slot, store):
    """``sp`` placed *delta* bytes from a constant store of *store*
    bytes; the loop re-reads a *slot*-byte stack slot after it.  The
    guard fails exactly when the two byte ranges overlap."""
    ld = {4: "lw", 8: "ld"}
    sd = {4: "sw", 8: "sd"}
    prog = assemble(f"""
_start:
  la t2, cbuf
  addi sp, t2, {delta}
  li t0, 0
  li a0, 0
loop:
  {ld[slot]} t1, 0(sp)
  addi t1, t1, 3
  {sd[slot]} t1, 0(sp)
  la t2, cbuf
  {ld[store]} t3, 0(t2)
  addi t3, t3, 0x101
  {sd[store]} t3, 0(t2)
  {ld[slot]} t4, 0(sp)
  add a0, a0, t4
  xor a1, a1, t3
  addi t0, t0, 1
  li t5, 40
  blt t0, t5, loop
{_EXIT}{_DATA}""")
    traced = _run_pair(prog)
    overlap = delta < store and -delta < slot
    assert (traced.traces.alias_guard_misses > 0) == overlap


def _instrumented_matmul(n: int, reps: int):
    """``matmul_source(n, reps)`` with a counter at every block of
    ``multiply``: (loader, counter handle, header of ``multiply``'s
    innermost natural loop)."""
    edit = open_binary(compile_source(matmul_source(n, reps)))
    (inner,) = [loop for loop in natural_loops(
        edit.cfg.function_by_name("multiply")) if not loop.children]
    handle = count_basic_blocks(edit, "multiply")
    result = edit.commit()

    def load(m):
        edit.symtab.load_into(m)
        result.apply_to_machine(m)
    return load, handle, inner.header


class TestInstrumentedHotLoop:
    """A counter at every block of ``multiply``: the inner loop roots
    a looping trace at its header, in which the counter lives in a
    local, the stack slots stay forwarded, and each remaining access
    reads or writes its page in place, doubles as floats."""

    def test_counter_stays_in_locals(self, monkeypatch, trace_sources):
        calls = []
        write_int = Memory.write_int

        def counting_write_int(self, addr, size, value):
            if sys._getframe(1).f_code.co_name == "__mega__":
                calls.append(addr)
            return write_int(self, addr, size, value)

        monkeypatch.setattr(Memory, "write_int", counting_write_int)

        load, handle, header = _instrumented_matmul(8, 2)
        runs = []
        for tc in (True, False):
            m = Machine(P550, trace_compile=tc)
            load(m)
            assert m.run().reason is StopReason.EXITED
            runs.append(m)
        traced, interp = runs
        assert _state(traced) == _state(interp)
        assert handle.read(traced) > 1000

        counter = handle.variable.address
        assert traced.traces.mega_compiles > 0
        assert not [a for a in calls if counter <= a < counter + 8]

        # the inner loop's trace loops, and its steady-state body bumps
        # the counter yet reloads neither the counter nor a stack slot,
        # integer or double (``g<n> = F64(ri(a, 8))``)
        assert traced.traces.fns.get(header)
        src = trace_sources[f"<mega@{header:#x}>"]
        assert "while True:" in src
        body = src.split("while True:", 1)[1]
        assert f"PG({counter >> 12:#x})" in body
        assert f"ri({counter:#x}" not in body
        addr = None
        for line in body.splitlines():
            line = line.strip()
            if line.startswith("a = "):
                addr = line
            elif line.startswith(("w", "v", "g")) and "ri(a," in line:
                assert "r2" not in addr, addr
        # every access in the main path reads or writes the page in
        # place: no bytes, and doubles stay floats
        main = _main_path(body)
        for token in ("to_bytes", "FB(", "F64(", "B64("):
            assert not [ln for ln in main if token in ln], token
        assert any("Ud(pg, o)[0]" in line for line in main)

    def test_traces_run_the_hops_between_loops(self, monkeypatch,
                                               trace_sources):
        """At the default threshold the closure interpreter runs under
        1% of the instructions: traces run the loops and the hops
        between them.  Rooting traces by backward-transfer counts
        instead sees a back edge in every jump from a trampoline (they
        sit above ``.text``), roots each loop one instruction past its
        springboard, and leaves the hops to the interpreter.  The step
        count wraps every closure ``build_closure`` makes, per pc or
        shared per encoding; the cold code makes it above 0 (6,178)."""
        steps = [0]
        build = machine_mod.build_closure

        def counting_build(m, pc, instr):
            closure = build(m, pc, instr)

            def step():
                steps[0] += 1
                closure()
            return step

        monkeypatch.setattr(machine_mod, "build_closure", counting_build)
        load, _, header = _instrumented_matmul(12, 20)
        m = Machine(P550)
        load(m)
        assert m.run().reason is StopReason.EXITED
        assert 0 < steps[0] < 0.01 * m.instret, (steps[0], m.instret)
        assert m.traces.fns.get(header)
        assert "while True:" in trace_sources[f"<mega@{header:#x}>"]


def _main_path(body: str) -> list[str]:
    """The lines of a trace's steady-state loop (the source after
    its ``while True:``) that run on every iteration: nested blocks
    under an ``if`` (the ``ri``/``si`` slow paths and the exits) are
    left out, the ``else:`` fast paths kept."""
    lines = [ln for ln in body.splitlines() if ln.strip()]
    base = len(lines[0]) - len(lines[0].lstrip())
    main, skip = [], False
    for line in lines:
        depth = len(line) - len(line.lstrip())
        if depth < base:
            break  # the fault handler
        if depth == base:
            skip = line.lstrip().startswith("if ") and \
                line.rstrip().endswith(":")
            main.append(line)
        elif not skip:
            main.append(line)
    return main
