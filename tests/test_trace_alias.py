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
import re
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
from repro.sim.trace import TraceCache
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
        calls = _mega_calls(monkeypatch, "write_int")
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
        assert not [a for _, a in calls if counter <= a < counter + 8]

        # the inner loop's trace loops, and the main path of its loop
        # body (the inner loop itself) bumps the counter yet reloads
        # neither the counter nor a stack slot, integer or double
        # (``g<n> = F64(ri(a, 8))``): the pre-header loads them once per
        # entry
        assert traced.traces.fns.get(header)
        src = trace_sources[f"<mega@{header:#x}>"]
        assert "while True:" in src
        body = src.split("while True:", 1)[1]
        main = _main_path(body)
        assert not [ln for ln in main if f"ri({counter:#x}" in ln]
        # the counter's page is looked up once per entry, in the
        # prologue; the loop's main path writes it in place with no page
        # lookup, ``ri`` or ``si`` of its own
        page = counter >> 12
        prologue = src.split("    try:", 1)[0]
        assert f"pw_{page:x} = None if {page:#x} in WP else " \
            f"PG({page:#x})" in prologue
        for token in (f"PG({page:#x})", f"ri({counter:#x}",
                      f"si({counter:#x}"):
            assert not [ln for ln in main if token in ln], token
        assert any(f"P8(pw_{page:x}, {counter & 4095}, " in ln
                   for ln in main)
        # ``sp`` is never written, so a stack-slot reload would read
        # through the slot's entry locals (``ri(a2_28, 8)`` on the slow
        # path, ``U8(pr2_28_8, o2_28)[0]`` in place), and the main path
        # stores its slots in place through them; an access through a
        # written base builds its address inline (``a = ...``)
        for token in ("ri(a2_", "(pr2_"):
            assert not [ln for ln in main if token in ln], token
        assert any(re.search(r"P8\(pw2_\w+, o2_\w+, ", ln) for ln in main)
        # the branch paths (the middle and outer loops' code, which
        # return to the header) reload the counter or a slot only after
        # a store through a written base, which may alias them
        reloads = ("ri(a2_", "(pr2_", f"ri({counter:#x}", f"(pr_{page:x},")
        assert _reloads_before_aliasing_stores(body, reloads) == []
        assert [ln for ln in body.splitlines()
                if any(t in ln for t in reloads)]
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

    def test_main_path_has_no_dead_work(self, trace_sources):
        """The inner loop's main path tests ``code_dirty`` nowhere (only
        ``si`` can set it, and ``si`` runs off the main path), and never
        assigns a register local that nothing reads before its next
        assignment: no read, ``ip =`` (a fault or deopt site), exit
        branch or ``continue`` in between: an ``la`` that kept all its
        writes, ``r31 = 0x121ac; r31 = 0x12000; r31 = ...``, fails it."""
        load, _, header = _instrumented_matmul(8, 2)
        m = Machine(P550)
        load(m)
        assert m.run().reason is StopReason.EXITED
        assert m.traces.fns.get(header)
        src = trace_sources[f"<mega@{header:#x}>"]
        main = _main_path(src.split("while True:", 1)[1])
        assert not [ln for ln in main if "code_dirty" in ln]
        assert _dead_register_writes(main) == []
        assert [ln for ln in main if re.match(r"\s*r\d+ = ", ln)]

    def test_each_trace_is_emitted_once(self, monkeypatch):
        """Every base register the inner loops write is written before
        a store could let a forwarded value past it, so no trace of the
        instrumented matmul is re-emitted without an assumption: one
        emission per compiled trace, 2 of each (the trees of ``init``'s
        and ``multiply``'s loop nests)."""
        heads = []
        emit_mega = TraceCache._emit_mega

        def counting(self, head, assumed):
            heads.append(head)
            return emit_mega(self, head, assumed)

        monkeypatch.setattr(TraceCache, "_emit_mega", counting)
        load, _, header = _instrumented_matmul(12, 20)
        m = Machine(P550)
        load(m)
        assert m.run().reason is StopReason.EXITED
        assert header in heads
        assert len(heads) == m.traces.mega_compiles == 2

    def test_traces_run_the_hops_between_loops(self, monkeypatch,
                                               trace_sources):
        """At the default threshold the closure interpreter runs under
        1% of the instructions: traces run the loops and the hops
        between them.  Rooting traces by backward-transfer counts
        instead sees a back edge in every jump from a trampoline (they
        sit above ``.text``), roots each loop one instruction past its
        springboard, and leaves the hops to the interpreter.  The step
        count wraps every closure ``build_closure`` makes, per pc or
        shared per encoding; the cold code makes it above 0 (4,728)."""
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


def _mega_calls(monkeypatch, name: str) -> list[tuple[str, int]]:
    """``(trace code name, address)`` of every call compiled traces
    make to ``Memory.<name>`` (``read_int`` or ``write_int``): the
    slow paths."""
    calls = []
    method = getattr(Memory, name)

    def counting(self, addr, *args):
        code = sys._getframe(1).f_code
        if code.co_name == "__mega__":
            calls.append((code.co_filename, addr))
        return method(self, addr, *args)

    monkeypatch.setattr(Memory, name, counting)
    return calls


class TestEntryLookups:
    """A trace looks the page of every constant-address access, and of
    every access through a base register it never writes, up once per
    entry, in its prologue; a page local that is ``None`` (not created
    yet, left by the access, or watched) sends the access to
    ``ri``/``si``, after which the page is looked up again.  Each loop
    here sits after a ``fence``, which ends the trace at ``_start``, so
    the loop's own trace makes its first accesses."""

    def test_first_store_creates_the_stack_page(self, monkeypatch,
                                                trace_sources):
        """The stack page is reserved, not created, when the loop's
        trace is entered: its first store creates it through ``si``,
        and every later store writes it in place."""
        calls = _mega_calls(monkeypatch, "write_int")
        prog = assemble(f"""
_start:
  li t0, 0
  li a0, 0
  fence rw, rw
loop:
  addi t0, t0, 1
  sd t0, 0(sp)
  ld t1, 0(sp)
  add a0, a0, t1
  li t5, 40
  blt t0, t5, loop
{_EXIT}""")
        traced = _run_pair(prog)
        loop = prog.symbol("loop").address
        slot = traced.x[2]
        assert slot >> 12 in traced.mem._pages
        assert calls == [(f"<mega@{loop:#x}>", slot)]
        prologue = trace_sources[f"<mega@{loop:#x}>"].split("    try:")[0]
        assert "pw2_0_8 = PG(a2_0 >> 12)" in prologue

    def test_page_crossing_accesses_take_the_slow_path(self, monkeypatch):
        """An ``sp`` slot and a constant address that each straddle a
        page boundary: every store of either goes through ``si``."""
        writes = _mega_calls(monkeypatch, "write_int")
        reads = _mega_calls(monkeypatch, "read_int")
        sp_slot, const_slot = 0x7FFF_DFFC, 0x7FFF_CFFC
        prog = assemble(f"""
_start:
  li sp, {sp_slot:#x}
  li t0, 0
  li a0, 0
  fence rw, rw
loop:
  ld t1, 0(sp)
  addi t1, t1, 3
  sd t1, 0(sp)
  li t2, {const_slot:#x}
  ld t3, 0(t2)
  addi t3, t3, 5
  sd t3, 0(t2)
  add a0, a0, t1
  add a0, a0, t3
  addi t0, t0, 1
  li t5, 40
  blt t0, t5, loop
{_EXIT}""")
        traced = _run_pair(prog)
        assert traced.traces.alias_guard_misses == 0
        for slot in (sp_slot, const_slot):
            assert [a for _, a in writes].count(slot) == 40, hex(slot)
            assert slot in [a for _, a in reads], hex(slot)


def _main_path(body: str) -> list[str]:
    """The lines of a trace's loop body (the source after its
    ``while True:``) on its root path: nested blocks under an ``if``
    (the ``ri``/``si`` slow paths, the exits and the branch paths) are
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


def _dead_register_writes(main: list[str]) -> list[tuple[str, str]]:
    """Pairs of assignments to one register local in the main path
    *main* with nothing in between that could read the first: no read
    of the local, no ``ip =`` (a fault or deopt site, whose handler
    spills every local), no ``if`` block (an exit or a slow path) and no
    ``continue``."""
    unread: dict[str, str] = {}
    dead = []
    for line in main:
        text = line.strip()
        write = re.match(r"(r\d+) = (.*)", text)
        reads = write.group(2) if write else text
        for r in [r for r in unread if re.search(rf"\b{r}\b", reads)]:
            del unread[r]
        if text.startswith(("ip = ", "continue")) or (
                text.startswith("if ") and text.endswith(":")):
            unread.clear()
        if write:
            if write.group(1) in unread:
                dead.append((unread[write.group(1)], text))
            unread[write.group(1)] = text
    return dead


def _reloads_before_aliasing_stores(body: str, tokens) -> list[str]:
    """Lines of a loop body *body* that hold one of *tokens* (a slot
    reload) with no store through a written base (``... a >> 12 in
    WP:``, which may alias any slot) before them on their path: a line
    is on the path to a later one when no line in between sits at a
    lower indentation."""
    lines = [ln for ln in body.splitlines() if ln.strip()]
    depth = [len(ln) - len(ln.lstrip()) for ln in lines]
    stores = [i for i, ln in enumerate(lines) if "a >> 12 in WP:" in ln]
    return [ln for i, ln in enumerate(lines)
            if any(t in ln for t in tokens)
            and not any(j < i and min(depth[j:i + 1]) >= depth[j]
                        for j in stores)]
