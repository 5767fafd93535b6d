"""Patch-safe invalidation of compiled code (closures *and* traces).

Dynamic instrumentation rewrites code while it runs.  These tests patch
code mid-run through every channel — self-modifying stores, the
ProcControl debug port, breakpoint insertion, runtime instrumentation —
and check the subsequent execution observes the new code, with the
trace compiler enabled and disabled.  Both modes must also
agree on the full architectural outcome (registers, counters, stdout).
"""

import pytest

from repro.api import open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source, fib_source
from repro.patch import PointType
from repro.proccontrol import EventType, Process
from repro.riscv import assemble
from repro.riscv.encoder import encode
from repro.sim import Machine, P550, StopReason
from repro.sim.memory import Memory
from repro.sim.trace import HOT_THRESHOLD

MODES = [pytest.param(True, id="traced"),
         pytest.param(False, id="interp")]

#: encoding of ``addi a0, a0, <imm>`` — the replacement instructions the
#: tests patch in over an original ``addi a0, a0, 1``
def _addi_a0(imm: int) -> int:
    return encode("addi", rd=10, rs1=10, imm=imm)


def _machine(prog, trace_compile):
    m = Machine(P550, trace_compile=trace_compile)
    if trace_compile:
        # compile on first dispatch: these programs run far fewer than
        # HOT_THRESHOLD iterations, and the tests are about compiled code
        m.traces.hot_threshold = 1
    m.load_program(prog)
    return m


class TestSelfModifyingStores:
    @pytest.mark.parametrize("trace_compile", MODES)
    def test_store_patches_upcoming_instruction(self, trace_compile):
        """A store rewrites an instruction *later in the same
        straight-line run*; the new instruction must execute (the trace
        containing both was compiled from the old bytes)."""
        src = f"""
_start:
  la t0, target
  li t1, {_addi_a0(100):#x}
  li a0, 0
  sw t1, 0(t0)
target:
  addi a0, a0, 1
  li a7, 93
  ecall
"""
        m = _machine(assemble(src), trace_compile)
        ev = m.run()
        assert ev.reason is StopReason.EXITED
        assert ev.exit_code == 100  # not 1: the patched addi ran
        if trace_compile:
            assert m.traces.mega_compiles > 0

    @pytest.mark.parametrize("trace_compile", MODES)
    def test_store_patches_hot_loop_body(self, trace_compile):
        """Code already executed (and trace-compiled) is rewritten by a
        later iteration's store; following iterations run the new
        body."""
        src = f"""
_start:
  li a0, 0
  li t2, 0
  la t0, target
  li t1, {_addi_a0(10):#x}
loop:
target:
  addi a0, a0, 1
  addi t2, t2, 1
  li t4, 3
  bne t2, t4, skip
  sw t1, 0(t0)
skip:
  li t3, 6
  blt t2, t3, loop
  li a7, 93
  ecall
"""
        m = _machine(assemble(src), trace_compile)
        ev = m.run()
        assert ev.reason is StopReason.EXITED
        # iterations 1-3 add 1 each, the store fires at i==3,
        # iterations 4-6 add 10 each
        assert ev.exit_code == 3 + 30
        if trace_compile:
            assert m.traces.mega_compiles > 0

    @pytest.mark.parametrize("store", [
        pytest.param("la t5, target\n  sw t1, 0(t5)", id="constant"),
        pytest.param("sw t1, 0(t0)", id="fixed_base"),
        pytest.param("addi t5, t0, 4\n  sw t1, -4(t5)", id="written_base"),
        pytest.param("amoswap.w t6, t1, (t0)", id="amoswap"),
    ])
    def test_store_forms_patch_hot_loop_body(self, store):
        """As above, but the loop's store reaches the code through a
        constant address, a base the trace never writes, a base it
        writes, or an AMO, whose ``rd`` must hold the old word after the
        trace leaves at the store: the trace and the interpreter agree,
        and the trace deopts."""
        src = f"""
_start:
  li a0, 0
  li t2, 0
  la t0, target
  li t1, {_addi_a0(10):#x}
loop:
target:
  addi a0, a0, 1
  addi t2, t2, 1
  li t4, 3
  bne t2, t4, skip
  {store}
skip:
  li t3, 6
  blt t2, t3, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        runs = []
        for tc in (True, False):
            m = _machine(prog, tc)
            ev = m.run()
            assert ev.reason is StopReason.EXITED
            # iterations 1-3 add 1 each, the store fires at i==3,
            # iterations 4-6 add 10 each
            assert ev.exit_code == 3 + 30
            runs.append(m)
        traced, interp = runs
        assert traced.traces.mega_compiles > 0
        assert traced.traces.deopt_count[0] > 0
        assert TestTierPolicy._state(traced) == TestTierPolicy._state(interp)
        if store.startswith("amoswap"):
            assert traced.x[31] == _addi_a0(1)

    def test_modes_agree_on_counts(self):
        """Self-modifying run: identical instret/ucycles traced vs not."""
        src = f"""
_start:
  li a0, 0
  li t2, 0
  la t0, target
  li t1, {_addi_a0(7):#x}
loop:
target:
  addi a0, a0, 1
  addi t2, t2, 1
  li t4, 2
  bne t2, t4, skip
  sw t1, 0(t0)
skip:
  li t3, 5
  blt t2, t3, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        runs = []
        for tc in (True, False):
            m = _machine(prog, tc)
            ev = m.run()
            runs.append((ev.exit_code, m.instret, m.ucycles, m.x, m.pc))
            if tc:
                assert m.traces.mega_compiles > 0
        assert runs[0] == runs[1]


class TestDebugPortPatching:
    @pytest.mark.parametrize("trace_compile", MODES)
    def test_patch_at_breakpoint_mid_run(self, trace_compile):
        """Stop a hot loop at a breakpoint, rewrite an instruction the
        loop (and its compiled traces) already executed, continue: the
        remaining iterations must run the new code."""
        src = """
_start:
  li a0, 0
  li t0, 0
loop:
  addi t0, t0, 1
patch_me:
  addi a0, a0, 1
  li t4, 2
  bne t0, t4, cont
trigger:
  nop
cont:
  li t3, 5
  blt t0, t3, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        m = _machine(prog, trace_compile)
        proc = Process.attach(m)
        proc.insert_breakpoint(prog.symbol("trigger").address)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert m.x[10] == 2  # two iterations of the original body ran

        patch_addr = prog.symbol("patch_me").address
        proc.write_memory(patch_addr, _addi_a0(10).to_bytes(4, "little"))
        proc.remove_breakpoint(patch_addr)  # no-op; bp is at trigger
        proc.remove_breakpoint(prog.symbol("trigger").address)

        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        # iterations 3-5 ran the patched body
        assert ev.exit_code == 2 + 3 * 10
        if trace_compile:
            assert m.traces.mega_compiles > 0

    @pytest.mark.parametrize("trace_compile", MODES)
    def test_breakpoint_inserted_into_compiled_loop(self, trace_compile):
        """Breakpoint insertion is itself a code write: planting one in
        a loop that already ran (so its traces exist) must fire on the
        next iteration, not execute a stale block past it."""
        src = """
_start:
  li a0, 0
  li t0, 0
loop:
  addi t0, t0, 1
body:
  addi a0, a0, 1
  li t3, 2
  bne t0, t3, cont
mid:
  nop
cont:
  li t4, 6
  blt t0, t4, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        m = _machine(prog, trace_compile)
        proc = Process.attach(m)
        proc.insert_breakpoint(prog.symbol("mid").address)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT

        # the loop body's traces are hot now; plant a breakpoint inside
        body = prog.symbol("body").address
        proc.insert_breakpoint(body)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert ev.pc == body
        assert m.x[5] == 3  # t0: stopped in iteration 3, before the addi

        proc.remove_breakpoint(body)
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert ev.exit_code == 6
        if trace_compile:
            assert m.traces.mega_compiles > 0

    @pytest.mark.parametrize("trace_compile", MODES)
    def test_breakpoint_inserted_into_resident_megatrace(self,
                                                         trace_compile):
        """The loop runs past HOT_THRESHOLD, so its head roots a
        resident looping trace when the run stops outside it; planting
        a breakpoint on the loop body must drop the trace and fire on
        the first iteration of the next pass.  The ``j loop`` makes
        each pass enter through the loop head, where the trace is
        bound."""
        src = """
_start:
  li a0, 0
  li s1, 0
outer:
  li t0, 0
  j loop
loop:
  addi t0, t0, 1
body:
  addi a0, a0, 1
  li t4, 64
  blt t0, t4, loop
  call between
  addi s1, s1, 1
  li t5, 2
  blt s1, t5, outer
  li a7, 93
  ecall
between:
  nop
  ret
"""
        prog = assemble(src)
        ref = _machine(prog, False).run()
        m = _machine(prog, trace_compile)
        proc = Process.attach(m)
        between = prog.symbol("between").address
        proc.insert_breakpoint(between)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert ev.pc == between
        if trace_compile:
            assert m.traces.mega_compiles > 0

        invalidations = m.traces.invalidations
        body = prog.symbol("body").address
        proc.insert_breakpoint(body)
        if trace_compile:
            assert m.traces.invalidations > invalidations
        proc.remove_breakpoint(between)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert ev.pc == body
        assert m.x[9] == 1  # s1: second pass
        assert m.x[5] == 1  # t0: its first iteration, before the addi

        proc.remove_breakpoint(body)
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert ev.exit_code == ref.exit_code == 128
        if trace_compile:
            assert m.traces.mega_compiles > 0


class TestRuntimeInstrumentation:
    def _attach_run(self, trace_compile):
        """Dynamic attach: run to the first fib call (compiling traces
        over the whole program), install entry counters mid-run, finish.
        The springboard install must invalidate the compiled blocks."""
        b = open_binary(compile_source(fib_source(9)))
        m = Machine(P550, trace_compile=trace_compile)
        if trace_compile:
            m.traces.hot_threshold = 1  # compile before the first call
        b.symtab.load_into(m)
        proc = Process.attach(m, b.symtab)
        fib_entry = b.function("fib").entry
        proc.insert_breakpoint(fib_entry)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        proc.remove_breakpoint(fib_entry)

        c = b.allocate_variable("entries")
        b.insert(b.points("fib", PointType.FUNC_ENTRY), IncrementVar(c))
        proc2 = b.attach_and_instrument(m)
        ev = proc2.continue_to_event()
        assert ev.type is EventType.EXITED
        count = b.read_variable(m, c)
        assert count > 0
        if trace_compile:
            assert m.traces.mega_compiles > 0
        return count, m.exit_code, m.instret, m.ucycles

    @pytest.mark.parametrize("trace_compile", MODES)
    def test_attach_and_instrument_mid_run(self, trace_compile):
        self._attach_run(trace_compile)

    def test_attach_modes_agree(self):
        assert self._attach_run(True) == self._attach_run(False)


class TestTraceCacheInternals:
    def _hot_machine(self):
        """A machine stopped at a breakpoint with loop traces compiled."""
        src = """
_start:
  li a0, 0
  li t0, 0
loop:
  addi t0, t0, 1
  addi a0, a0, 1
  li t3, 2
  bne t0, t3, cont
mid:
  nop
cont:
  li t4, 6
  blt t0, t4, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        m = _machine(prog, True)
        proc = Process.attach(m)
        proc.insert_breakpoint(prog.symbol("mid").address)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert m.traces.mega_compiles > 0
        return m, prog, proc

    def test_write_mem_drops_overlapping_traces(self):
        m, prog, _ = self._hot_machine()
        assert m.traces.fns, "loop should have compiled traces"
        target = prog.symbol("loop").address
        before = dict(m.traces.fns)
        m.write_mem(target, _addi_a0(0).to_bytes(4, "little"))
        assert all(e >= target + 4 or e < target - 3 + 1
                   for e in m.traces.fns
                   if e in before) or target not in m.traces.fns

    def test_invalidation_severs_chain_links(self):
        """A trace reaches another only through ``fns``, so dropping
        one from it is the whole of invalidation: no surviving trace
        may still run the dropped one (the name is kept from when
        exits chained through cells that invalidation severed)."""
        m, prog, proc = self._hot_machine()
        target = prog.symbol("loop").address
        m.invalidate_code_range(target, 4)
        # simply finishing the run proves no exit reached the dropped
        # trace (a stale call would run old code or crash)
        proc.remove_breakpoint(prog.symbol("mid").address)
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert ev.exit_code == 6

    def test_flush_icache_clears_traces(self):
        m, _, _ = self._hot_machine()
        assert m.traces.fns
        m.flush_icache()  # fence.i semantics: full flush
        assert not m.traces.fns

    def test_negative_entries_are_invalidated_too(self):
        """A pc rejected by the trace compiler (e.g. an ebreak planted
        by a breakpoint) is negatively cached; rewriting it must drop
        the negative entry so the new instruction compiles."""
        m, prog, proc = self._hot_machine()
        mid = prog.symbol("mid").address
        # 'mid' currently holds the breakpoint's ebreak -> negative entry
        assert m.traces.fns.get(mid) is False
        proc.remove_breakpoint(mid)  # restores the nop (a code write)
        assert mid not in m.traces.fns
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert ev.exit_code == 6


class TestObserverTraceCacheInteraction:
    """Event-stream observers (repro.telemetry.events) vs the trace
    cache: attach/detach must invalidate or deoptimise compiled traces
    per the observer-overhead rule (docs/INTERNALS.md) and never
    perturb architectural state."""

    SRC = fib_source(10)

    def _baseline(self):
        prog = compile_source(self.SRC)
        m = _machine(prog, True)
        ev = m.run()
        assert ev.reason is StopReason.EXITED
        assert m.traces.mega_compiles > 0
        return prog, m

    def _state(self, m):
        return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
                bytes(m.stdout))

    def test_attach_block_observer_flushes_compiled_traces(self):
        from repro.telemetry.events import EventStream

        prog, _ = self._baseline()
        m = _machine(prog, True)
        m.run()  # compiles traces (no block-enter emits inside)
        assert m.traces.fns
        es = EventStream(granularity="block")
        m.attach_observer(es)
        assert not m.traces.fns, \
            "block observer needs traces recompiled with embedded emits"
        m.detach_observer(es)
        assert not m.traces.fns, \
            "detach must drop traces that carry stale emit bindings"

    def test_attach_instruction_observer_keeps_traces(self):
        from repro.telemetry.events import EventStream

        prog, _ = self._baseline()
        m = _machine(prog, True)
        m.run()
        compiled = dict(m.traces.fns)
        es = EventStream()
        m.attach_observer(es)
        assert m.traces.fns == compiled, \
            "instruction observer deopts dispatch; traces stay cached"
        m.detach_observer(es)
        assert m.traces.fns == compiled

    @pytest.mark.parametrize("granularity", ["instruction", "block"])
    def test_mid_run_attach_detach_preserves_state(self, granularity):
        """Run A: plain.  Run B: stop at a breakpoint mid-run, attach an
        observer, continue, detach at a second stop, finish.  Both runs
        must agree bit-for-bit on the architectural outcome."""
        from repro.telemetry.events import EventStream

        prog, plain = self._baseline()
        m = _machine(prog, True)
        proc = Process.attach(m)
        fib = prog.symbol("fib").address
        proc.insert_breakpoint(fib)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        es = EventStream(granularity=granularity)
        m.attach_observer(es)
        ev = proc.continue_to_event()  # runs observed
        assert ev.type is EventType.STOPPED_BREAKPOINT
        m.detach_observer(es)
        proc.remove_breakpoint(fib)
        ev = proc.continue_to_event()  # runs unobserved again
        assert ev.type is EventType.EXITED
        assert self._state(m) == self._state(plain)
        assert len(es) > 0, "the observed stretch must have emitted"

    def test_block_events_only_from_observed_stretch(self):
        """Events emitted while attached; silence before and after."""
        from repro.telemetry.events import BLOCK, EventStream

        prog, _ = self._baseline()
        m = _machine(prog, True)
        proc = Process.attach(m)
        fib = prog.symbol("fib").address
        proc.insert_breakpoint(fib)
        proc.continue_to_event()
        es = EventStream(granularity="block")
        m.attach_observer(es)
        proc.continue_to_event()
        m.detach_observer(es)
        seen = len(es)
        assert seen > 0
        assert all(e[0] == BLOCK for e in es)
        proc.remove_breakpoint(fib)
        proc.continue_to_event()
        assert len(es) == seen, "no events after detach"

    def test_self_modifying_store_invalidates_emitting_traces(self):
        """The PR-1 invalidation rules hold for traces that carry
        embedded block-enter emits: patched code re-fetches and the
        patched instruction's effect is observed."""
        from repro.telemetry.events import EventStream

        src = f"""
_start:
  la t0, target
  li t1, {_addi_a0(100):#x}
  li a0, 0
  sw t1, 0(t0)
target:
  addi a0, a0, 1
  li a7, 93
  ecall
"""
        m = _machine(assemble(src), True)
        es = EventStream(granularity="block")
        ev = m.run(trace=es)
        assert ev.reason is StopReason.EXITED
        assert ev.exit_code == 100
        assert len(es) > 0
        assert m.traces.mega_compiles > 0


class TestTierPolicy:
    """Cold code runs on the closure interpreter; a trace is rooted at
    a pc once it has been dispatched ``hot_threshold`` times, so a hot
    loop's head roots a looping trace.  Every mix of interpreted and
    compiled code must match the interpreter bit for bit."""

    @staticmethod
    def _loop_src(iterations: int) -> str:
        return f"""
_start:
  li a0, 0
  li t0, 0
  addi sp, sp, -16
loop:
  addi t0, t0, 1
  sd t0, 8(sp)
  ld t1, 8(sp)
  add a0, a0, t1
  call bump
  li t3, {iterations}
  blt t0, t3, loop
  li a7, 93
  ecall
bump:
  addi a0, a0, 3
  ret
"""

    @staticmethod
    def _state(m):
        return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
                bytes(m.stdout), m.mem.mapped_pages(),
                {idx: bytes(pg) for idx, pg in m.mem._pages.items()})

    def _run_both(self, prog):
        """(traced machine at the default threshold, interpreter)."""
        runs = []
        for tc in (True, False):
            m = Machine(P550, trace_compile=tc)
            m.load_program(prog)
            assert m.run().reason is StopReason.EXITED
            runs.append(m)
        return runs

    def test_cold_program_never_compiles(self):
        traced, interp = self._run_both(
            assemble(self._loop_src(HOT_THRESHOLD - 1)))
        assert traced.traces.hot_threshold == HOT_THRESHOLD
        assert traced.traces.mega_compiles == 0
        assert self._state(traced) == self._state(interp)

    def test_hot_loop_roots_a_trace_at_its_head(self):
        prog = assemble(self._loop_src(3 * HOT_THRESHOLD))
        traced, interp = self._run_both(prog)
        assert traced.traces.mega_compiles > 0
        assert traced.traces.fns.get(prog.symbol("loop").address)
        assert self._state(traced) == self._state(interp)

    @pytest.mark.parametrize("patch_at", [HOT_THRESHOLD - 1,
                                          HOT_THRESHOLD,
                                          HOT_THRESHOLD + 1])
    def test_store_patches_loop_at_cold_to_warm_edge(self, patch_at):
        """The loop head roots a trace on iteration ``HOT_THRESHOLD``; a
        store rewriting the loop body just before, on, or just after
        that iteration must take effect on the next iteration."""
        n = 3 * HOT_THRESHOLD
        src = f"""
_start:
  li a0, 0
  li t2, 0
  la t0, target
  li t1, {_addi_a0(10):#x}
loop:
target:
  addi a0, a0, 1
  addi t2, t2, 1
  li t4, {patch_at}
  bne t2, t4, skip
  sw t1, 0(t0)
skip:
  li t3, {n}
  blt t2, t3, loop
  li a7, 93
  ecall
"""
        traced, interp = self._run_both(assemble(src))
        assert traced.x[10] == patch_at + 10 * (n - patch_at)
        assert traced.traces.mega_compiles > 0
        # the store drops a compiled loop trace only once the head is
        # warm: on iteration HOT_THRESHOLD it compiled just before
        assert (traced.traces.invalidations > 0) == \
            (patch_at >= HOT_THRESHOLD)
        assert self._state(traced) == self._state(interp)

    def test_flush_resets_dispatch_counts(self):
        m = Machine(P550, trace_compile=True)
        m.load_program(assemble(self._loop_src(HOT_THRESHOLD - 1)))
        m.run()
        assert m.traces.dispatches
        m.flush_icache()
        assert not m.traces.dispatches

    def test_block_observer_compiles_cold_code(self):
        """Block-enter events come from the instruction that transfers
        control, on either tier, so a block observer compiles only warm
        code: a loop that stays under the threshold compiles nothing,
        and the events match the interpreter's one for one."""
        from repro.telemetry.events import BLOCK, EventStream

        prog = assemble(self._loop_src(HOT_THRESHOLD - 1))
        streams = []
        for tc in (True, False):
            m = Machine(P550, trace_compile=tc)
            m.load_program(prog)
            es = EventStream(granularity="block")
            assert m.run(trace=es).reason is StopReason.EXITED
            streams.append(es.events())
            if tc:
                assert m.traces.mega_compiles == 0
        traced, interp = streams
        assert traced and {e[0] for e in traced} == {BLOCK}
        assert traced == interp


class TestPageWatch:
    """The write watch is page-granular: a store reaches
    ``Memory._notify_write`` only when it touches a page holding part
    of an exec range, and ``_notify_write`` then checks the exact
    ranges.  The watched-page set is updated in place, so traces that
    bound it see ranges added after they compiled."""

    @staticmethod
    def _count_watch(monkeypatch, m):
        """(``_notify_write`` calls, watch-callback calls) from now on."""
        notified, fired = [], []
        notify = Memory._notify_write

        def counting_notify(self, addr, n):
            notified.append(addr)
            notify(self, addr, n)

        def counting_cb(addr, n):
            fired.append(addr)
            m._code_written(addr, n)

        monkeypatch.setattr(Memory, "_notify_write", counting_notify)
        m.mem._watch_cb = counting_cb
        return notified, fired

    def test_pages_of_each_range(self):
        mem = Memory()
        pages = mem._watch_pages
        mem.set_write_watch([(0x10ff8, 0x11008), (0x30000, 0x30001)],
                            lambda a, n: None)
        assert mem._watch_pages is pages
        assert pages == {0x10, 0x11, 0x30}
        mem.set_write_watch([], None)
        assert mem._watch_pages is pages and not pages

    def test_write_bytes_checks_every_page_it_touches(self):
        mem = Memory()
        mem.map_region(0x1000, 0x3000)
        fired = []
        mem.set_write_watch([(0x3000, 0x3010)],
                            lambda a, n: fired.append((a, n)))
        mem.write_bytes(0x2ffc, bytes(8))  # data page into the code page
        mem.write_bytes(0x2000, bytes(8))  # data page only
        mem.write_int(0x3ff8, 8, 1)  # code page, outside the range
        assert fired == [(0x2ffc, 8)]

    def _hot_store_prog(self, store_to: str):
        return assemble(f"""
_start:
  li t0, 0
  li a0, 0
loop:
  la t1, {store_to}
  sd t0, 0(t1)
  add a0, a0, t0
  addi t0, t0, 1
  li t2, {3 * HOT_THRESHOLD}
  blt t0, t2, loop
  li a7, 93
  ecall
.data
slot:
  .dword 0
""")

    def test_data_store_between_exec_ranges(self, monkeypatch):
        """A hot loop stores into ``.data``, which lies between the
        text and a patch area: no notification, no invalidation."""
        prog = self._hot_store_prog("slot")
        patch_area = (0x40000, 0x40100)
        runs = []
        for tc in (True, False):
            m = _machine(prog, tc)
            m.add_exec_range(*patch_area)
            data_page = prog.symbol("slot").address >> 12
            text_page = prog.symbol("_start").address >> 12
            assert text_page < data_page < patch_area[0] >> 12
            notified, fired = self._count_watch(monkeypatch, m)
            assert m.run().reason is StopReason.EXITED
            assert not notified and not fired
            assert m.traces.invalidations == 0
            if tc:
                assert m.traces.mega_compiles > 0
            runs.append(TestTierPolicy._state(m))
        assert runs[0] == runs[1]

    def test_store_to_code_page_outside_every_range(self, monkeypatch):
        """The store lands on the text page, past the end of the text:
        it reaches ``_notify_write``, which finds no range and
        invalidates nothing."""
        prog = self._hot_store_prog("_start + 0x800")
        text_end = prog.text_base + len(prog.text)
        assert text_end <= prog.text_base + 0x800
        runs = []
        for tc in (True, False):
            m = _machine(prog, tc)
            notified, fired = self._count_watch(monkeypatch, m)
            assert m.run().reason is StopReason.EXITED
            assert len(notified) == 3 * HOT_THRESHOLD
            assert not fired
            assert m.traces.invalidations == 0
            if tc:
                assert m.traces.mega_compiles > 0
            runs.append(TestTierPolicy._state(m))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("trace_compile", MODES)
    def test_exec_range_added_under_a_resident_megatrace(self,
                                                         trace_compile):
        """The loop stores an instruction word into ``dcode`` by
        constant address and roots a resident looping trace when the
        run stops between passes; ``dcode`` then becomes code.  The
        next pass's first store, made by that trace, must invalidate
        the code compiled from ``dcode``, so the call after the loop
        runs the new instruction.  At the default threshold the outer
        loop (two passes) never roots a trace of its own, which would
        bind the watched pages after the range was added."""
        add1 = _addi_a0(1)
        add100 = _addi_a0(100)
        ret = encode("jalr", rd=0, rs1=1, imm=0)
        prog = assemble(f"""
_start:
  li a0, 0
  li s1, 0
outer:
  li s2, {add1:#x}
  beqz s1, go
  li s2, {add100:#x}
go:
  li t0, 0
  j loop
loop:
  la t3, dcode
  sw s2, 0(t3)
  addi t0, t0, 1
  li t4, {3 * HOT_THRESHOLD}
  blt t0, t4, loop
  la t5, dcode
  jalr ra, 0(t5)
  call between
  addi s1, s1, 1
  li t5, 2
  blt s1, t5, outer
  li a7, 93
  ecall
between:
  nop
  ret
.data
dcode:
  .word {add1:#x}
  .word {ret:#x}
""")
        states = []
        for tc in (trace_compile, False):
            m = Machine(P550, trace_compile=tc)
            m.load_program(prog)
            proc = Process.attach(m)
            between = prog.symbol("between").address
            proc.insert_breakpoint(between)
            ev = proc.continue_to_event()
            assert ev.type is EventType.STOPPED_BREAKPOINT
            assert m.x[10] == 1
            loop = prog.symbol("loop").address
            if tc:
                assert m.traces.fns.get(loop)
            invalidations = m.traces.invalidations
            dcode = prog.symbol("dcode").address
            m.add_exec_range(dcode, dcode + 8)
            proc.remove_breakpoint(between)
            ev = proc.continue_to_event()
            assert ev.type is EventType.EXITED
            assert ev.exit_code == 101
            if tc:
                assert m.traces.invalidations > invalidations
                assert m.traces.deopt_count[0] > 0
                assert m.traces.fns.get(prog.symbol("outer")
                                        .address) is None
            states.append(TestTierPolicy._state(m))
        assert states[0] == states[1]

    def test_rollback_restores_watched_pages(self):
        """A commit that fails after adding its trampoline range rolls
        the watched-page set back with ``exec_ranges``, in place."""
        from repro import faults
        from repro.faults import FaultPlan, InjectedFault

        b = open_binary(compile_source(fib_source(5)))
        c = b.allocate_variable("calls")
        b.insert(b.points("fib", PointType.FUNC_ENTRY), IncrementVar(c))
        result = b.commit()
        tramp = result.trampoline_base >> 12

        m = Machine(P550)
        b.symtab.load_into(m)
        pages = m.mem._watch_pages
        before = set(pages)
        assert tramp not in before
        with faults.active(FaultPlan(site="patch.txn.traps")):
            with pytest.raises(InjectedFault):
                result.apply_to_machine(m)
        assert m.mem._watch_pages is pages
        assert pages == before

        result.apply_to_machine(m)
        assert tramp in pages
