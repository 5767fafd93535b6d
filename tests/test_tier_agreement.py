"""Every execution tier agrees with the closure interpreter.

The MiniC workload suite runs unbounded on five engines: the closure
interpreter, the trace JIT rooting traces on a pc's first dispatch, on
its second, and at the default hotness threshold, and a traced run
that never gets hot, so it runs wholly on the cold path's closures
shared per encoding.  Each run must
leave the same registers, FP registers, pc, ``instret``, ``ucycles``,
stdout and memory, and every engine must emit the interpreter's block
event stream, event for event; the traced engines must also hold the
interpreter's state each time a trace returns (``_lockstep``), so a
stale value spilled at an exit shows even when the program overwrites
it later.  However a run is sliced, into bounded
runs or single steps, it emits the unsliced run's stream at either
granularity.  At the default threshold, every innermost hot loop roots
a looping trace at its header, the rule ``docs/INTERNALS.md`` states.
Random MiniC programs with loops past the hot threshold agree on every
engine, plain and instrumented.  Every run is bounded in wall time, so
an engine that loops forever fails instead of hanging.  Hand-written
programs fault inside compiled code, take paths on which a trace once
ran the wrong code, run loops whose branches lead back to the trace's
root inside one trace tree, and reload slots constant stores wrote.  The cold path runs the
perfbench-shaped wide binary as the interpreter does, building one
closure per encoding where the interpreter builds one per pc, and
hand-written programs run one encoding at two pcs.
"""

from __future__ import annotations

import collections
import contextlib
import random
import signal
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sim.machine as machine_mod
from repro.api import open_binary
from repro.codegen.snippets import IncrementVar
from repro.minicc import (
    Options, compile_source, crc_source, fib_source, linked_list_source,
    matmul_source, nbody_source, qsort_source, switch_source,
    tailcall_source,
)
from repro.parse import natural_loops
from repro.patch.points import PointType
from repro.riscv import assemble
from repro.sim import Machine, P550, StopReason
from repro.sim.trace import HOT_THRESHOLD, MAX_NEST, TraceCache
from repro.telemetry.events import EventStream
from repro.tools import count_basic_blocks
from repro.tracing import block_heat

from strategies import minic_program
from test_trace_alias import _main_path

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

#: a hot threshold above any dispatch count: the traced run compiles
#: nothing and runs every instruction on its cold path
COLD = 1 << 62

#: engine -> (Machine keywords, hot threshold or None for the default).
#: Rooting traces on the second dispatch instead of the first moves
#: them: a function entered twice roots a straight-line entry trace, and
#: a loop runs its first iteration on the interpreter.
ENGINES = {
    "interp": ({"trace_compile": False}, None),
    "hot2": ({"trace_compile": True}, 2),
    "hot1": ({"trace_compile": True}, 1),
    "default": ({"trace_compile": True}, None),
    "cold": ({"trace_compile": True}, COLD),
}

#: the engines compared with the interpreter
TRACED = ("hot2", "hot1", "default", "cold")

#: workloads whose hot function has an innermost loop hot enough to
#: root a trace at the default threshold
LOOPING = {"matmul", "qsort", "nbody", "crc"}


def _state(m):
    return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
            bytes(m.stdout),
            {i: bytes(p) for i, p in m.mem._pages.items() if any(p)})


#: wall-time bound of one run: a traced run cannot carry a step budget,
#: so an engine bug that loops forever fails here instead of hanging
RUN_SECONDS = 60


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once *seconds* have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"run still going after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _arch(m):
    """The state the lockstep check compares: x and F registers, pc,
    counters and the bytes of every mapped page."""
    return (list(m.x), list(m.f), m.pc, m.instret, m.ucycles,
            {i: bytes(p) for i, p in m.mem._pages.items() if any(p)})


@contextlib.contextmanager
def _lockstep(m, load):
    """Check the traced machine *m* against the interpreter at every
    trace exit, not only where the run stops: every trace installed on
    *m* (``TraceCache._install``) is wrapped so that, each time a call
    of it returns, an interpreter machine loaded by *load* runs up to
    *m*'s ``instret`` and must hold *m*'s registers, pc, counters and
    pages.  Yields the number of calls of each root's trace."""
    ref = Machine(P550, trace_compile=False)
    load(ref)
    entries = collections.Counter()
    install = TraceCache._install

    def checked(cache, pc, built):
        if built is None or cache.m is not m:
            return install(cache, pc, built)
        fn, spans = built

        def call():
            entries[pc] += 1
            after = fn()
            ev = ref.run(max_steps=m.instret - ref.instret)
            assert ev.reason is StopReason.STEPS_EXHAUSTED, (hex(pc), ev)
            assert _arch(m) == _arch(ref), f"after a call of <mega@{pc:#x}>"
            return after
        return install(cache, pc, (call, spans))

    with mock.patch.object(TraceCache, "_install", checked):
        yield entries


def _run(load, engine, lockstep=False):
    """One run to its stop on *engine*, bounded in wall time; with
    *lockstep*, checked against the interpreter at every trace exit."""
    kwargs, hot = ENGINES[engine]
    m = Machine(P550, **kwargs)
    if hot is not None:
        m.traces.hot_threshold = hot
    load(m)
    check = _lockstep(m, load) if lockstep else contextlib.nullcontext()
    with _deadline(RUN_SECONDS), check:
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
    function = edit.cfg.function_by_name(hot)
    if inst == "bb":
        count_basic_blocks(edit, hot)
    result = edit.commit()

    def into(m):
        edit.symtab.load_into(m)
        result.apply_to_machine(m)
    into.workload = name
    into.function = function
    return into


def test_tiers_agree(load):
    """Every engine stops in the interpreter's state, and the traced
    ones hold it at every trace exit too."""
    ref, ev = _run(load, "interp")
    assert ev.reason is StopReason.EXITED
    for engine in TRACED:
        m, ev = _run(load, engine, lockstep=True)
        assert ev.reason is StopReason.EXITED, engine
        assert _state(m) == _state(ref), engine
        if engine in ("hot2", "hot1"):
            assert m.traces.mega_compiles > 0, engine
        if engine == "cold":
            assert m.traces.mega_compiles == 0


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=minic_program(hot=True), data=st.data())
def test_random_hot_loops_agree(source, data):
    """Random MiniC programs whose top-level loops may run 40-100 times,
    past the default hot threshold, run on every engine in the
    interpreter's state, at every trace exit and where they stop:
    plain, and with a counter at every block of one of their
    functions."""
    prog = compile_source(source)
    edit = open_binary(prog)
    names = [f.name for f in edit.functions()
             if f.name == "main" or f.name.startswith("f")]
    count_basic_blocks(edit, data.draw(st.sampled_from(sorted(names))))
    result = edit.commit()

    def instrumented(m):
        edit.symtab.load_into(m)
        result.apply_to_machine(m)

    for load in (lambda m: m.load_program(prog), instrumented):
        ref, ev = _run(load, "interp")
        assert ev.reason is StopReason.EXITED
        for engine in TRACED:
            m, ev = _run(load, engine, lockstep=True)
            assert ev.reason is StopReason.EXITED, engine
            assert _state(m) == _state(ref), engine


def _unsliced(m):
    return m.run()


def _sliced(m):
    while (ev := m.run(max_steps=37)).reason is StopReason.STEPS_EXHAUSTED:
        pass
    return ev


def _stepped(m):
    while (ev := m.step()) is None:
        pass
    return ev


def _stream(load, engine, granularity, drive=_unsliced):
    """Events of one run to exit on *engine*, observed from its start
    and driven by *drive*."""
    kwargs, hot = ENGINES[engine]
    m = Machine(P550, **kwargs)
    if hot is not None:
        m.traces.hot_threshold = hot
    load(m)
    events = EventStream(granularity=granularity, capacity=1 << 20)
    m.attach_observer(events)
    assert drive(m).reason is StopReason.EXITED
    m.detach_observer(events)
    return events.events()


def test_block_streams_agree(load):
    """Block events come from the instruction that transfers control,
    so the JIT emits the interpreter's stream: none at a trace's entry,
    one at each taken side exit, dynamic exit and back edge."""
    ref = _stream(load, "interp", "block")
    for engine in TRACED:
        assert _stream(load, engine, "block") == ref, engine


@pytest.mark.parametrize("granularity", ["instruction", "block"])
def test_slicing_keeps_the_stream(load, granularity):
    """Bounded runs and ``step()`` loops emit the unsliced stream: a
    block enters at the first pc executed after the attach, and then
    only where control transfers."""
    ref = _stream(load, "default", granularity)
    for drive in (_sliced, _stepped):
        assert _stream(load, "default", granularity, drive) == ref, \
            drive.__name__


def _hot_inner_loops(load) -> list[int]:
    """Headers of the innermost natural loops of the workload's hot
    function that the interpreter enters at least ``HOT_THRESHOLD``
    times."""
    m = Machine(P550, trace_compile=False)
    load(m)
    events = EventStream(granularity="block", capacity=1 << 20)
    assert m.run(trace=events).reason is StopReason.EXITED
    heat = block_heat(events.events())
    return [loop.header for loop in natural_loops(load.function)
            if not loop.children
            and heat.get(loop.header, 0) >= HOT_THRESHOLD]


def test_superblock_boundaries(load, trace_sources):
    """Where traces are rooted: at the default threshold, every
    innermost hot loop of the hot function roots a trace at its header,
    and that trace loops (its path returns to the header), instrumented
    or not."""
    m, ev = _run(load, "default")
    assert ev.reason is StopReason.EXITED
    heads = _hot_inner_loops(load)
    assert bool(heads) == (load.workload in LOOPING)
    for head in heads:
        assert m.traces.fns.get(head), hex(head)
        assert "while True:" in trace_sources[f"<mega@{head:#x}>"], \
            hex(head)


def _agree_on(prog, reason=StopReason.EXITED):
    """Run *prog* on every engine; all must stop for *reason* in the
    interpreter's state, and hold it at every trace exit.  Returns the
    machine of the engine that roots traces on first dispatch."""
    runs = {engine: _run(lambda m: m.load_program(prog), engine,
                         lockstep=True)
            for engine in ENGINES}
    ref = runs["interp"][0]
    for engine, (m, ev) in runs.items():
        assert (ev.reason, ev.pc) == (reason, ref.pc), engine
        assert _state(m) == _state(ref), engine
    mega = runs["hot1"][0]
    assert mega.traces.mega_compiles > 0
    return mega


class TestFaults:
    """A fault inside compiled code leaves exactly the interpreter's
    state: register locals are spilled, constant and FP registers
    restored, and pc and counters point at the faulting load."""

    def test_load_fault_mid_trace(self):
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
        leaves the stack in the ninth, well inside the trace's loop
        body (the name is kept for stable test ids)."""
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


    @pytest.mark.parametrize("access", ["ld t3, 0(t4)", "sd t3, 0(t4)"],
                             ids=["load", "store"])
    def test_unmapped_constant_address(self, access):
        """The loop's exit path touches a constant address no region
        maps, after 50 iterations bumping a mapped counter: the page
        the trace looked up at entry is missing, so the access takes
        ``ri``/``si``, which fault at the interpreter's pc, ``instret``
        and ``ucycles``."""
        prog = assemble(f"""
_start:
  li t0, 0
loop:
  la t2, cbuf
  ld t3, 0(t2)
  addi t3, t3, 1
  sd t3, 0(t2)
  addi t0, t0, 1
  li t5, 50
  blt t0, t5, loop
  li t4, 0x40000000
bad:
  {access}
.data
cbuf:
  .dword 7
""")
        mega = _agree_on(prog, StopReason.FAULT)
        assert mega.pc == prog.symbol("bad").address

    @pytest.mark.parametrize("site, reason", [
        ("bge t0, s5, done", StopReason.EXITED),
        ("ld t2, 0(s3)", StopReason.FAULT),
    ], ids=["exit", "fault"])
    def test_constant_write_before_a_site_is_kept(self, site, reason):
        """``t1`` is written 5, then 7 after a loop exit or a load that
        faults on the second pass (``s3`` leaves the data page).  A
        constant write dies only when its register is written again
        before any exit or fault site, so at that site ``t1`` is 5,
        which the exit or the fault handler spills (the exit path adds
        it to ``a0``)."""
        prog = assemble(f"""
_start:
  la s3, data
  li s5, 40
  li t0, 0
  li a0, 0
loop:
  li t1, 5
  {site}
  li t1, 7
  add a0, a0, t1
  addi t0, t0, 1
  bge t0, s5, walk
  j loop
walk:
  li t4, 0x100000
  add s3, s3, t4
  j loop
done:
  add a0, a0, t1
  li a7, 93
  ecall
.data
data:
  .dword 41
""")
        _agree_on(prog, reason)

    def test_seed_load_faults_before_the_body_runs(self):
        """The loop's trace seeds ``ld t2, 0(s3)`` (it never writes
        ``s3``), so its pre-header loads the slot at entry.  The second
        call enters the loop with ``s3`` unmapped and leaves at the
        first branch, before the load: the interpreter never faults, so
        the failed seed load must hand the head to the cold path
        instead of faulting there.  (The ``fence`` keeps the loop's
        head a trace entry on every engine.)"""
        prog = assemble("""
_start:
  la s3, data
  li s5, 40
  li a0, 0
  call run
  li s3, 0x40000000
  li s5, 0
  call run
  li a7, 93
  ecall
run:
  li t0, 0
  fence rw, rw
loop:
  bge t0, s5, done
  ld t2, 0(s3)
  add a0, a0, t2
  addi t0, t0, 1
  j loop
done:
  ret
.data
data:
  .dword 5
""")
        mega = _agree_on(prog)
        assert mega.exit_code == 200
        assert mega.traces.fns.get(prog.symbol("loop").address)


class TestWrongPath:
    """Paths on which a trace once ran the wrong code."""

    def test_jalr_exits_keep_their_own_guards(self):
        """The loop ``head`` ends in an indirect jump through ``a5``
        and roots a looping trace that exits through that jump.  ``a5``
        is ``A`` for ten outer iterations, then ``B``; the exit must
        leave for the target it computed.  (When a trace emitted its
        first iteration apart from its loop and exits kept per-exit
        inline caches, one guard cell shared by both exits sent the
        first iteration's exit to ``A``'s trace after the loop's exit
        rebound it to ``B``; the name is kept for stable test ids.)"""
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
        """``beq t2, zero, A`` falls through on each outer pass's first
        iteration and branches on every later one, so the two paths run
        a different ``fcvt.d.l`` (the test keeps the name it had when
        traces called the executor's F/D bodies); each must convert its
        own source register."""
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
        the constant ``jal`` set, so the trace rooted at ``loop``
        follows ``ret`` back into the loop.  Had the write forgotten
        ``ra``, the trace would leave through a dynamic exit on every
        iteration, and a third trace would root at ``back``, where
        ``ret`` lands."""
        prog = assemble("""
_start:
  li s0, 0
loop:
  jal ra, f
back:
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
        # traces at ``_start`` (leaving for ``loop``) and ``loop``
        assert mega.traces.mega_compiles == 2
        assert prog.symbol("back").address not in mega.traces.fns


#: ``s0`` counts 200 passes; odd passes branch to ``odd``, and both
#: sides meet at ``next``, which loops back to ``loop``.  After the
#: branch, the ``if`` side makes ``t2`` another constant and stores
#: another literal over the slot at ``8(sp)``; the ``else`` side reads
#: both, and must see what held at the branch.
_DIAMOND = """
_start:
  li s0, 0
  li s1, 0
  li s2, 0
loop:
  li t2, 5
  sd s0, 8(sp)
  andi t0, s0, 1
  bnez t0, odd
  li t2, 7
  li t3, 99
  sd t3, 8(sp)
  addi s1, s1, 3
  j next
odd:
  add s2, s2, t2
  ld t4, 8(sp)
  add s2, s2, t4
next:
  addi s0, s0, 1
  li t1, 200
  blt s0, t1, loop
  add a0, s1, s2
  li a7, 93
  ecall
"""


class TestTraceTrees:
    """A guarded branch whose taken side leads back to the trace's root
    runs inside the trace as a branch path.  Every case runs on every
    engine under the lockstep check (``_agree_on``)."""

    def test_if_and_else_both_return_to_the_head(self, trace_sources):
        """The trace rooted at ``loop`` falls through to the ``if``
        side and runs the ``else`` side as a branch path: once it is
        compiled it is entered once, not once per odd pass."""
        prog = assemble(_DIAMOND)
        _agree_on(prog)
        loop = prog.symbol("loop").address
        assert trace_sources[f"<mega@{loop:#x}>"].count("continue") == 2
        for engine in ("hot1", "default"):
            kwargs, hot = ENGINES[engine]
            m = Machine(P550, **kwargs)
            if hot is not None:
                m.traces.hot_threshold = hot
            m.load_program(prog)
            with _lockstep(m, lambda r: r.load_program(prog)) as entries:
                assert m.run().reason is StopReason.EXITED
            assert entries[loop] == 1, engine

    def test_block_stream_over_a_branch_path(self):
        """A block observer sees the interpreter's stream from a trace
        whose odd passes run on its branch path."""
        def load(m):
            m.load_program(assemble(_DIAMOND))
        ref = _stream(load, "interp", "block")
        for engine in TRACED:
            assert _stream(load, engine, "block") == ref, engine

    def test_fault_on_a_branch_path(self, trace_sources):
        """Odd passes load through ``t3``, which leaves the data page
        at pass 65, on the branch path of a trace every traced engine
        has compiled by then: the fault syncs to the interpreter's pc,
        ``instret`` and ``ucycles``."""
        prog = assemble("""
_start:
  la s3, data
  li s0, 0
  li a0, 0
loop:
  andi t0, s0, 1
  bnez t0, odd
  addi a0, a0, 1
  j next
odd:
  srli t2, s0, 6
  slli t2, t2, 30
  add t3, s3, t2
bad:
  ld t1, 0(t3)
  add a0, a0, t1
next:
  addi s0, s0, 1
  j loop
.data
data:
  .dword 5
""")
        mega = _agree_on(prog, StopReason.FAULT)
        assert mega.pc == prog.symbol("bad").address
        loop = prog.symbol("loop").address
        assert trace_sources[f"<mega@{loop:#x}>"].count("continue") == 2

    def test_store_rewrites_code_on_a_branch_path(self):
        """Odd passes store over ``patch`` from the branch path: the
        store deopts with the state after it, and every engine ends in
        the interpreter's state."""
        word = int.from_bytes(assemble("addi s2, s2, 100").text, "little")
        prog = assemble(f"""
_start:
  li s0, 0
  la a1, patch
  li a2, {word}
loop:
  andi t0, s0, 1
  bnez t0, odd
  addi s1, s1, 1
  j next
odd:
  sw a2, 0(a1)
next:
patch:
  addi s2, s2, 1
  addi s0, s0, 1
  li t1, 100
  blt s0, t1, loop
  li a7, 93
  ecall
""")
        mega = _agree_on(prog)
        assert mega.traces.deopt_count[0] > 0

    def test_faulting_reseed_leaves_through_the_cold_step(self):
        """The root path seeds ``ld t2, 0(s3)``; the branch path moves
        ``s3`` off the map and loops back, so its back edge reloads the
        seed, which faults.  The trace syncs at ``loop`` and leaves
        through ``TraceCache._cold_step``, whose cold step of ``loop``
        faults where the interpreter does."""
        prog = assemble("""
_start:
  la s3, data
  li s0, 0
  li a0, 0
loop:
  ld t2, 0(s3)
  add a0, a0, t2
  addi s0, s0, 1
  li t0, 50
  bge s0, t0, move
  j loop
move:
  li s3, 0x40000000
  j loop
.data
data:
  .dword 5
""")
        loop = prog.symbol("loop").address
        steps = []
        cold_step = TraceCache._cold_step

        def counting(cache, head):
            steps.append(head)
            return cold_step(cache, head)

        with mock.patch.object(TraceCache, "_cold_step", counting):
            mega = _agree_on(prog, StopReason.FAULT)
        assert mega.pc == loop
        # one per engine that compiled the loop: hot2, hot1, default
        assert steps == [loop] * 3

    def test_branch_path_base_write_moves_root_accesses_inline(
            self, trace_sources):
        """Every eighth pass the branch path moves ``s3``, and the root
        path stores through it: that store builds its address from
        ``r19`` inline, since an address bound at entry would go stale
        once the branch path ran."""
        prog = assemble("""
_start:
  la s3, data
  li s0, 0
  li a0, 0
loop:
  ld t2, 0(s3)
  add a0, a0, t2
  sd a0, 64(s3)
  addi s0, s0, 1
  andi t0, s0, 7
  beqz t0, step
  j loop
step:
  addi s3, s3, 8
  li t1, 64
  blt s0, t1, loop
  li a7, 93
  ecall
.data
data:
  .dword 1, 2, 3, 4, 5, 6, 7, 8, 9
  .zero 128
""")
        _agree_on(prog)
        src = trace_sources[f"<mega@{prog.symbol('loop').address:#x}>"]
        assert src.count("continue") >= 2
        assert "a19_" not in src
        assert any(ln.strip().startswith("a = (r19 + 64) & ")
                   for ln in _main_path(src.split("while True:", 1)[1]))


    def test_reseed_copies_across_the_integer_and_float_tables(
            self, trace_sources):
        """The root path keeps an integer slot at ``8(sp)`` and a double
        slot at ``16(sp)`` in locals; every fourth pass the branch path
        stores a double over the first and an integer over the second.
        Its back edge re-establishes both seeds by converting the value
        the other table forwards, not by reloading them."""
        prog = assemble("""
_start:
  li s0, 0
  li t0, 3
  fcvt.d.l f2, t0
  sd zero, 8(sp)
  fsd f2, 16(sp)
loop:
  ld a1, 8(sp)
  add a0, a0, a1
  addi a1, a1, 1
  sd a1, 8(sp)
  fld f3, 16(sp)
  fadd.d f3, f3, f2
  fsd f3, 16(sp)
  andi t1, s0, 3
  beqz t1, swap
  j next
swap:
  fsd f3, 8(sp)
  sd a1, 16(sp)
next:
  addi s0, s0, 1
  li t3, 120
  blt s0, t3, loop
  fcvt.l.d a2, f3
  li a7, 93
  ecall
""")
        _agree_on(prog)
        src = trace_sources[f"<mega@{prog.symbol('loop').address:#x}>"]
        assert "w2_8_8 = B64(d2_8_8)" in src
        assert "d2_10_8 = F64(w2_10_8)" in src
        assert "except MF:" not in src.split("while True:", 1)[1]

    def test_a_chain_of_branch_paths_nests_at_most_max_nest_deep(
            self, trace_sources):
        """Each ``bnez`` of the chain leads to the next one and back to
        ``loop``, so each would nest a branch path in the one before,
        one indentation level deeper, past the 100 levels Python's
        tokenizer allows.  The branch paths nested deeper than
        ``MAX_NEST`` stay side exits: one back edge on the root path and
        one on each of ``MAX_NEST`` branch paths."""
        chain = "".join(f"a{i}:\n  bnez t0, a{i + 1}\n  j loop\n"
                        for i in range(1, 130))
        prog = assemble(f"""
_start:
  li s0, 0
  li t0, 1
loop:
  addi s0, s0, 1
  li t1, 200
  bge s0, t1, done
  bnez t0, a1
  j loop
{chain}a130:
  j loop
done:
  li a7, 93
  ecall
""")
        _agree_on(prog)
        src = trace_sources[f"<mega@{prog.symbol('loop').address:#x}>"]
        assert src.count("continue") == MAX_NEST + 1


class TestConstantStores:
    """A load of a slot a constant store wrote folds to the literal,
    with the load's sign or zero extension."""

    def test_literal_reload_folds_the_loop_entry_test(self, trace_sources):
        """``j = 0; j < 12`` stores 0, reloads it and compares: the
        compare and its branch fold, so the trace neither compares
        against 12 nor exits to ``done``."""
        prog = assemble("""
_start:
  li s1, 0
  fence rw, rw
loop:
  sd zero, 8(sp)
  ld t0, 8(sp)
  slti t1, t0, 12
  beqz t1, done
  addi s1, s1, 1
  li t2, 40
  blt s1, t2, loop
done:
  mv a0, s1
  li a7, 93
  ecall
""")
        _agree_on(prog)
        src = trace_sources[f"<mega@{prog.symbol('loop').address:#x}>"]
        assert "0x800000000000000c" not in src
        assert f"FG({prog.symbol('done').address:#x})" not in src

    @pytest.mark.parametrize("store, loads", [
        ("sb", ("lb", "lbu")), ("sh", ("lh", "lhu")),
        ("sw", ("lw", "lwu")), ("sd", ("ld",))])
    def test_literal_reloads_extend(self, store, loads):
        """Each pass stores three literals into one slot (its sign bit
        set with the low bit, the largest positive value, and a value
        wider than the slot) and reloads each with every load of the
        slot's width."""
        size = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}[store]
        sign = 1 << (8 * size - 1)
        body = ""
        for v in (sign | 1, sign - 1,
                  ((0x5A5A << (8 * size)) | sign | 3) & (1 << 64) - 1):
            body += f"  li t0, {v:#x}\n  {store} t0, 8(sp)\n"
            for load in loads:
                body += f"  {load} t1, 8(sp)\n  add a0, a0, t1\n"
        _agree_on(assemble(f"""
_start:
  li s0, 0
  li a0, 0
loop:
{body}
  addi s0, s0, 1
  li t5, 40
  blt s0, t5, loop
  li a7, 93
  ecall
"""))


class TestFloatLocals:
    """A trace holds a live double in a float local; an integer
    operator over that F register must read its bits."""

    def test_bit_ops_on_a_live_double(self):
        """After ``fadd.d`` the trace holds ``f1`` as a float.  The
        sign injections behind ``fmv.d``, ``fneg.d`` and ``fabs.d``
        mask its bits, and ``fmv.x.w`` sign-extends its low word."""
        prog = assemble("""
_start:
  la s1, data
  li s0, 0
  li s2, 0
loop:
  fld f1, 0(s1)
  fadd.d f1, f1, f1
  fmv.d f2, f1
  fneg.d f3, f1
  fabs.d f4, f1
  fmv.x.w a0, f1
  add s2, s2, a0
  fsd f3, 0(s1)
  addi s0, s0, 1
  li t0, 40
  blt s0, t0, loop
  li a7, 93
  ecall
.data
data:
  .dword 0x4008CCCCCCCCCCCD
""")
        mega = _agree_on(prog)
        # f1 doubles and flips sign each pass: -3.1 * 2**40 at the end
        big = struct.unpack("<Q", struct.pack("<d", 3.1 * 2 ** 40))[0]
        assert mega.f[1:5] == [big | 1 << 63, big | 1 << 63, big, big]
        assert mega.x[10] == 0xFFFFFFFFCCCCCCCD  # a0

    def test_double_calls_in_a_hot_loop(self):
        """MiniC moves every double argument, return value and call
        result with ``fmv.d`` and negates with ``fneg.d``.  The run
        under a block observer roots a trace at every pc's first
        dispatch too."""
        prog = compile_source("""
double half(double x) { return x * 0.5; }
double flip(double x) { return -x; }
long main(void) {
    double acc = 1.0;
    for (long i = 0; i < 300; i = i + 1) {
        acc = flip(half(acc) + (double)i);
    }
    return (long)acc;
}
""")
        ref = _agree_on(prog)
        m = Machine(P550, trace_compile=True)
        m.load_program(prog)
        ev = m.run(trace=EventStream(granularity="block"))
        assert (ev.reason, _state(m)) == (StopReason.EXITED, _state(ref))
        assert m.traces.mega_compiles > 0


#: loop bodies mixing integer and FP accesses to the same bytes; each
#: runs 200 times inside :data:`_MIXED`, so the default threshold
#: roots a trace too.  ``f2`` holds 3.0, ``f9`` 1.0f, and ``s2``
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


def wide_source(seed: int = 1, n: int = 200) -> str:
    """The benchmark's wide binary: *n* small functions, each a
    four-step Collatz walk, all called once from ``main`` with seeded
    arguments."""
    rng = random.Random(seed)
    funcs = "".join(f"""
long work{i}(long x) {{
    long s = x;
    for (long j = 0; j < 4; j = j + 1) {{
        if (s % 2 == 0) {{ s = s / 2; }} else {{ s = s * 3 + 1; }}
    }}
    return s;
}}
""" for i in range(n))
    calls = " + ".join(f"work{i}({rng.randrange(1, 1000)})"
                       for i in range(n))
    return funcs + f"long main(void) {{ return ({calls}) % 256; }}\n"


@pytest.fixture(scope="module")
def wide():
    """Loader of the wide binary with a call counter at the entry of
    every function (201 points), as the benchmark instruments it."""
    edit = open_binary(compile_source(wide_source()))
    calls = edit.allocate_variable("calls")
    snippet = IncrementVar(calls)
    for name in [f"work{i}" for i in range(200)] + ["main"]:
        edit.insert(edit.points(name, PointType.FUNC_ENTRY), snippet)
    result = edit.commit()

    def into(m):
        edit.symtab.load_into(m)
        result.apply_to_machine(m)
    return into


def test_cold_path_agrees_on_the_wide_binary(wide):
    """Whole-binary instrumentation runs mostly cold code: the traced
    run's cold path leaves the interpreter's state and block stream."""
    ref, ev = _run(wide, "interp")
    assert ev.reason is StopReason.EXITED
    m, ev = _run(wide, "cold")
    assert ev.reason is StopReason.EXITED
    assert m.traces.mega_compiles == 0
    assert _state(m) == _state(ref)
    assert _stream(wide, "cold", "block") == _stream(wide, "interp", "block")


def _builds(load, engine, monkeypatch) -> list[tuple]:
    """``(pc, encoding)`` of every closure ``build_closure`` makes in
    one run of *engine* (pc ``None``: a closure shared per encoding)."""
    built = []
    build = machine_mod.build_closure

    def counting(m, pc, instr):
        built.append((pc, instr.raw))
        return build(m, pc, instr)

    with monkeypatch.context() as mp:
        mp.setattr(machine_mod, "build_closure", counting)
        m, ev = _run(load, engine)
    assert ev.reason is StopReason.EXITED
    return built


def test_cold_path_builds_one_closure_per_encoding(wide, monkeypatch):
    """The wide binary retires 23,310 instructions at 10,749 pcs, which
    hold 830 encodings.  The interpreter builds a closure per pc; the
    traced run builds one per encoding for the 829 the IR covers, and
    one per pc for the hand-written rest (its one ``ecall``)."""
    per_pc = _builds(wide, "interp", monkeypatch)
    traced = _builds(wide, "default", monkeypatch)
    encoding = dict((pc, raw) for pc, raw in per_pc)
    assert len(per_pc) == len(encoding) == 10_749
    assert len(set(encoding.values())) == 830
    shared = [raw for pc, raw in traced if pc is None]
    rest = [pc for pc, raw in traced if pc is not None]
    assert len(shared) == len(set(shared)) == 829
    assert rest == [pc for pc, raw in encoding.items()
                    if raw not in shared]
    assert len(rest) == 1


class TestColdPath:
    """One encoding at two pcs runs one shared closure on the traced
    run's cold path, and that closure computes what a per-pc one
    would at each pc."""

    @staticmethod
    def _cold(prog):
        m, ev = _run(lambda m: m.load_program(prog), "cold")
        assert m.traces.mega_compiles == 0
        return m, ev

    @staticmethod
    def _twins(prog, m, *labels):
        """Each pair of *labels* holds one encoding, and the cold run
        gave both pcs the same closure."""
        for a, b in zip(labels[::2], labels[1::2]):
            pa, pb = prog.symbol(a).address, prog.symbol(b).address
            assert m.read_mem(pa, 4) == m.read_mem(pb, 4), (a, b)
            assert m._icache[pa] is m._icache[pb], (a, b)

    def test_pc_reading_encodings_at_two_pcs(self):
        """``auipc``, a linking ``jal``, a taken and a not-taken branch
        and ``jalr x0`` each read the pc or write a target; each runs
        at two pcs."""
        prog = assemble("""
_start:
  li s0, 0
auipc1:
  auipc s2, 0
  mv s3, s2
auipc2:
  auipc s2, 0
jal1:
  jal ra, link1
  addi s0, s0, 100
link1:
  mv s4, ra
jal2:
  jal ra, link2
  addi s0, s0, 100
link2:
  mv s5, ra
taken1:
  beq zero, zero, over1
  addi s0, s0, 100
over1:
taken2:
  beq zero, zero, over2
  addi s0, s0, 100
over2:
fall1:
  bne zero, zero, skip1
  addi s0, s0, 1
skip1:
fall2:
  bne zero, zero, skip2
  addi s0, s0, 1
skip2:
  la t0, land1
jr1:
  jalr x0, 0(t0)
  addi s0, s0, 100
land1:
  la t0, land2
jr2:
  jalr x0, 0(t0)
  addi s0, s0, 100
land2:
  li a0, 0
  li a7, 93
  ecall
""")
        _agree_on(prog)
        m, ev = self._cold(prog)
        assert ev.reason is StopReason.EXITED
        self._twins(prog, m, "auipc1", "auipc2", "jal1", "jal2",
                    "taken1", "taken2", "fall1", "fall2", "jr1", "jr2")
        at = {name: prog.symbol(name).address
              for name in ("auipc1", "auipc2", "jal1", "jal2")}
        assert m.x[18:22] == [at["auipc2"], at["auipc1"],
                              at["jal1"] + 4, at["jal2"] + 4]
        assert m.x[8] == 2  # s0: both fall-throughs, nothing skipped

    def test_shared_load_faults_at_its_own_pc(self):
        """One ``ld`` encoding loads at one pc and faults at the other:
        the fault stops at the second pc with its counters."""
        prog = assemble("""
_start:
  la a0, data
ld1:
  ld t0, 0(a0)
  li a0, 16
ld2:
  ld t0, 0(a0)
  li a7, 93
  ecall
.data
data:
  .dword 41
""")
        _agree_on(prog, StopReason.FAULT)
        m, ev = self._cold(prog)
        self._twins(prog, m, "ld1", "ld2")
        assert (ev.reason, ev.pc) == (StopReason.FAULT,
                                      prog.symbol("ld2").address)
        assert (m.x[5], m.instret) == (41, 4)  # la is two

    def test_store_rewrites_one_of_two_twins(self):
        """``w1`` and ``w2`` hold one ``addi``; a store rewrites ``w2``
        after the first pass, so the second pass adds 1 at ``w1`` and
        100 at ``w2``."""
        word = int.from_bytes(assemble("addi s0, s0, 100").text, "little")
        prog = assemble(f"""
_start:
  li s1, 2
  la a1, w2
  li a2, {word}
loop:
w1:
  addi s0, s0, 1
w2:
  addi s0, s0, 1
  sw a2, 0(a1)
  addi s1, s1, -1
  bnez s1, loop
  li a7, 93
  ecall
""")
        _agree_on(prog)
        m, ev = self._cold(prog)
        assert ev.reason is StopReason.EXITED
        assert m.x[8] == 103  # s0
        old = int.from_bytes(assemble("addi s0, s0, 1").text, "little")
        assert m._icache[prog.symbol("w1").address] is m._by_encoding[old]
        assert word in m._by_encoding  # built when w2 ran rewritten

    @staticmethod
    def _page_end(head: str, tail: str):
        """*head*, zeros, then *tail*, which ends the text page; no page
        is mapped after it."""
        def source(pad):
            return f"{head}\n  .zero {pad}\n{tail}"
        prog = assemble(source(0))
        prog = assemble(source(0x1000 - len(prog.text)))
        assert prog.text_base + len(prog.text) == 0x11000
        assert not prog.data and not prog.bss_size
        return prog

    def test_rvc_at_a_page_end(self):
        """Only 2 bytes are mapped at the last ``c.j``'s pc: the cold
        path reads its halfword alone, as the interpreter does."""
        prog = self._page_end("""
_start:
  li s1, 3
  j loop
done:
  li a0, 0
  li a7, 93
  ecall
""", """
loop:
  addi s1, s1, -1
  beqz s1, done
  c.addi s0, 1
  c.j loop
""")
        _agree_on(prog)
        m, ev = self._cold(prog)
        assert ev.reason is StopReason.EXITED
        assert m.x[8] == 2  # s0
        hw = int.from_bytes(m.read_mem(0x10FFE, 2), "little")
        assert m._icache[0x10FFE] is m._by_encoding[hw]

    def test_cut_off_word_at_a_page_end(self):
        """A 4-byte instruction's first half ends the page.  Its bits
        are a ``nop``'s low half, and the ``nop`` has run: decoding
        still fails as on the interpreter, it does not run the ``nop``'s
        closure."""
        prog = self._page_end("""
_start:
  nop
  j cut
""", """
cut:
  .half 0x0013
""")
        runs = {engine: _run(lambda m: m.load_program(prog), engine)
                for engine in ("interp", "cold")}
        (ref, ref_ev), (m, ev) = runs["interp"], runs["cold"]
        assert ref_ev.reason is StopReason.FAULT
        assert (ev.reason, ev.pc, ev.fault) == \
            (ref_ev.reason, 0x10FFE, ref_ev.fault)
        assert "truncated" in ev.fault
        assert 0x13 in m._by_encoding
        assert _state(m) == _state(ref)
