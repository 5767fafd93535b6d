"""The simulated RV64GC machine (the SiFive P550 stand-in, §4.2).

:class:`Machine` bundles hart state, memory, a timing model, and a
Linux-ish syscall layer, and exposes the debug port ProcControlAPI talks
to (read/write registers and memory, step, run-until-event).

Performance notes (per the HPC guides): the run loop binds hot
attributes to locals, and instructions are compiled at two levels —

* a per-pc closure cache (``_icache``) used for single-stepping, bounded
  ``run(max_steps=...)``, instructions the trace compiler rejects, and
  cold code: an unbounded ``run()`` steps a pc through its closure until
  the pc has been dispatched ``traces.hot_threshold`` times;
* a trace cache (:class:`repro.sim.trace.TraceCache`) used by unbounded
  ``run()`` once code is warm: a trace is rooted at every warm pc and
  runs the path from there as one Python function with batched timing,
  looping without leaving compiled code when the path returns to its
  root; each exit looks up the trace at its pc in ``traces.fns`` and
  hands it to the run loop, which calls it without a dispatch.

Both levels are **patch-safe**: every write overlapping a registered
executable range — self-modifying stores, ``write_mem`` from the
patcher/ProcControl, breakpoint insertion — flows through the
:class:`Memory` write watch into :meth:`_code_written`, which drops the
overlapping closures and traces.  See docs/INTERNALS.md ("Trace cache &
invalidation rules").

Both levels also emit execution events, from the instruction that
transfers control: while an observer is attached, every control-flow
closure and every compiled transfer enters a block at the pc it leaves
for.  Observed runs take the same two run loops as unobserved ones (see
docs/INTERNALS.md, "Execution event streams").
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass

from .. import telemetry
from ..errors import ReproError
from ..telemetry.events import (
    BLOCK, BRANCH, CALL, EventStream, FAULT, JUMP, LINK_REGS, PATCH, RET,
)
from ..riscv.assembler import Program
from ..riscv.decoder import DecodeError, decode
from ..riscv.opcodes import OP_BRANCH
from .executor import BreakpointHit, ExitTrap, SimFault, build_closure
from .memory import Memory, MemoryFault
from .timing import P550, TimingModel, UCYCLE
from .trace import TraceCache

#: Default stack placement: 8 MiB ending just below 2 GiB.
STACK_TOP = 0x7FFF_F000
STACK_SIZE = 8 << 20


class StopReason(enum.Enum):
    """Why :meth:`Machine.run` returned."""

    EXITED = "exited"
    BREAKPOINT = "breakpoint"
    STEPS_EXHAUSTED = "steps-exhausted"
    FAULT = "fault"


@dataclass
class StopEvent:
    """Run-loop outcome."""

    reason: StopReason
    pc: int
    exit_code: int | None = None
    fault: str | None = None


class InstructionBudgetExceeded(ReproError, RuntimeError):
    """``Machine.run(max_instructions=...)`` retired its whole budget
    without the mutatee exiting.

    Unlike the cooperative ``max_steps`` bound (which *returns* a
    ``STEPS_EXHAUSTED`` stop event), the budget is a guard rail against
    runaway or instrumentation-corrupted mutatees, so exceeding it is an
    **error** — catchable as :class:`~repro.errors.ReproError`.  Any
    attached event streams receive a final FAULT event before the raise
    (live :class:`~repro.api.tracesession.TraceSession` streams are
    flushed, not lost; the API layer attaches the partial session as
    ``exc.session``).
    """

    def __init__(self, pc: int, retired: int, budget: int):
        super().__init__(
            f"instruction budget exhausted after {retired} retired "
            f"instructions (budget {budget}) at pc={pc:#x}")
        self.pc = pc
        self.retired = retired
        self.budget = budget


# Linux riscv64 syscall numbers (asm-generic).
SYS_WRITE = 64
SYS_EXIT = 93
SYS_EXIT_GROUP = 94
SYS_CLOCK_GETTIME = 113


def _traces_default() -> bool:
    return os.environ.get("REPRO_SIM_TRACES", "1") != "0"


class Machine:
    """One simulated RV64GC hart plus memory.

    Parameters
    ----------
    timing:
        The :class:`TimingModel` charged per instruction; determines
        what ``clock_gettime``/``rdcycle`` report.
    trace_compile:
        Enable the trace compiler for unbounded ``run()``: once a pc
        has been dispatched ``traces.hot_threshold`` times, a trace is
        rooted there (see docs/INTERNALS.md, "JIT tiers"); until then
        it runs on the per-pc closure interpreter.  Defaults to on; set
        ``REPRO_SIM_TRACES=0`` (or pass ``False``) to force the closure
        interpreter everywhere — results are architecturally identical
        either way.
    """

    def __init__(self, timing: TimingModel = P550,
                 trace_compile: bool | None = None):
        self.timing = timing
        self.mem = Memory()
        self.x: list[int] = [0] * 32
        self.f: list[int] = [0] * 32
        self.pc = 0
        self.ucycles = 0
        self.instret = 0
        self.csrs: dict[int, int] = {}
        self.reservation: int | None = None
        self.stdout = bytearray()
        self.exit_code: int | None = None
        self._icache: dict[int, object] = {}
        #: [lo, hi) ranges treated as code: writes into them invalidate
        #: compiled closures/traces (self-modifying code / patching).
        self.exec_ranges: list[tuple[int, int]] = []
        #: trap-springboard map: ebreak pc -> redirect pc.  The paper's
        #: worst-case 2-byte trap springboards (§3.1.2) divert through
        #: here instead of stopping the hart (one "system" cycle charge).
        self.trap_redirects: dict[int, int] = {}
        self.trace_compile = (_traces_default() if trace_compile is None
                              else trace_compile)
        self.traces = TraceCache(self)
        #: armed only for telemetry-observed runs: the traced dispatch
        #: loop then counts cache hits (disabled runs skip the wrapper
        #: entirely, so the hot loop stays wrapper-free)
        self._count_hits = False
        #: set by the trace cache when an invalidation drops any trace;
        #: a running trace checks it after each store and exits early
        #: (state fully synced) so rewritten code is re-fetched.
        self.code_dirty = False
        # -- execution-event observers (repro.telemetry.events) --------
        #: attached EventStreams; empty on the unobserved fast path
        #: (see docs/INTERNALS.md, "Execution event streams")
        self._observers: list[EventStream] = []
        #: bound emit callable (fans out to every observer); None when
        #: unobserved, which costs one check per run() call and per
        #: closure built, zero per instruction.  Closures and traces
        #: built while observed bind it
        self._emit = None
        #: streams attached since the last run()/step() began: each sees
        #: a block enter at the first pc executed after it attached
        self._fresh: list[EventStream] = []
        #: True while an instruction-granularity observer is attached:
        #: runs stay on the closure interpreter
        self._per_insn = False
        #: True while a block-granularity observer is attached: new
        #: traces emit block enters
        self._trace_events = False

    # -- program loading --------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Map a laid-out :class:`Program` and reset the hart to its entry."""
        self.load_image(
            segments=[
                (program.text_base, program.text),
                (program.data_base, program.data),
            ],
            zero_fill=[(program.bss_base, program.bss_size)],
            entry=program.entry,
            exec_range=(program.text_base,
                        program.text_base + len(program.text)),
        )

    def load_image(self, segments: list[tuple[int, bytes]],
                   entry: int,
                   zero_fill: list[tuple[int, int]] | None = None,
                   exec_range: tuple[int, int] | None = None) -> None:
        """Map raw (vaddr, bytes) segments and the (vaddr, size)
        *zero_fill* ranges, and reset the hart."""
        for base, blob in segments:
            if blob:
                self.mem.map_region(base, len(blob))
                self.mem.write_bytes(base, bytes(blob))
        for base, size in zero_fill or ():
            if size > 0:
                self.mem.map_region(base, size)
        self.mem.map_region(STACK_TOP - STACK_SIZE, STACK_SIZE)
        self.x = [0] * 32
        self.f = [0] * 32
        self.x[2] = STACK_TOP - 64  # sp, with a little headroom
        self.pc = entry
        self.ucycles = 0
        self.instret = 0
        self.exit_code = None
        self.stdout = bytearray()
        # full flush: compiled code binds the (re-created) register lists
        self._icache.clear()
        self.traces.clear()
        if exec_range is not None:
            self.exec_ranges = [exec_range]
        self.mem.set_write_watch(self.exec_ranges, self._code_written)

    def add_exec_range(self, lo: int, hi: int) -> None:
        """Register an additional code range (e.g. a patch area)."""
        self.exec_ranges.append((lo, hi))
        self.mem.map_region(lo, hi - lo)
        self.mem.set_write_watch(self.exec_ranges, self._code_written)

    # -- execution-event observers ----------------------------------------

    @property
    def observed(self) -> bool:
        """Is at least one event observer attached?"""
        return bool(self._observers)

    def attach_observer(self, stream: EventStream) -> EventStream:
        """Attach *stream* as an execution-event observer.

        Effective at the next :meth:`run`/:meth:`step` dispatch (the
        simulator is single-threaded, so mid-run attachment happens at
        debugger stops); the stream's first event enters the block at
        the first pc executed from then on.  Attaching a
        block-granularity stream flushes the trace cache so traces
        recompile with block-enter emits; attaching an
        instruction-granularity stream leaves compiled traces intact —
        they are simply not dispatched while the observer wants
        per-instruction events.
        """
        if stream in self._observers:
            return stream
        self._observers.append(stream)
        self._fresh.append(stream)
        self._rebuild_emit()
        return stream

    def detach_observer(self, stream: EventStream) -> None:
        """Detach *stream*; with no observers left the hot loops return
        to their unobserved zero-overhead paths."""
        if stream in self._observers:
            self._observers.remove(stream)
            if stream in self._fresh:
                self._fresh.remove(stream)
            self._rebuild_emit()

    def _rebuild_emit(self) -> None:
        obs = self._observers
        if not obs:
            emit = None
        elif len(obs) == 1:
            emit = obs[0].push
        else:
            pushes = tuple(s.push for s in obs)
            insn = tuple(s.push for s in obs
                         if s.granularity == "instruction")

            def emit(event, _pushes=pushes, _insn=insn):
                # CALL/RET/JUMP/BRANCH reach instruction streams only
                for p in (_insn if event[0] < BLOCK else _pushes):
                    p(event)
        self._emit = emit
        self._per_insn = any(s.granularity == "instruction" for s in obs)
        # closures bind emit: rebuild them under the new fan-out
        self._icache.clear()
        # so do traces, but only block-observed runs dispatch them: flush
        # whenever block observation starts, ends or changes its fan-out
        want_trace_events = any(s.granularity == "block" for s in obs)
        if want_trace_events or self._trace_events:
            self.traces.clear()
        self._trace_events = want_trace_events

    def _enter(self) -> None:
        """A run or step begins with streams attached since the last
        one: each enters the block at the pc about to execute."""
        event = (BLOCK, self.pc, 0, self.instret, self.ucycles)
        for stream in self._fresh:
            stream.push(event)
        self._fresh.clear()

    def _emitting(self, cl, pc: int, instr):
        """*cl*, wrapped to emit the events of the transfer it makes
        when *instr* is a control-flow instruction: the block enter at
        the pc it leaves for (taken or not) and, with an
        instruction-granularity observer attached, its call, return,
        jump or taken branch.  Other instructions emit nothing."""
        mn = instr.mnemonic
        rd = instr.fields.get("rd")
        if mn == "jal":
            kind = CALL if rd in LINK_REGS else JUMP
        elif mn == "jalr":
            if rd in LINK_REGS:
                kind = CALL
            elif rd == 0 and instr.fields["rs1"] in LINK_REGS:
                kind = RET
            else:
                kind = JUMP
        elif instr.spec.match & 0x7F == OP_BRANCH:
            kind = BRANCH
        else:
            return cl
        # a branch falling through emits no BRANCH
        fall = pc + instr.length if kind == BRANCH else None
        if not self._per_insn:
            kind = None
        emit = self._emit
        m = self

        def run() -> None:
            cl()
            npc = m.pc
            if kind is not None and npc != fall:
                emit((kind, pc, npc, m.instret, m.ucycles))
            emit((BLOCK, npc, 0, m.instret, m.ucycles))
        return run

    # -- debug port (ProcControlAPI) ---------------------------------------

    def read_mem(self, addr: int, n: int) -> bytes:
        return self.mem.read_bytes(addr, n)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Write memory; the write watch invalidates compiled code."""
        self.mem.write_bytes(addr, data)

    def store_int(self, addr: int, size: int, value: int) -> None:
        """Store from executing code (invalidation rides on the watch)."""
        self.mem.write_int(addr, size, value)

    def _code_written(self, addr: int, size: int) -> None:
        """Memory write-watch callback: a write overlapped a code range.
        Drop per-pc closures and traces covering the written bytes."""
        pop = self._icache.pop
        # a patched instruction may start up to 3 bytes before addr
        for a in range(addr - 3, addr + size):
            pop(a, None)
        self.traces.invalidate_range(addr, size)

    def invalidate_code_range(self, addr: int, size: int) -> None:
        """Explicitly drop compiled code overlapping [addr, addr+size).

        The write watch already catches writes through this machine's
        memory; patch/unpatch paths call this as well so invalidation
        never depends on *how* the bytes got there.
        """
        self._code_written(addr, size)

    def flush_icache(self) -> None:
        self._icache.clear()
        self.traces.clear()

    def get_reg(self, n: int) -> int:
        return self.x[n]

    def set_reg(self, n: int, value: int) -> None:
        if n != 0:
            self.x[n] = value & 0xFFFF_FFFF_FFFF_FFFF

    # -- CSRs ---------------------------------------------------------------

    def read_csr(self, csr: int) -> int:
        if csr == 0xC00:  # cycle
            return self.ucycles // UCYCLE
        if csr == 0xC01:  # time (report cycles; mtime ~ cycle here)
            return self.ucycles // UCYCLE
        if csr == 0xC02:  # instret
            return self.instret
        return self.csrs.get(csr, 0)

    def write_csr(self, csr: int, value: int) -> None:
        self.csrs[csr] = value & 0xFFFF_FFFF_FFFF_FFFF

    # -- time ----------------------------------------------------------------

    def simulated_ns(self) -> int:
        return self.timing.nanoseconds(self.ucycles)

    def simulated_seconds(self) -> float:
        return self.timing.seconds(self.ucycles)

    # -- syscalls --------------------------------------------------------------

    def syscall(self) -> None:
        num = self.x[17]  # a7
        a0, a1, a2 = self.x[10], self.x[11], self.x[12]
        if num in (SYS_EXIT, SYS_EXIT_GROUP):
            raise ExitTrap(a0 & 0xFF)
        if num == SYS_WRITE:
            data = self.mem.read_bytes(a1, a2)
            if a0 in (1, 2):
                self.stdout += data
            self.x[10] = a2
            return
        if num == SYS_CLOCK_GETTIME:
            ns = self.simulated_ns()
            self.mem.write_int(a1, 8, ns // 1_000_000_000)
            self.mem.write_int(a1 + 8, 8, ns % 1_000_000_000)
            self.x[10] = 0
            return
        raise SimFault(f"unsupported syscall {num}", self.pc)

    # -- execution ---------------------------------------------------------------

    def _closure_at(self, pc: int):
        cl = self._icache.get(pc)
        if cl is None:
            try:
                raw = self.mem.read_bytes(pc, 4)
            except MemoryFault:
                raw = self.mem.read_bytes(pc, 2)  # page-end compressed instr
            instr = decode(raw, 0, pc)
            cl = build_closure(self, pc, instr)
            if self._emit is not None:
                cl = self._emitting(cl, pc, instr)
            self._icache[pc] = cl
        return cl

    def _redirect(self, pc: int) -> bool:
        """Apply a trap-springboard redirect at *pc* if one exists."""
        target = self.trap_redirects.get(pc)
        if target is None:
            return False
        self.pc = target
        self.ucycles += self.timing.ucycles("system")
        emit = self._emit
        if emit is not None:
            emit((PATCH, pc, target, self.instret, self.ucycles))
            emit((BLOCK, target, 0, self.instret, self.ucycles))
        return True

    def _fault(self, e: Exception) -> StopEvent:
        """Stop on fault *e*, emitting a FAULT event at the pc."""
        emit = self._emit
        if emit is not None:
            emit((FAULT, self.pc, 0, self.instret, self.ucycles))
        return StopEvent(StopReason.FAULT, self.pc, fault=str(e))

    def step(self) -> StopEvent | None:
        """Execute one instruction.  Returns a StopEvent on
        exit/breakpoint/fault, else None."""
        if self._fresh:
            self._enter()
        try:
            self._closure_at(self.pc)()
        except ExitTrap as e:
            self.exit_code = e.code
            return StopEvent(StopReason.EXITED, self.pc, exit_code=e.code)
        except BreakpointHit as e:
            if self._redirect(e.pc):
                return None
            return StopEvent(StopReason.BREAKPOINT, e.pc)
        except (SimFault, MemoryFault, DecodeError) as e:
            return self._fault(e)
        return None

    def run(self, max_steps: int | None = None, *,
            report=None, trace: EventStream | None = None,
            max_instructions: int | None = None) -> StopEvent:
        """Run until exit, breakpoint, fault, or *max_steps*.

        Unbounded runs use the trace compiler (when enabled); bounded
        runs need a per-instruction step budget and stay on the closure
        interpreter.

        *max_instructions* is a **hard budget**, not a cooperative
        bound: retiring that many instructions without stopping raises
        :class:`InstructionBudgetExceeded` (a catchable
        :class:`~repro.errors.ReproError`) after emitting a final FAULT
        event to any attached streams.  Use it to bound runaway
        mutatees; use *max_steps* to single-step or slice execution.
        Budgeted runs count per-instruction and therefore stay on the
        closure interpreter, like any bounded run.

        *trace* attaches an :class:`~repro.telemetry.events.EventStream`
        observer for the duration of this run only (equivalent to
        :meth:`attach_observer` / :meth:`detach_observer` around the
        call).  While any observer is attached the run loop follows the
        observer-overhead rule (docs/INTERNALS.md): closures and traces
        emit from the instructions that transfer control, and the run
        takes the loop an unobserved one would, except that an
        instruction-granularity stream keeps it on the closure
        interpreter.  With no observer attached, event support costs
        one check per ``run()`` call and one per closure built —
        nothing per instruction.

        *report* asks for a per-run summary (instructions retired,
        simulated vs. host time, MIPS, trace-cache activity): ``True``
        prints it, a file-like object receives ``write(text)``.  When
        the process telemetry recorder is active (see
        :mod:`repro.telemetry`), every run additionally flushes
        ``sim.*`` counters, the ``sim.run`` span and the ``sim.mips``
        gauge — with telemetry disabled and no report requested, this
        method costs one attribute check over the raw hot loop.
        """
        if trace is not None:
            self.attach_observer(trace)
            try:
                return self.run(max_steps, report=report,
                                max_instructions=max_instructions)
            finally:
                self.detach_observer(trace)
        if max_instructions is not None:
            return self._run_budgeted(max_steps, report, max_instructions)
        rec = telemetry.current()
        if not rec.enabled and not report:
            return self._dispatch_run(max_steps)
        return self._run_observed(max_steps, rec, report)

    def _run_budgeted(self, max_steps: int | None, report,
                      budget: int) -> StopEvent:
        """Run under a hard instruction budget (see :meth:`run`)."""
        if budget <= 0:
            raise InstructionBudgetExceeded(self.pc, 0, budget)
        start = self.instret
        bound = budget if max_steps is None else min(max_steps, budget)
        ev = self.run(bound, report=report)
        if ev.reason is StopReason.STEPS_EXHAUSTED and (
                max_steps is None or budget <= max_steps):
            emit = self._emit
            if emit is not None:
                emit((FAULT, self.pc, 0, self.instret, self.ucycles))
            rec = telemetry.current()
            if rec.enabled:
                rec.count("sim.budget_exceeded")
            raise InstructionBudgetExceeded(
                self.pc, self.instret - start, budget)
        return ev

    def _dispatch_run(self, max_steps: int | None) -> StopEvent:
        """Pick the run loop.  Observed runs take the loop an unobserved
        one would, except that an instruction-granularity observer
        keeps the run on the closure interpreter: traces emit block
        enters only."""
        if self._emit is not None:
            if self._fresh:
                self._enter()
            if self._per_insn:
                return self._run_interp(max_steps)
        if max_steps is None and self.trace_compile:
            return self._run_traced()
        return self._run_interp(max_steps)

    def _run_observed(self, max_steps: int | None, rec,
                      report) -> StopEvent:
        """Telemetry/reporting wrapper around the raw run loops."""
        traces = self.traces
        instret0, ucycles0 = self.instret, self.ucycles
        base = (traces.invalidations, traces.hits, traces.mega_compiles,
                traces.deopt_count[0], traces.alias_guard_misses)
        self._count_hits = rec.enabled or bool(report)
        t0 = time.perf_counter()
        try:
            ev = self._dispatch_run(max_steps)
        finally:
            self._count_hits = False
        elapsed = time.perf_counter() - t0
        retired = self.instret - instret0
        mips = retired / elapsed / 1e6 if elapsed > 0 else 0.0
        deltas = {
            "invalidations": traces.invalidations - base[0],
            "hits": traces.hits - base[1],
            "megatraces_compiled": traces.mega_compiles - base[2],
            "deopts": traces.deopt_count[0] - base[3],
            "alias_guard_misses": traces.alias_guard_misses - base[4],
        }
        if rec.enabled:
            rec.record_span("sim.run", elapsed)
            rec.count("sim.runs")
            rec.count("sim.instructions_retired", retired)
            rec.count("sim.ucycles", self.ucycles - ucycles0)
            for name, n in deltas.items():
                rec.count(f"sim.trace.{name}", n)
            rec.gauge("sim.mips", mips)
        if report:
            text = self._run_report(ev, retired, ucycles0, elapsed, mips,
                                    deltas)
            if report is True:
                print(text, end="")
            else:
                report.write(text)
        return ev

    def _run_report(self, ev: StopEvent, retired: int, ucycles0: int,
                    elapsed: float, mips: float, deltas: dict) -> str:
        lines = [
            f"sim.run: {ev.reason.value} at pc={ev.pc:#x}"
            + (f" exit={ev.exit_code}" if ev.exit_code is not None else "")
            + (f" fault={ev.fault}" if ev.fault else ""),
            f"  instructions retired   {retired:>14,}",
            f"  simulated cycles       "
            f"{(self.ucycles - ucycles0) // UCYCLE:>14,}",
            f"  host seconds           {elapsed:>14.3f}",
            f"  throughput (MIPS)      {mips:>14.2f}",
            f"  trace cache            "
            f"hits={deltas['hits']} "
            f"compiles={deltas['megatraces_compiled']} "
            f"invalidations={deltas['invalidations']}",
            f"  trace guards           "
            f"deopts={deltas['deopts']} "
            f"alias_guard_misses={deltas['alias_guard_misses']}",
        ]
        return "\n".join(lines) + "\n"

    def _run_traced(self) -> StopEvent:
        """Trace-mode hot loop: execute compiled traces, calling the
        successor each one returns (the trace its exit found in
        ``traces.fns``) without re-entering this loop.  A pc with no
        cache entry runs one closure step and counts one dispatch; a
        trace is rooted there once the count reaches
        ``traces.hot_threshold``.  Pcs the trace compiler rejects also
        step through their closure."""
        if self._count_hits:
            traces = self.traces
            raw_get = traces.fns.get

            def fns_get(pc):
                fn = raw_get(pc)
                if fn:
                    traces.hits += 1
                return fn
        else:
            fns_get = self.traces.fns.get
        compile_at = self.traces.compile_at
        dispatches = self.traces.dispatches
        seen = dispatches.get
        threshold = self.traces.hot_threshold
        icache = self._icache
        closure_at = self._closure_at
        self.code_dirty = False
        while True:
            try:
                while True:
                    pc = self.pc
                    fn = fns_get(pc)
                    if fn is None:
                        n = seen(pc, 0) + 1
                        if n >= threshold:
                            fn = compile_at(pc)
                        else:
                            dispatches[pc] = n
                    if fn:
                        while fn:
                            fn = fn()
                    else:
                        # cold pc, or a negative cache entry
                        # (ecall/ebreak/fences/csr/lr/sc)
                        cl = icache.get(pc)
                        if cl is None:
                            cl = closure_at(pc)
                        cl()
            except ExitTrap as e:
                self.exit_code = e.code
                return StopEvent(StopReason.EXITED, self.pc,
                                 exit_code=e.code)
            except BreakpointHit as e:
                if self._redirect(e.pc):
                    continue
                return StopEvent(StopReason.BREAKPOINT, e.pc)
            except (SimFault, MemoryFault, DecodeError) as e:
                return self._fault(e)

    def _run_interp(self, max_steps: int | None = None) -> StopEvent:
        """Seed per-pc closure loop (also the `REPRO_SIM_TRACES=0` and
        bounded-run path)."""
        icache = self._icache
        closure_at = self._closure_at
        remaining = max_steps
        while True:
            try:
                if remaining is None:
                    while True:
                        cl = icache.get(self.pc)
                        if cl is None:
                            cl = closure_at(self.pc)
                        cl()
                else:
                    while remaining > 0:
                        cl = icache.get(self.pc)
                        if cl is None:
                            cl = closure_at(self.pc)
                        cl()
                        remaining -= 1
                    return StopEvent(StopReason.STEPS_EXHAUSTED, self.pc)
            except ExitTrap as e:
                self.exit_code = e.code
                return StopEvent(StopReason.EXITED, self.pc,
                                 exit_code=e.code)
            except BreakpointHit as e:
                if self._redirect(e.pc):
                    continue
                return StopEvent(StopReason.BREAKPOINT, e.pc)
            except (SimFault, MemoryFault, DecodeError) as e:
                return self._fault(e)


def run_program(program: Program, timing: TimingModel = P550,
                max_steps: int | None = None) -> tuple[Machine, StopEvent]:
    """Convenience: load and run a program to completion."""
    m = Machine(timing)
    m.load_program(program)
    ev = m.run(max_steps)
    return m, ev
