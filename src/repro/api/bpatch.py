"""The high-level toolkit facade (Dyninst's BPatch layer).

One import gives tools the whole stack with the paper's Figure 1 flows:

* **static rewriting** — :func:`open_binary` -> :class:`BinaryEdit` ->
  instrument -> :meth:`BinaryEdit.rewrite` -> new executable;
* **dynamic, create** — :meth:`BinaryEdit.create_process` (stopped at
  entry) -> instrument -> run;
* **dynamic, attach** — :func:`attach` to a running simulator machine ->
  instrument -> resume.

Tools written against this layer contain no RISC-V specifics: points and
snippets are the machine-independent abstractions of §2.2.

The v2 session surface:

* **analysis is immutable and shared**: :func:`repro.api.analyze`
  produces a frozen :class:`~repro.api.analysis.Analysis` (symtab +
  CFG + liveness) that any number of concurrent :class:`BinaryEdit`
  sessions *borrow* — and that the content-addressed artifact store
  (:mod:`repro.artifacts`) caches across processes;
* configuration travels in a frozen :class:`InstrumentOptions`;
* :func:`open_binary` returns a context-manager session —
  ``with open_binary(prog) as edit: ...`` — and accepts an ELF path
  alongside bytes/Program/Symtab/Analysis;
* :meth:`BinaryEdit.batch` scopes a group of insertions and commits
  them once on exit;
* every user mistake raises an :class:`ApiError` (a
  :class:`repro.errors.ReproError`), never a bare builtin;
* :attr:`BinaryEdit.telemetry` exposes the pipeline's telemetry
  snapshot (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .. import telemetry
from ..codegen.snippets import Snippet, Variable
from ..errors import ReproError  # noqa: F401  (re-exported surface)
from ..parse.cfg import Function
from ..parse.parser import CodeObject
from ..patch.patcher import Patcher, PatchResult
from ..patch.points import Point, PointType, points_for
from ..patch.rewriter import load_instrumented, rewrite
from ..proccontrol.process import Process
from ..riscv.assembler import Program
from ..sim.machine import Machine
from ..sim.timing import P550, TimingModel
from ..symtab.symtab import Symtab
from .analysis import (
    SOURCE_KINDS, Analysis, AnalysisMismatchError, analyze,
)
from .errors import AlreadyCommittedError, ApiError, ClosedEditError
from .options import InstrumentOptions


def open_binary(source: bytes | Program | Symtab | Analysis | str
                | os.PathLike,
                options: InstrumentOptions | None = None, *,
                store=None) -> "BinaryEdit":
    """Open a mutatee for analysis and instrumentation.

    Accepts raw ELF bytes, a filesystem path to an ELF (``str`` or
    :class:`os.PathLike`), an assembled/compiled :class:`Program`, an
    existing :class:`Symtab`, or an already-computed
    :class:`~repro.api.analysis.Analysis` (the shared-analysis flow).
    The returned :class:`BinaryEdit` is a context manager::

        with open_binary(program) as edit:
            edit.insert(edit.points("main", PointType.FUNC_ENTRY), snip)
            blob = edit.rewrite()

    Configuration goes in *options* (an :class:`InstrumentOptions`).
    *store* is forwarded to :func:`repro.api.analyze` — with an
    artifact store, re-opening a byte-identical binary revives the
    cached analysis instead of re-parsing.  For many sessions against
    one binary, call :func:`analyze` once and hand each session the
    result (``BinaryEdit(analysis)``).
    """
    if isinstance(source, Analysis):
        return BinaryEdit(source, options)
    analysis = analyze(source, options, store=store)
    return BinaryEdit(analysis, options)


class BinaryEdit:
    """One mutatee *session*: snippet insertion and commit state over a
    borrowed, immutable :class:`~repro.api.analysis.Analysis`.

    The split matters for sharing: the analysis half (symtab, CFG,
    liveness) is read-only and safely referenced by N concurrent
    sessions; everything mutable — queued requests, the data area, the
    commit result — lives here, one instance per session.  Usable
    directly or as a context manager (the session closes on scope
    exit; a closed session rejects further instrumentation)."""

    def __init__(self, source: Analysis | Symtab,
                 options: InstrumentOptions | None = None):
        if isinstance(source, Analysis):
            analysis = source
            opts = options if options is not None else analysis.options
            if opts.analysis_fields() != analysis.options.analysis_fields():
                raise AnalysisMismatchError(
                    "session options disagree with the borrowed "
                    f"Analysis on {sorted(opts.ANALYSIS_FIELDS)}; "
                    "run analyze() with the new options instead")
        elif isinstance(source, Symtab):
            # direct-Symtab compatibility: analyze in place (no store)
            analysis = analyze(source, options, store=False)
            opts = analysis.options
        else:
            raise ApiError(
                f"BinaryEdit takes an Analysis or Symtab, got "
                f"{type(source).__name__}; for {SOURCE_KINDS} use "
                f"open_binary()/analyze()")
        self.analysis = analysis
        self.symtab = analysis.symtab
        self.options = opts
        self._telemetry = telemetry.current()
        self.cfg: CodeObject = analysis.cfg
        self._patcher = Patcher(
            self.symtab, self.cfg,
            use_dead_registers=opts.use_dead_registers,
            patch_base=opts.patch_base,
            data_size=opts.data_size,
            interprocedural_liveness=opts.interprocedural_liveness,
            liveness=analysis)
        self._result: PatchResult | None = None
        self._closed = False
        self._in_batch = False

    # -- session lifecycle -------------------------------------------------

    def __enter__(self) -> "BinaryEdit":
        if self._closed:
            raise ClosedEditError("BinaryEdit session already closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """End the session.  Idempotent; analysis results stay readable
        but further instrumentation raises :class:`ClosedEditError`."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def telemetry(self) -> dict:
        """Snapshot of the telemetry recorder observing this session
        (empty unless telemetry is enabled — see
        :mod:`repro.telemetry`)."""
        return self._telemetry.snapshot()

    # -- analysis ----------------------------------------------------------

    @property
    def isa(self):
        """The mutatee's ISA subset (SymtabAPI's extension discovery)."""
        return self.symtab.isa

    def functions(self) -> list[Function]:
        return sorted(self.cfg.functions.values(), key=lambda f: f.entry)

    def function(self, name: str) -> Function:
        fn = self.cfg.function_by_name(name)
        if fn is None:
            raise ApiError(f"no function named {name!r}")
        return fn

    def points(self, fn: Function | str, ptype: PointType) -> list[Point]:
        """Enumerate instrumentation points of one kind in a function."""
        if isinstance(fn, str):
            fn = self.function(fn)
        return points_for(fn, ptype)

    # -- instrumentation ---------------------------------------------------------

    def allocate_variable(self, name: str, size: int = 8) -> Variable:
        return self._patcher.allocate_var(name, size)

    def insert(self, points: Point | list[Point], snippet: Snippet) -> None:
        """Queue the Dyninst (P, AST) insertion."""
        self._ensure_uncommitted()
        self._patcher.insert(points, snippet)

    def replace_function(self, old: Function | str,
                         new: Function | str) -> None:
        """Divert every call of *old* into *new* (Dyninst's
        replaceFunction)."""
        self._ensure_uncommitted()
        if isinstance(old, str):
            old = self.function(old)
        if isinstance(new, str):
            new = self.function(new)
        self._patcher.replace_function(old, new.entry)

    def replace_call(self, point: Point, new: Function | str) -> None:
        """Retarget one call site to a different function."""
        self._ensure_uncommitted()
        if isinstance(new, str):
            new = self.function(new)
        self._patcher.replace_call(point, new.entry)

    def delete_instruction(self, point: Point) -> None:
        """Remove the instruction at *point* from the execution (combine
        with :meth:`insert` at the same point to *modify* it)."""
        self._ensure_uncommitted()
        self._patcher.delete_instruction(point)

    @contextmanager
    def batch(self):
        """Scope a group of ``insert``/``replace_*`` calls and commit
        them once on exit::

            with edit.batch() as b:
                b.insert(entry_points, IncrementVar(calls))
                b.replace_call(site, "fast_path")
            # committed here — exactly once, only on success

        The block body only *queues* requests (exactly like bare
        ``insert`` calls); leaving the block normally triggers the
        single :meth:`commit`.  If the body raises, nothing is
        committed.  Entering a batch on an already-committed (or
        closed) edit raises immediately, and batches do not nest.

        Two-phase semantics all the way down: a failed :meth:`commit`
        leaves the edit uncommitted (retry-safe), and applying the
        result to a live machine is itself transactional — see
        :meth:`~repro.patch.patcher.PatchResult.apply_to_machine` and
        the commit-protocol section of docs/INTERNALS.md.
        """
        self._ensure_uncommitted()
        if self._in_batch:
            raise ApiError("batch() blocks cannot nest")
        self._in_batch = True
        try:
            yield self
        finally:
            self._in_batch = False
        self.commit()

    def commit(self) -> PatchResult:
        """Build all trampolines/springboards (idempotent).

        Pure with respect to any machine: failures here touch nothing
        and may simply be retried; mutation happens only in the
        transactional ``apply_to_machine`` step."""
        if self._closed and self._result is None:
            raise ClosedEditError(
                "cannot commit: BinaryEdit session is closed")
        if self._result is None:
            self._result = self._patcher.commit()
        return self._result

    def _ensure_uncommitted(self) -> None:
        if self._closed:
            raise ClosedEditError(
                "BinaryEdit session is closed; open a new one to "
                "instrument again")
        if self._result is not None:
            raise AlreadyCommittedError(
                "instrumentation already committed; a BinaryEdit "
                "commits once — queue further changes in a new edit "
                "(or group them in one batch() block)")

    # -- the three Figure-1 flows --------------------------------------------------

    def rewrite(self) -> bytes:
        """Static binary rewriting: produce the instrumented ELF."""
        return rewrite(self.symtab, self.commit())

    def create_process(self, timing: TimingModel = P550,
                       instrumented: bool = True) -> Process:
        """Dynamic (create): new process stopped at entry, optionally
        with the queued instrumentation already applied."""
        proc = Process.create(self.symtab, timing=timing)
        if instrumented and self._patcher._requests:
            self.commit().apply_to_machine(proc.machine)
        return proc

    def attach_and_instrument(self, machine: Machine) -> Process:
        """Dynamic (attach): take control of a running machine and apply
        the queued instrumentation."""
        proc = Process.attach(machine, self.symtab)
        if self._patcher._requests:
            self.commit().apply_to_machine(machine)
        return proc

    # -- convenience ------------------------------------------------------------------

    def run_instrumented(self, timing: TimingModel = P550,
                         max_steps: int | None = None):
        """Commit, load, run; returns (machine, stop event)."""
        m = Machine(timing)
        self.symtab.load_into(m)
        if self._patcher._requests:
            self.commit().apply_to_machine(m)
        return m, m.run(max_steps)

    def trace(self, timing: TimingModel = P550,
              max_steps: int | None = None, *,
              max_instructions: int | None = None,
              granularity: str = "instruction",
              capacity: int | None = None,
              instrumented: bool = True) -> "TraceSession":
        """Run the mutatee under an execution-event observer and return
        a :class:`~repro.api.tracesession.TraceSession` bundling the
        event stream with its derived views (call spans, Perfetto JSON,
        folded-stack flamegraph, per-block heat)::

            with open_binary(program) as edit:
                session = edit.trace()
                session.write_flamegraph("out.folded")

        *granularity* is ``"instruction"`` (full event vocabulary; the
        simulator stays on its interpreter) or ``"block"`` (block-enter
        events only, the same ones; the trace compiler stays engaged
        and compiles only warm code) — see the observer-overhead rule in
        docs/INTERNALS.md.  When the
        process telemetry recorder is timeline-enabled, the session
        carries a snapshot so the Perfetto export gains the pipeline
        track.

        *max_instructions* bounds runaway mutatees: exceeding the
        budget raises
        :class:`~repro.sim.machine.InstructionBudgetExceeded` (a
        catchable :class:`~repro.errors.ReproError`) with the partial
        session — events captured up to the budget — attached as
        ``exc.session``.
        """
        from ..telemetry.events import DEFAULT_CAPACITY
        from .tracesession import run_traced
        if self._closed:
            raise ClosedEditError(
                "cannot trace: BinaryEdit session is closed")
        result = None
        if instrumented and (self._patcher._requests
                             or self._result is not None):
            result = self.commit()
        session = run_traced(
            self.symtab, self.cfg, result, timing=timing,
            max_steps=max_steps, max_instructions=max_instructions,
            granularity=granularity,
            capacity=capacity or DEFAULT_CAPACITY)
        if self._telemetry.enabled:
            session.snapshot = self._telemetry.snapshot()
        return session

    def read_variable(self, machine: Machine, var: Variable) -> int:
        return machine.mem.read_int(var.address, var.size)


def attach(machine: Machine, symtab: Symtab) -> Process:
    """Attach to a running simulator machine (no instrumentation)."""
    return Process.attach(machine, symtab)


#: transient code/data area used by one_time_code (outside normal maps)
_OTC_BASE = 0x7F00_0000


def one_time_code(process: Process, code, *,
                  isa=None, max_steps: int = 100_000):
    """Execute a snippet (or evaluate an expression) in the context of a
    stopped process, immediately — Dyninst's oneTimeCode.

    The payload runs with the mutatee's current register/memory state
    visible; the full hart state is snapshotted and restored afterwards,
    so the mutatee cannot observe the excursion (memory writes the
    snippet performs, of course, persist — that is the point).

    When *code* is an :class:`~repro.codegen.snippets.Expr`, its value
    is returned.
    """
    from ..codegen.generator import SnippetGenerator
    from ..codegen.snippets import (
        Expr as SnExpr, SetVar, Snippet as SnStmt, Variable,
    )
    from ..riscv.encoder import encode
    from ..riscv.extensions import RV64GC
    from ..riscv.registers import SCRATCH_CANDIDATES
    from ..sim.machine import StopReason

    m = process.machine
    result_var = Variable("$otc_result", _OTC_BASE)
    is_expr = isinstance(code, SnExpr)
    snippet: SnStmt = SetVar(result_var, code) if is_expr else code
    if not isinstance(snippet, SnStmt):
        raise ApiError(f"one_time_code takes a Snippet or Expr, "
                       f"got {type(code).__name__}")

    gen = SnippetGenerator(isa or (process.symtab.isa if process.symtab
                                   else RV64GC),
                           list(SCRATCH_CANDIDATES))
    blob = gen.generate(snippet).encode()
    blob += encode("ebreak").to_bytes(4, "little")

    # snapshot hart state
    saved = (list(m.x), list(m.f), m.pc, dict(m.trap_redirects))
    code_base = _OTC_BASE + 64
    m.mem.map_region(_OTC_BASE, len(blob) + 128)
    m.add_exec_range(code_base, code_base + len(blob))
    m.write_mem(code_base, blob)
    m.pc = code_base
    try:
        stop = m.run(max_steps=max_steps)
        if stop.reason is not StopReason.BREAKPOINT or \
                stop.pc != code_base + len(blob) - 4:
            raise ApiError(f"one_time_code did not complete: {stop}")
        if is_expr:
            return m.mem.read_int(result_var.address, 8)
        return None
    finally:
        m.x[:] = saved[0]
        m.f[:] = saved[1]
        m.pc = saved[2]
        m.trap_redirects = saved[3]


def load_rewritten(machine: Machine, elf_bytes: bytes) -> Symtab:
    """Load a statically rewritten binary (installs trap springboard
    redirects)."""
    return load_instrumented(machine, elf_bytes)
