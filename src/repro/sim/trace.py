"""Trace JIT for the simulator hot loop.

Cold code.  A pc with no trace-cache entry runs one instruction on the
machine's per-pc closure interpreter and adds one to its dispatch
count.  Most of an instrumented whole binary executes only a few times,
and building a closure is far cheaper than compiling a trace, so
nothing is compiled until the code proves warm.

Looping traces.  Once a pc has been dispatched :data:`HOT_THRESHOLD`
times, :meth:`TraceCache.compile_at` roots a trace there.
:meth:`TraceCache._walk` drives one emitter, :class:`_TraceEmitter`,
along the path from that pc: past forward branches (guarded side
exits), into direct calls, and back through returns whose target
constant-folds (``jal`` makes the link register a known constant).
When the path returns to its root the trace loops: its iterations run
inside a ``while True:`` loop and never return to the dispatch loop,
with registers and forwarded memory values kept in locals across the
back edge.  A path that never returns to its root (straight-line code
entered once per call, say) ends at its exits.  Either way the trace
charges timing as **one batched ucycle charge** per exit, bumps
``instret`` once, and ends every exit with ``return FG(pc)``, where
``FG`` is :attr:`TraceCache.fns`'s ``get``: it returns the trace
compiled at the exit's pc, which the run loop calls next without a
dispatch, or a false value that sends the run loop back to its dispatch
loop.  A pc whose first instruction cannot be traced
(ecall/ebreak/fences/CSR reads/``lr``/``sc``) gets a negative entry and
stays on the interpreter.

The emitter inlines every instruction the SAIL IR covers as the source
:mod:`repro.semantics.lower` renders (no per-instruction call at all,
F/D and AMOs included).  Integer registers live in Python **locals**,
spilled to the architectural ``x`` list only at exits and faults; the
lowering folds immediates and registers known constant into the
source it emits (``li``/``lui``/``auipc`` chains become literals), and
a constant write still assigns its local, so every local holds its
register's value at every exit and fault.  Loaded and
stored values are forwarded to later loads of the same address.  A
load reads its page in place, and a store to an unwatched page writes
it in place, through :mod:`repro.sim.memory`'s precompiled ``struct``
accessors (``U8(pg, o)[0]``, ``P8(pg, o, v)``, bound into a trace's
namespace on first use); an access that leaves its page, or whose page
is not created yet, calls ``Memory.read_int``/``write_int``.  Doubles
stay Python floats from page to page: ``fld`` unpacks one straight into
its ``g<rd>`` local, double arithmetic computes on them, ``fsd`` of a
live float packs it straight back, and ``fr[]`` bits are packed only at
exits, faults and where an instruction reads an F register's bits.  A
NaN result of double arithmetic becomes the canonical NaN as it lands
in its ``g<rd>`` local, as the ISA requires.

Stores kill forwarded values by alias class: a constant-address store
(an instrumentation counter) keeps the values addressed through a base
register the loop never writes, such as the stack slots under ``sp``,
and a store through such a register keeps the constant-address ones.
An entry guard checks, once per entry, that those registers' accesses
miss the constant addresses; when it fails, the root is recompiled with
no such assumption.

An indirect jump (``jalr``) whose target does not fold ends the trace
the same way, with ``return FG(t)`` for the target ``t`` it computed,
unless it lands on the trace's own root, where the loop iterates.

Patch safety
------------
Dynamic instrumentation rewrites code while it runs, so the trace cache
must never execute stale bytes:

* every write overlapping an executable range (self-modifying stores,
  ``Machine.write_mem`` from the patcher/ProcControl, breakpoint
  insertion) reaches :meth:`TraceCache.invalidate_range` through the
  :class:`~repro.sim.memory.Memory` write watch; generated stores test
  the watch's page set, which ``add_exec_range`` updates in place, so a
  resident trace sees code ranges added after it compiled;
* invalidation drops every trace (and negative entry) any of whose
  instruction **spans** overlap the written bytes (with the same 3-byte
  pre-slack as the per-pc icache: a patched instruction may start up to
  3 bytes before the written address) from ``fns`` — a trace tracks one
  span per contiguous stretch of code it inlined, so a write into a
  callee drops a trace that inlined it even when its root lives pages
  away.  Traces reach each other only through ``fns``, so that is all
  invalidation has to undo;
* a store *inside* a running trace that invalidates any trace sets
  ``machine.code_dirty``; the generated code spills cached registers,
  syncs architectural state and exits the trace right after that store
  (counted under ``trace.deopts``), so the remaining (possibly
  rewritten) tail is re-fetched through the cache.

Traces keep architectural state exact at every *observable* boundary:
trace entry/exit, a store that rewrites code, and any faulting
load/store (a per-trace side table maps the fault site back to precise
pc/ucycles/instret and dirty float locals, and the generated exception
handler spills register locals — which hold exactly the pre-fault
architectural values — before re-raising).
Single-stepping, watchpoint runs and bounded ``run(max_steps=...)``
stay on the per-pc closure interpreter.  A trace compiled while a
block-granularity event observer is attached emits a block enter at
every transfer its path follows: at a taken side exit before it
leaves, before a dynamic ``jalr`` exit, at every back edge, and where a
followed branch or jump lands.  It never emits at its entry: whatever
transferred control there already did (a control-flow closure of the
interpreter, another trace's exit, a trap redirect).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import faults
from ..riscv.decoder import DecodeError, decode
from ..semantics.floats import QNAN64, b64, f64
from ..semantics.lower import ARITH, EXACT, HELPERS, Lowering, Val, const, sx
from ..semantics.registry import semantics_for
from .executor import SimFault
from .memory import PACK, UNPACK, MemoryFault
from .timing import category_of

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: maximum instructions inlined into one trace
MAX_MEGA = 256

#: dispatches of an uncompiled pc before a trace is rooted there
HOT_THRESHOLD = 32

#: 64-bit mask literal used throughout generated code
_M64 = "0xFFFFFFFFFFFFFFFF"
_MASK64 = (1 << 64) - 1

PAGE_BITS = 12

#: placeholders in generated trace source, expanded at build time: a
#: register spill (once the trace's full written-register set is known)
#: and a back edge's float write-back (once the steady-state seeds are);
#: each carries the F registers whose float locals are dirty there
_SPILL = "\x00SPILL"
_FPSYNC = "\x00FPSYNC"


def _lower(emit, pc: int, instr):
    """*instr*'s semantics lowered for emitter *emit*, or ``None`` when
    the IR does not cover it or it ends a trace (fences)."""
    mn = instr.mnemonic
    sem = semantics_for(mn)
    if sem is None or mn in ("fence", "fence.i"):
        return None
    lw = Lowering(sem, emit, instr.fields, pc, instr.length)
    for name in lw.helpers:
        emit.ns.setdefault(name, HELPERS[name])
    return lw


class TraceCache:
    """Compiled-trace cache with range invalidation.
    :meth:`compile_at` roots a trace at every warm pc, built by
    :meth:`_compile_mega`."""

    def __init__(self, machine: "Machine"):
        self.m = machine
        #: dispatches before a cold pc compiles.  Read when a run
        #: starts: set it before the first run.
        self.hot_threshold = HOT_THRESHOLD
        #: uncompiled pc -> dispatches so far on the closure interpreter
        #: (the run loop binds this dict; mutate in place only)
        self.dispatches: dict[int, int] = {}
        #: entry pc -> trace function (``False`` = negative entry: the
        #: pc starts with an untraceable instruction).  The run loop and
        #: every trace's exits bind ``fns.get``; mutate in place only.
        self.fns: dict[int, object] = {}
        #: entry pc -> merged [lo, hi) code intervals its trace compiled
        #: from, one per inlined stretch of code
        self._spans: dict[int, list[tuple[int, int]]] = {}
        #: code page -> entry pcs of the traces whose spans touch it
        self._pages: dict[int, set[int]] = {}
        # -- statistics (reported by the throughput ablation and the
        # telemetry subsystem)
        #: traces compiled (alias-guard recompiles included)
        self.mega_compiles = 0
        #: always 0: the counts of the retired non-looping tier and of
        #: the retired ``jalr`` inline caches, kept because perfbench
        #: still reads all three
        self.compiles = 0
        self.jalr_hits = [0]
        self.jalr_misses = [0]
        self.invalidations = 0
        #: dispatch-loop hits on a compiled trace; bumped only during
        #: telemetry-observed runs (a trace exit that finds its
        #: successor in ``fns`` bypasses the dispatch loop and is not
        #: counted)
        self.hits = 0
        #: early exits from compiled traces forced by invalidation
        #: (code_dirty after a store; a one-element list so traces bump
        #: it without an attribute lookup)
        self.deopt_count = [0]
        #: trace entries whose alias guard failed (each one replaced the
        #: trace with a conservative recompile of its head)
        self.alias_guard_misses = 0

    # -- management ------------------------------------------------------

    def clear(self) -> None:
        """Full flush (fence.i / load_image / observer mode change)."""
        if self.fns:
            self.invalidations += 1
        self.fns.clear()
        self._spans.clear()
        self._pages.clear()
        self.dispatches.clear()

    def invalidate_range(self, addr: int, size: int) -> None:
        """Drop every trace overlapping the written bytes
        ``[addr, addr+size)`` (3-byte pre-slack: an instruction starting
        just before *addr* may extend into the write)."""
        faults.site("sim.trace.invalidate")
        lo = addr - 3
        hi = addr + size
        first = lo >> PAGE_BITS
        last = (hi - 1) >> PAGE_BITS
        dropped = False
        for page in range(first, last + 1):
            bucket = self._pages.get(page)
            if not bucket:
                continue
            stale = [e for e in bucket
                     if any(s_lo < hi and s_hi > lo
                            for s_lo, s_hi in self._spans[e])]
            for entry in stale:
                self._drop(entry)
                dropped = True
        if dropped:
            self.invalidations += 1
            # a running trace exits at its next store / block boundary
            self.m.code_dirty = True

    @staticmethod
    def _pages_of(spans):
        pages = set()
        for lo, hi in spans:
            pages.update(range(lo >> PAGE_BITS,
                               ((hi - 1) >> PAGE_BITS) + 1))
        return pages

    def _drop(self, entry: int) -> None:
        self.fns.pop(entry, None)
        for page in self._pages_of(self._spans.pop(entry)):
            bucket = self._pages.get(page)
            if bucket is not None:
                bucket.discard(entry)

    def _install(self, pc: int, built):
        """Bind the trace ``(fn, spans)`` built at *pc*, replacing
        whatever is bound there; ``None`` binds a negative entry, which
        the dispatch loop runs on the interpreter until the code under
        *pc* is rewritten.  Returns the function (``False`` for a
        negative entry)."""
        if pc in self._spans:
            self._drop(pc)
        if built is None:
            fn, spans = False, [(pc, pc + 4)]
        else:
            fn, spans = built
            self.mega_compiles += 1
        self.fns[pc] = fn
        self._spans[pc] = spans
        for page in self._pages_of(spans):
            self._pages.setdefault(page, set()).add(pc)
        return fn

    def _alias_miss(self, head: int):
        """Entry guard of the trace rooted at *head* failed: a base
        register it assumed disjoint addresses one of its constant
        addresses.  Called from the trace prologue with ``m.pc ==
        head`` and no state touched.  Replaces the trace with one
        compiled under no assumption and returns it to run instead.
        When that compile fails the head gets a negative entry, which
        hands it back to the dispatch loop (never the failing trace,
        which would re-enter forever)."""
        self.alias_guard_misses += 1
        return self._install(head, self._compile_mega(head, assume=False))

    # -- compilation -----------------------------------------------------

    def compile_at(self, pc: int):
        """Root a trace at *pc* (called by the run loop once *pc* is
        warm; see :attr:`hot_threshold`).

        Returns the trace function, or ``False`` when *pc* starts with
        an instruction that must run through the closure interpreter
        (the negative result is cached and invalidated like a real
        trace).
        """
        faults.site("sim.trace.compile")
        return self._install(pc, self._compile_mega(pc))

    def _fetch(self, pc: int):
        mem = self.m.mem
        try:
            raw = mem.read_bytes(pc, 4)
        except MemoryFault:
            raw = mem.read_bytes(pc, 2)  # page-end compressed instr
        return decode(raw, 0, pc)

    def _walk(self, emit: "_TraceEmitter", head: int) -> None:
        """Drive one emission pass from *head*: follow the path
        (guarding forward branches, following direct calls and
        constant-folded returns) until it returns to *head*, leaves
        through an exit, reaches a pc it already passed, or hits
        :data:`MAX_MEGA`, stopping before an instruction it cannot
        trace."""
        pc = head
        visited: set[int] = set()
        for _ in range(max(MAX_MEGA - emit.count, 1)):
            if pc == head and emit.count:
                emit.close_loop()
                return
            if pc in visited:
                break
            try:
                instr = self._fetch(pc)
            except (DecodeError, MemoryFault):
                break
            visited.add(pc)
            lw = _lower(emit, pc, instr)
            if lw is not None and lw.target is not None:
                pc = emit.emit_transfer(pc, instr, lw)
            elif emit.emit_straight(pc, instr, lw):
                pc += instr.length
            else:
                break
            if pc is None:  # the emitter closed or exited the trace
                return
        emit.exit(f"{pc:#x}")

    def _compile_mega(self, head: int, assume: bool = True):
        """Build the trace rooted at *head*.

        With *assume*, every base register starts out assumed to
        address memory disjoint from the trace's constant addresses
        (see :meth:`_TraceEmitter._store_invalidate`).  A base the
        finished trace writes cannot be checked once at entry, so the
        trace is re-emitted without the registers it writes whenever
        it relied on one of them.

        Returns ``(fn, spans)`` or ``None``."""
        assumed = frozenset(range(1, 32)) if assume else frozenset()
        while True:
            emit = self._emit_mega(head, assumed)
            if emit is None:
                return None
            if not emit.relied & emit.written:
                return emit.build_result()
            assumed -= emit.written

    def _emit_mega(self, head: int, assumed: frozenset):
        """Emit the trace rooted at *head*.  A path that returns to
        *head* becomes a loop of two stitched bodies: a
        straight-line **warmup** pass for the first iteration, then a
        steady-state ``while True:`` body spliced in at every point the
        warmup returns to the head.  The steady-state body is emitted
        with the warmup's surviving constants and forwarded memory
        values as seeds, so loop-invariant stack slots load once per
        loop *entry* instead of once per iteration; a fixpoint drops
        any seed that is invalidated inside the steady-state body
        (stores, base-register writes) or that fails to re-establish
        itself by the back edge — either would be stale on the next
        iteration.

        Returns the finished emitter, or ``None`` for an empty trace."""
        emit = _TraceEmitter(self, head, assumed)
        self._walk(emit, head)
        if emit.count == 0:
            return None
        if emit.closed:
            seed_consts, seed_mem, seed_fp, seed_fp_mem = \
                emit.seed_from_close_sites()
            for _ in range(64):
                snap = emit.snapshot()
                emit.begin_fast(seed_consts, seed_mem, seed_fp,
                                seed_fp_mem)
                self._walk(emit, head)
                if not (emit.killed_seeds or emit.killed_consts
                        or emit.killed_fp or emit.killed_fp_mem):
                    break
                emit.restore(snap)
                seed_mem = {k: v for k, v in seed_mem.items()
                            if k not in emit.killed_seeds}
                seed_consts = {r: v for r, v in seed_consts.items()
                               if r not in emit.killed_consts}
                seed_fp = {r: d for r, d in seed_fp.items()
                           if r not in emit.killed_fp}
                seed_fp_mem = {k: r for k, r in seed_fp_mem.items()
                               if k not in emit.killed_fp_mem
                               and r not in emit.killed_fp}
        return emit


class _TraceEmitter:
    """Generates the Python source of one compiled trace, with the
    referenced integer registers cached in Python locals and immediates
    constant-folded at emission time.  A path that returns to the
    trace's root *entry* becomes a ``while True:`` loop.  As a lowering
    target it keeps doubles as Python floats (``floats``)."""

    floats = True

    def __init__(self, cache: TraceCache, entry: int,
                 assumed: frozenset = frozenset()):
        self.cache = cache
        m = self.m = cache.m
        self.entry = entry
        self.lines: list[str] = []
        #: namespace the generated function closes over (via default
        #: arguments)
        self.ns = {
            "m": m, "x": m.x, "fr": m.f, "WP": m.mem._watch_pages,
            "ri": m.mem.read_int, "si": m.mem.write_int,
            "PG": m.mem._pages.get, "FG": cache.fns.get,
            "sx": sx, "D": cache.deopt_count, "F64": f64, "B64": b64,
            "MF": MemoryFault, "SF": SimFault,
        }
        self.count = 0
        self.cost = 0
        # block-granularity observation: block-enter emits are compiled
        # into the trace (see :meth:`block_event`).  Only block-observed
        # runs dispatch traces, and _rebuild_emit flushes the cache
        # whenever their emit fan-out changes, so binding the current
        # emit callable at compile time is safe.
        self.events = m._emit is not None
        if self.events:
            self.ns["EV"] = m._emit
        #: base registers assumed to address memory disjoint from every
        #: constant address the trace accesses (the alias classes of
        #: :meth:`_store_invalidate`)
        self.assumed = assumed
        #: forwarding key -> assumed bases a store was let past its
        #: entry under
        self.kept: dict[tuple, set[int]] = {}
        #: assumed bases whose kept entries were read or carried over a
        #: back edge; the entry guard checks each one
        self.relied: set[int] = set()
        #: base register -> [lo, hi) offsets of its accesses
        self.extents: dict[int, list[int]] = {}
        #: [lo, hi) hull of the constant-address accesses
        self.hull: list[int] | None = None
        self.sync_pc = [entry]
        self.sync_cost = [0]
        self.sync_count = [0]
        #: emission-time constant values per register (linear
        #: const-prop; x0 is always 0).  An entry here means "the
        #: emission-order-last write to this register was the literal" —
        #: re-executed every iteration, so it holds at runtime on every
        #: iteration, not just the first.  Reads fold to the literal; the
        #: write still assigns the register's local, which spills and
        #: the fault handler read.
        self.consts: dict[int, int] = {0: 0}
        #: integer registers whose Python local is referenced anywhere
        #: (loaded from ``x`` in the prologue)
        self.localized: set[int] = set()
        #: integer registers written (spilled at exits and faults)
        self.written: set[int] = set()
        #: known memory values: (base reg | None, offset, size) ->
        #: temp-local holding the loaded/stored bytes (little-endian
        #: unsigned).  ``None`` base keys absolute (const) addresses.
        #: A slot ``fsd`` wrote from a float is in :attr:`fp_mem` only.
        self.mem_known: dict[tuple, str] = {}
        #: covered [pc, pc+len) unit intervals, merged into spans later
        self._pcs: list[tuple[int, int]] = []
        # -- two-body emission state (warmup + steady state) --------------
        #: True once any close site (path back to the head) was emitted
        self.closed = False
        #: emitting the steady-state body (seeded, loops on itself)
        self.fast = False
        #: warmup body lines once begin_fast moved emission over; the
        #: active ``self.lines`` then hold the steady-state body
        self.warm_lines: list[str] | None = None
        #: emission-state snapshots at each warmup close site — their
        #: agreement is what may be assumed at the loop top
        self.close_sites: list[tuple] = []
        #: seeds the current steady-state pass was emitted under, and
        #: the ones it failed to re-establish (feeding the driver's
        #: fixpoint)
        self.seed_consts: dict[int, int] = {}
        self.seed_mem: dict[tuple, str] = {}
        self.seed_fp: dict[int, tuple] = {}
        self.seed_fp_mem: dict[tuple, int] = {}
        self.killed_seeds: set[tuple] = set()
        self.killed_consts: set[int] = set()
        self.killed_fp: set[int] = set()
        self.killed_fp_mem: set[tuple] = set()
        # -- float-local cache (double precision only) --------------------
        #: fp regs whose float value is live in local ``g{reg}``
        #: (``g{reg} == F64(fr[reg])`` for the conceptual register)
        self.fp_float: set[int] = set()
        #: fp regs whose architectural ``fr[]`` slot is stale; the
        #: authoritative value is ``g{reg}`` (always ⊆ fp_float)
        self.fp_dirty: set[int] = set()
        #: access key -> fp reg whose ``g`` local holds the float of
        #: the memory value (killed with the reg's ``g`` redefinition
        #: and by aliasing stores); ``fld`` and ``fsd`` fill it
        self.fp_mem: dict[tuple, int] = {}
        #: per-ip dirty fp regs for the fault handler, parallel to
        #: P/U/N
        self.sync_fp: list[tuple] = [()]

    # -- register / const helpers ----------------------------------------

    def use(self, r: int) -> str:
        """Read expression for register *r* (a literal if const)."""
        c = self.consts.get(r)
        if c is not None:
            return f"{c:#x}" if c else "0"
        self.localized.add(r)
        return f"r{r}"

    def const_of(self, r: int):
        return self.consts.get(r)

    def set_const(self, r: int, val: int) -> None:
        if r == 0:
            return
        val &= _MASK64
        self.set_expr(r, f"{val:#x}")
        self.consts[r] = val

    def set_expr(self, r: int, expr: str) -> None:
        if r == 0:
            return
        self.consts.pop(r, None)
        self.localized.add(r)
        self.written.add(r)
        self.lines.append(f"r{r} = {expr}")
        self._forget_base(r)

    def _forget_base(self, r: int) -> None:
        """Writing register *r* invalidates forwarded memory values
        whose address depends on it."""
        if self.mem_known:
            for key in [k for k in self.mem_known if k[0] == r]:
                del self.mem_known[key]
        if self.fp_mem:
            for key in [k for k in self.fp_mem if k[0] == r]:
                del self.fp_mem[key]

    # -- float-local cache helpers ----------------------------------------
    #
    # Double-precision values live as plain Python floats in ``g{reg}``
    # locals: ``fld`` unpacks a page's double straight into one, and
    # ``fsd`` packs it straight back.  A ``<d`` unpack/pack round trip
    # keeps every bit pattern, signalling-NaN payloads included, so
    # packing ``fr[]`` bits only where they must be exact (exits,
    # faults, reads of an F register's bits) is bit-identical to packing
    # after every instruction.

    def _fp_kill_g(self, r: int) -> None:
        """Local ``g{r}`` is about to be reassigned: forwarded memory
        floats pointing at it are stale."""
        if self.fp_mem:
            for k in [k for k, v in self.fp_mem.items() if v == r]:
                del self.fp_mem[k]

    # -- bookkeeping helpers ---------------------------------------------

    def _charge(self, mn: str, instr) -> None:
        self.cost += self.m.timing.ucycles(
            category_of(mn, instr.spec.match & 0x7F))
        self.count += 1

    def _cover(self, pc: int, length: int) -> None:
        self._pcs.append((pc, pc + length))

    def _mark(self, pc: int) -> None:
        ip = len(self.sync_pc)
        self.sync_pc.append(pc)
        self.sync_cost.append(self.cost)
        self.sync_count.append(self.count)
        self.sync_fp.append(tuple(sorted(self.fp_dirty)))
        self.lines.append(f"ip = {ip}")

    def _fp_marker(self, tag: str, indent: str) -> None:
        """Placeholder *tag*, carrying the F registers dirty here."""
        regs = ",".join(map(str, sorted(self.fp_dirty)))
        self.lines.append(f"{indent}{tag}:{regs}")

    def _flush(self, indent: str) -> None:
        self.lines.append(f"{indent}uc += {self.cost}")
        self.lines.append(f"{indent}ir += {self.count}")

    def _sync_exit(self, target_expr: str, indent: str) -> None:
        """Spill cached registers and make architectural state exact."""
        self._fp_marker(_SPILL, indent)
        self.lines.append(f"{indent}m.pc = {target_expr}")
        self.lines.append(f"{indent}m.ucycles += uc + {self.cost}")
        self.lines.append(f"{indent}m.instret += ir + {self.count}")

    def block_event(self, target: str, indent: str = "") -> None:
        """Under a block observer, emit a block-enter event for the pc
        expression *target*, where a transfer leaves for it, with
        ``instret`` and ``ucycles`` as they stand at this point of the
        trace (the transfer charged)."""
        if self.events:
            self.lines.append(
                f"{indent}EV((5, {target}, 0, m.instret + ir + "
                f"{self.count}, m.ucycles + uc + {self.cost}))")

    # -- trace enders -----------------------------------------------------

    def close_loop(self, indent: str = "") -> None:
        """The path returned to the loop head: next iteration.

        In the warmup body this drops a splice marker (the steady-state
        ``while True:`` loop is inserted there at build time) and
        snapshots the emission state the seeds are drawn from; in the
        steady-state body it is a plain ``continue``, after checking
        that every seed re-established itself — one that did not would
        be stale on the next iteration, so it is reported back to the
        driver's fixpoint and the body is re-emitted without it."""
        self.closed = True
        # forwarded values surviving here may seed the next iteration
        for k in (*self.mem_known, *self.fp_mem):
            self._rely(k)
        self._fp_marker(_FPSYNC, indent)
        self._flush(indent)
        if self.fast:
            for r, v in self.seed_consts.items():
                if self.consts.get(r) != v:
                    self.killed_consts.add(r)
            for k, nm in self.seed_mem.items():
                if self.mem_known.get(k) != nm:
                    self.killed_seeds.add(k)
            for r, d in self.seed_fp.items():
                if r not in self.fp_float or (r in self.fp_dirty) != d:
                    self.killed_fp.add(r)
            for k, r in self.seed_fp_mem.items():
                if self.fp_mem.get(k) != r:
                    self.killed_fp_mem.add(k)
            self.lines.append(f"{indent}continue")
        else:
            self.close_sites.append(
                (dict(self.consts), dict(self.mem_known),
                 set(self.fp_float), set(self.fp_dirty),
                 dict(self.fp_mem)))
            self.lines.append(f"{indent}\x00CLOSE")

    # -- two-body emission (warmup + steady state) -------------------------

    def seed_from_close_sites(self):
        """Constants and forwarded memory values that hold at *every*
        point the warmup body re-enters the loop: the emission seeds
        for the steady-state body.  (All warmup temps and const locals
        referenced by a seed are assigned before the earliest close
        site — warmup emission is linear — so the spliced body never
        sees an unbound name.)"""
        consts0, mem0, ff0, fd0, fm0 = self.close_sites[0]
        rest = self.close_sites[1:]
        seed_consts = {r: v for r, v in consts0.items()
                       if r and all(s[0].get(r) == v for s in rest)}
        seed_mem = {k: t for k, t in mem0.items()
                    if all(s[1].get(k) == t for s in rest)}
        # fp seeds: reg -> dirty flag (membership = float live in g);
        # fp memory forwards only survive on a float-seeded reg
        seed_fp = {r: r in fd0 for r in ff0
                   if all(r in s[2] and (r in fd0) == (r in s[3])
                          for s in rest)}
        seed_fp_mem = {k: r for k, r in fm0.items()
                       if r in seed_fp
                       and all(s[4].get(k) == r for s in rest)}
        return seed_consts, seed_mem, seed_fp, seed_fp_mem

    def begin_fast(self, seed_consts: dict, seed_mem: dict,
                   seed_fp: dict, seed_fp_mem: dict) -> None:
        """Start emitting the steady-state body, seeded with the state
        the warmup proved to hold at every loop-close site."""
        if not self.fast:
            self.warm_lines = self.lines
            self.fast = True
        self.lines = []
        self.cost = 0
        self.count = 0
        self.consts = {0: 0}
        self.consts.update(seed_consts)
        self.mem_known = dict(seed_mem)
        self.fp_float = set(seed_fp)
        self.fp_dirty = {r for r, d in seed_fp.items() if d}
        self.fp_mem = dict(seed_fp_mem)
        self.kept = {}
        self.seed_consts = dict(seed_consts)
        self.seed_mem = dict(seed_mem)
        self.seed_fp = dict(seed_fp)
        self.seed_fp_mem = dict(seed_fp_mem)
        self.killed_seeds = set()
        self.killed_consts = set()
        self.killed_fp = set()
        self.killed_fp_mem = set()

    def snapshot(self) -> dict:
        """Emitter state shared across passes, captured before a
        steady-state emission so a seed-kill can roll it back."""
        return {
            "ns": set(self.ns),
            "localized": set(self.localized),
            "written": set(self.written),
            "sync": len(self.sync_pc),
            "pcs": len(self._pcs),
        }

    def restore(self, snap: dict) -> None:
        """Undo one steady-state emission pass (see :meth:`snapshot`)."""
        for k in set(self.ns) - snap["ns"]:
            del self.ns[k]
        self.localized = snap["localized"]
        self.written = snap["written"]
        del self.sync_pc[snap["sync"]:]
        del self.sync_cost[snap["sync"]:]
        del self.sync_count[snap["sync"]:]
        del self.sync_fp[snap["sync"]:]
        del self._pcs[snap["pcs"]:]

    def exit(self, target: str, indent: str = "") -> None:
        """Leave the trace for the pc expression *target*: sync, then
        return the trace compiled there (``FG`` is ``fns.get``), or the
        false value that hands the pc to the dispatch loop."""
        self._sync_exit(target, indent)
        self.lines.append(f"{indent}return FG({target})")

    # -- lowering target --------------------------------------------------

    def reg(self, n: int) -> Val:
        c = self.consts.get(n)
        return Val(self.use(n)) if c is None else const(c, self.use(n))

    def freg(self, r: int, fl: bool) -> Val:
        """F register *r*: its float when live, else its ``fr[]`` bits
        (unless *fl*: ``g{r}`` then loads the float from them)."""
        if r not in self.fp_float:
            if not fl:
                return Val(f"fr[{r}]")
            self._fp_kill_g(r)
            self.lines.append(f"g{r} = F64(fr[{r}])")
            self.fp_float.add(r)
        return Val(f"g{r}", fl=EXACT, fr=r)

    def load(self, lw: Lowering, base: int, off: Val, size: int,
             dest=None) -> Val:
        if dest is not None and size == 8:
            self._load_float(lw.pc, base, sx(off.const), dest)
            return Val(f"g{dest}", fl=EXACT, fr=dest)
        return Val(self._load_value(lw.pc, base, sx(off.const), size),
                   bits=8 * size)

    def _load_float(self, pc: int, rs1: int, imm: int, rd: int) -> None:
        """Load the double at (*rs1* + *imm*) straight into ``g{rd}``,
        forwarding a float or the bits an earlier access left."""
        key = self._mem_key(rs1, imm, 8)
        fsrc = self.fp_mem.get(key)
        bits = self.mem_known.get(key)
        if fsrc is not None and fsrc in self.fp_float:
            # the slot's float is already live in a local: the reload is
            # at most a local-to-local copy
            self._rely(key)
            if fsrc != rd:
                self._fp_kill_g(rd)
                self.lines.append(f"g{rd} = g{fsrc}")
        else:
            self._fp_kill_g(rd)
            if bits is not None:
                # an integer access forwarded the slot's bits
                self._rely(key)
                self.lines.append(f"g{rd} = F64({bits})")
            else:
                self._emit_read(pc, rs1, imm, 8, f"g{rd}", "d")
            self.fp_mem[key] = rd
        # fr[rd] stays stale (dirty) until a sync point needs its bits
        self.fp_float.add(rd)
        self.fp_dirty.add(rd)

    def _write(self, lw: Lowering, r: int, v: Val) -> None:
        if v.const is not None:
            self.set_const(r, v.const)
            return
        src = lw.value(v).src
        if src != f"r{r}":
            self.set_expr(r, src)

    def _fwrite(self, lw: Lowering, r: int, v: Val) -> None:
        """Write F register *r*: a float into ``g{r}`` (replacing a NaN
        result of arithmetic by the canonical NaN), bits into ``fr[r]``,
        which drops every cached claim about the register."""
        if v.fr != r:  # (not a load straight into it)
            self._fp_kill_g(r)
            self.lines.append(f"g{r} = {v.src}" if v.fl
                              else f"fr[{r}] = {lw.value(v).src}")
        if not v.fl:
            self.fp_float.discard(r)
            self.fp_dirty.discard(r)
            return
        if v.fl == ARITH:
            self.ns.setdefault("QN", f64(QNAN64))
            self.lines.append(f"if g{r} != g{r}: g{r} = QN")
        self.fp_float.add(r)
        self.fp_dirty.add(r)

    # -- control transfer -------------------------------------------------

    def emit_transfer(self, pc: int, instr, lw: Lowering):
        """Emit a branch or jump, and its block enter on every path it
        takes.  Returns the pc to keep building at, or None if the
        emitter closed the trace."""
        self._cover(pc, instr.length)
        self._charge(instr.mnemonic, instr)
        fall = pc + instr.length
        cond = lw.cond
        target = lw.target
        if cond is not None:
            taken = target.const
            if cond.const is not None:
                # both operands known: the branch folds to a direct jump
                dest = taken if cond.const else fall
                self.block_event(f"{dest:#x}")
                return dest
            self.lines.append(f"if {cond.src}:")
            self.block_event(f"{taken:#x}", "    ")
            if taken == self.entry:
                # the loop's own back-edge: guard and start the next
                # iteration without leaving compiled code
                self.close_loop(indent="    ")
            else:
                self.exit(f"{taken:#x}", indent="    ")
            self.block_event(f"{fall:#x}")
            return fall
        if target.const is None:
            self.lines.append(f"t = {lw.value(target).src}")
        # a link register becomes a known constant, so a jalr through a
        # register the trace set (a return) folds and the call inlines
        for r, v in lw.writes:
            self._write(lw, r, v)
        if target.const is not None:
            self.block_event(f"{target.const:#x}")
            return target.const
        # dynamic target: leave the trace for it.  An indirect loop
        # closure (a jalr landing back on the head) continues iterating
        # without leaving the trace
        self.block_event("t")
        self.lines.append(f"if t == {self.entry:#x}:")
        self.close_loop(indent="    ")
        self.exit("t")
        return None

    # -- straight-line instructions ---------------------------------------

    def emit_straight(self, pc: int, instr, lw) -> bool:
        """Emit a straight-line instruction from its lowering *lw*; False
        when the IR does not cover it (the trace ends before it)."""
        if lw is None:
            return False
        self._cover(pc, instr.length)
        for st in lw.stores:
            # a read-modify-write's result may read the loaded value its
            # store replaces: that store forwards nothing
            self._emit_store(pc, lw, *st, forward=not lw.writes)
        for r, v in lw.writes:
            self._write(lw, r, v)
        for r, v in lw.fwrites:
            self._fwrite(lw, r, v)
        self._charge(instr.mnemonic, instr)
        if lw.stores:
            self.lines.append("if m.code_dirty:")
            self.lines.append("    m.code_dirty = False")
            self.lines.append("    D[0] += 1")
            self._sync_exit(f"{pc + instr.length:#x}", indent="    ")
            self.lines.append("    return None")
        return True

    # -- memory access ----------------------------------------------------

    def _accessor(self, kind: str, key) -> str:
        """Name of the page accessor (``kind`` ``"U"`` unpacks, ``"P"``
        packs) for *key* (a size, or ``"d"``), bound into the
        namespace on first use."""
        name = f"{kind}{key}"
        if name not in self.ns:
            self.ns[name] = (UNPACK if kind == "U" else PACK)[key]
        return name

    def _addr_expr(self, rs1: int, imm: int) -> str:
        c = self.const_of(rs1)
        if c is not None:
            return f"{(c + imm) & _MASK64:#x}"
        if imm == 0:
            return self.use(rs1)
        return f"({self.use(rs1)} + {imm}) & {_M64}"

    def _mem_key(self, rs1: int, imm: int, size: int) -> tuple:
        """Forwarding key for access (*rs1* + *imm*, *size*): absolute
        for constant bases, else relative to the (current value of the)
        base register.  Widens the constant hull or the base's offset
        extent to cover the access (the entry guard's bounds)."""
        c = self.const_of(rs1)
        if c is not None:
            base, lo = None, (c + imm) & _MASK64
            ext = self.hull
            if ext is None:
                ext = self.hull = [lo, lo + size]
        else:
            base, lo = rs1, imm
            ext = self.extents.setdefault(rs1, [lo, lo + size])
        ext[0] = min(ext[0], lo)
        ext[1] = max(ext[1], lo + size)
        return (base, lo, size)

    def _stable(self, key: tuple) -> str:
        """Value-local name for access *key*, stable across emission
        passes and across the two bodies: a steady-state store to the
        key re-assigns the same name the loop-top forward reads, which
        is what lets store-fed slots (accumulators, loop counters)
        survive the back edge as seeds."""
        base, off, size = key
        b = "c" if base is None else str(base)
        sign = "m" if off < 0 else ""
        return f"w{b}_{sign}{abs(off):x}_{size}"

    def _load_value(self, pc: int, rs1: int, imm: int,
                    size: int) -> str:
        """Temp local holding the raw little-endian value at
        (*rs1* + *imm*).  Same-address re-reads with no possibly-
        aliasing store in between forward the earlier temp and emit no
        memory access at all (the earlier access already proved the
        page mapped)."""
        key = self._mem_key(rs1, imm, size)
        hit = self.mem_known.get(key)
        if hit is not None:
            self._rely(key)
            return hit
        v = self._stable(key)
        self._emit_read(pc, rs1, imm, size, v, size)
        self.mem_known[key] = v
        return v

    def _emit_read(self, pc: int, rs1: int, imm: int, size: int,
                   dest: str, key) -> None:
        """Read the *size* bytes at (*rs1* + *imm*) into local *dest*
        through the page accessor for *key* (*size*, or ``"d"`` for a
        double)."""
        self._mark(pc)
        slow = f"ri({{}}, {size})"
        if key == "d":
            slow = f"F64({slow})"
        self._emit_access(
            rs1, imm, size, f"{dest} = {slow}",
            f"{dest} = {self._accessor('U', key)}(pg, {{}})[0]")

    def _emit_access(self, rs1: int, imm: int, size: int, slow: str,
                     fast: str, store: bool = False) -> None:
        """Emit an access of *size* bytes at (*rs1* + *imm*): statement
        *fast*, formatted with the page offset, works on page ``pg`` in
        place; *slow*, formatted with the address, runs instead when the
        page is not created yet, the access leaves it, or (a *store*)
        the write watch covers it."""
        c = self.const_of(rs1)
        if c is None:
            self.lines += [f"a = {self._addr_expr(rs1, imm)}",
                           "pg = PG(a >> 12)", "o = a & 4095"]
            test = f"pg is None or o > {4096 - size}"
            if store:
                test += " or a >> 12 in WP"
            slow, fast = slow.format("a"), fast.format("o")
        else:
            addr = (c + imm) & _MASK64
            slow = slow.format(f"{addr:#x}")
            if addr & 4095 > 4096 - size:  # crosses a page: slow path only
                self.lines.append(slow)
                return
            page = f"{addr >> 12:#x}"
            self.lines.append(f"pg = PG({page})")
            test = f"pg is None or {page} in WP" if store else "pg is None"
            fast = fast.format(addr & 4095)
        self.lines += [f"if {test}:", f"    {slow}", "else:", f"    {fast}"]

    def _store_invalidate(self, key: tuple) -> None:
        """A store to *key* kills the forwarded values it may alias.

        Keys fall into alias classes: one per base register, plus the
        constant addresses.  Within a class the byte ranges decide.  A
        constant-address store keeps the entries of an assumed base
        (see :attr:`assumed`), and a store through an assumed base
        keeps the constant entries; either notes the base in
        :attr:`kept`.  Once such an entry is read, or crosses a back
        edge, the base joins :attr:`relied`, and the entry guard checks
        at run time that the base's accesses miss the constant hull.
        Every other pair of classes may alias, so the entry dies."""
        base, off, size = key
        assumed = self.assumed
        for table in (self.mem_known, self.fp_mem):
            for k in list(table):
                kb = k[0]
                if kb == base:
                    if k[1] < off + size and off < k[1] + k[2]:
                        del table[k]
                    continue
                # a constant key against a register key survives when
                # that register is assumed (x0 never is)
                r = base if kb is None else kb if base is None else 0
                if r in assumed:
                    self.kept.setdefault(k, set()).add(r)
                else:
                    del table[k]

    def _rely(self, key: tuple) -> None:
        """A forwarded value for *key* is used: the stores let past it
        must miss it at run time."""
        bases = self.kept.get(key)
        if bases:
            self.relied |= bases

    def _emit_store(self, pc: int, lw: Lowering, rs1: int, off: Val,
                    size: int, v: Val, forward: bool) -> None:
        """Emit a store of *v* at (*rs1* + *off*).  A live float (``fsd``
        of a register whose float is in ``g``) is packed straight into
        the page, and the slot is then forwarded through :attr:`fp_mem`
        alone, so an integer access to it reads memory; every other
        store forwards its value through :attr:`mem_known`."""
        imm = sx(off.const)
        skey = self._mem_key(rs1, imm, size)
        # the page accessor's key and value, and the value's bits for
        # write_int
        key = size
        literal = False
        if v.fr is not None and size == 8:
            key, val, bits = "d", v.src, f"B64({v.src})"
        else:
            mask = (1 << (8 * size)) - 1
            v = lw.value(v)
            if v.const is not None:
                val, literal = f"{v.const & mask:#x}", True
            elif size == 8:
                val = v.src
            else:
                val = lw.binop("and", v, const(mask)).src
            bits = val
        self._mark(pc)
        # fast path: a direct page write unless the page is watched
        # (it holds code: the write watch must see the store) or the
        # store leaves the page, which write_int handles
        self._emit_access(rs1, imm, size, f"si({{}}, {size}, {bits})",
                          f"{self._accessor('P', key)}(pg, {{}}, {val})",
                          store=True)
        self._store_invalidate(skey)
        # store-to-load forwarding: remember the stored value so a
        # same-address reload (this iteration or, via seeding, the next
        # one) costs one local read instead of a page access
        if not forward:
            return
        if key == "d":
            self.fp_mem[skey] = v.fr
        elif literal:
            self.mem_known[skey] = val
        else:
            nm = self._stable(skey)
            self.lines.append(f"{nm} = {val}")
            self.mem_known[skey] = nm

    # -- assembly ---------------------------------------------------------

    def _merge_spans(self) -> list[tuple[int, int]]:
        spans: list[list[int]] = []
        for lo, hi in sorted(self._pcs):
            if spans and lo <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], hi)
            else:
                spans.append([lo, hi])
        return [tuple(s) for s in spans] or [(self.entry,
                                             self.entry + 4)]

    def _expand(self, lines: list[str], written: list[int]) -> list[str]:
        """Resolve the spill and float write-back placeholders: a spill
        stores every register in the final written set from its local,
        and both pack their dirty F registers' floats into ``fr``."""
        out: list[str] = []
        for line in lines:
            stripped = line.lstrip(" ")
            tag, _, regs = stripped.partition(":")
            if tag not in (_SPILL, _FPSYNC):
                out.append(line)
                continue
            pad = line[:len(line) - len(stripped)]
            dirty = [int(r) for r in regs.split(",") if r]
            if tag == _SPILL:
                out += [f"{pad}x[{r}] = r{r}" for r in written]
            else:
                # a back edge: dirty regs whose dirtiness the seeds carry
                # across the loop stay in their floats
                dirty = [r for r in dirty if not self.seed_fp.get(r)]
            out += [f"{pad}fr[{r}] = B64(g{r})" for r in dirty]
        return out

    def _alias_guard(self) -> list[str]:
        """Prologue lines that leave through ``AG`` unless every relied
        base's accesses ``[r+lo, r+hi)`` neither wrap around the address
        space nor meet the constant hull.  The trace never writes a
        relied base, so checking its entry value covers every
        iteration."""
        if not self.relied:
            return []
        self.ns["AG"] = self.cache._alias_miss
        clo, chi = self.hull
        lines = []
        for r in sorted(self.relied):
            lo, hi = self.extents[r]
            rlo = f"r{r} + {lo}" if lo >= 0 else f"r{r} - {-lo}"
            rhi = f"r{r} + {hi}" if hi >= 0 else f"r{r} - {-hi}"
            fail = [f"({rhi} > {clo:#x} and {rlo} < {chi:#x})"]
            if lo < 0:
                fail.insert(0, f"{rlo} < 0")
            if hi > 0:
                fail.insert(0, f"{rhi} > {_MASK64 + 1:#x}")
            lines += [f"if {' or '.join(fail)}:",
                      f"    return AG({self.entry:#x})"]
        return lines

    def build_result(self):
        ns = self.ns
        ns["P"] = tuple(self.sync_pc)
        ns["U"] = tuple(self.sync_cost)
        ns["N"] = tuple(self.sync_count)
        written = sorted(self.written)
        if self.warm_lines is not None:
            # stitch: warmup body once, steady-state loop spliced in at
            # every close site (markers keep the site's own indent, so
            # a conditional back edge nests its loop inside the branch)
            fast = self._expand(self.lines, written)
            body_lines: list[str] = []
            for line in self._expand(self.warm_lines, written):
                stripped = line.lstrip(" ")
                pad = line[:len(line) - len(stripped)]
                if stripped == "\x00CLOSE":
                    body_lines.append(f"{pad}while True:")
                    body_lines += [f"{pad}    {fl}" for fl in fast]
                    continue
                body_lines.append(line)
        else:
            # a path that never returned to the head: a straight-line
            # body whose every path returns
            body_lines = self._expand(self.lines, written)
        has_fpp = any(self.sync_fp)
        if has_fpp:
            ns["FPP"] = tuple(self.sync_fp)
        loads = [f"r{r} = x[{r}]" for r in sorted(
            (self.localized | self.written | self.relied) - {0})]
        loads += self._alias_guard()
        spill = [f"x[{r}] = r{r}" for r in written]
        body = "\n        ".join(body_lines) or "pass"
        prologue = "\n    ".join(loads)
        handler_spill = "\n        ".join(spill)
        fp_handler = (
            "        _lv = locals()\n"
            "        for _fd in FPP[ip]:\n"
            "            fr[_fd] = B64(_lv['g%d' % _fd])\n"
        ) if has_fpp else ""
        name = "__mega__"
        src = (
            f"def {name}({', '.join(f'{k}={k}' for k in ns)}):\n"
            f"    ip = 0\n"
            f"    uc = 0\n"
            f"    ir = 0\n"
            + (f"    {prologue}\n" if loads else "")
            + f"    try:\n"
            f"        {body}\n"
            f"    except (MF, SF):\n"
            + (f"        {handler_spill}\n" if spill else "")
            + fp_handler
            + f"        m.pc = P[ip]\n"
            f"        m.ucycles += uc + U[ip]\n"
            f"        m.instret += ir + N[ip]\n"
            f"        raise\n"
        )
        code = compile(src, f"<mega@{self.entry:#x}>", "exec")
        env = dict(ns)
        exec(code, env)
        return env[name], self._merge_spans()
