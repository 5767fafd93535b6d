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
When the path returns to its root the trace loops: a **pre-header**
loads the loop's seeds (see :meth:`TraceCache._emit_mega`), then one
``while True:`` body runs every iteration without returning to the
dispatch loop, with registers and forwarded memory values kept in
locals across the back edge.  A path that never returns to its root
(straight-line code entered once per call, say) ends at its exits.

Trace trees.  Once that root path is walked, :meth:`TraceCache._grow`
walks the taken side of each of its guarded branches as a **branch
path**, inside the branch's ``if`` block, from a fork of the path-local
emitter state.  A branch path that returns to the root (the rest of a
middle loop's pass that leads back into the inner loop, say) stays and
grows branch paths of its own; one that leaves first is undone and the
side exit stays.  So a whole loop nest runs in the trace of its
innermost loop.  The seeds are what holds at the root path's back
edges; a branch path's back edge re-establishes the ones it does not
hold, by a local copy or a reload.

Every path charges timing as **one batched ucycle charge**
per exit, bumps ``instret`` once, and ends every exit with
``return FG(pc)``, where ``FG`` is :attr:`TraceCache.fns`'s ``get``: it
returns the trace compiled at the exit's pc, which the run loop calls
next without a dispatch, or a false value that sends the run loop back
to its dispatch loop.  A pc whose first instruction cannot be traced
(ecall/ebreak/fences/CSR reads/``lr``/``sc``) gets a negative entry and
stays on the interpreter.

The emitter inlines every instruction the SAIL IR covers as the source
:mod:`repro.semantics.lower` renders (no per-instruction call at all,
F/D and AMOs included).  Integer registers live in Python **locals**,
spilled to the architectural ``x`` list only at exits and faults; the
lowering folds immediates and registers known constant into the
source it emits (``li``/``lui``/``auipc`` chains become literals).  A
constant write still assigns its local, so every local holds its
register's value at every exit, fault and deopt site, unless the
register is written again before the next such site: then the constant
write is dropped.  Loaded and stored values are forwarded to later
loads of the same address, and a constant store's literal folds into
them.  A load reads its page in place, and a store
to an unwatched page writes it in place, through
:mod:`repro.sim.memory`'s precompiled ``struct`` accessors
(``U8(pg, o)[0]``, ``P8(pg, o, v)``, bound into a trace's namespace on
first use); an access that leaves its page, or whose page is not
created yet, calls ``Memory.read_int``/``write_int``.

Pages are looked up once per trace entry where they can be.  The
prologue binds one page local per page and direction for the
constant-address accesses (instrumentation counters, globals), and the
address, page offset and page of each access through a base register
the finished trace never writes on any path (``sp``/``s0`` stack
slots); the local
is ``None`` when the page is not created yet, when the access leaves
it, or for a store when the write watch covers it, and that access
calls ``read_int``/``write_int`` and looks the page up again.  An
access through a register the trace writes (array indexing) looks its
page up every time.  The lookups run at every entry, never at compile
time: a page is created on its first touch, and the watch set grows
between runs.  They rely on one invariant: while a trace runs, only
``read_int``/``write_int`` touch memory, and they only create pages;
``Memory.restore_pages``, ``set_write_watch`` and
``Machine.add_exec_range`` run only between runs (loads, patch commits
and rollbacks).

Doubles stay Python floats from page to page: ``fld`` unpacks one
straight into its ``g<rd>`` local, double arithmetic computes on them,
``fsd`` of a live float packs it straight back, a slot's double is
forwarded through a ``d`` slot local of its own, and ``fr[]`` bits are
packed only at exits, faults and where an instruction reads an F
register's bits.  A NaN result of double arithmetic becomes the
canonical NaN as it lands in its ``g<rd>`` local, as the ISA requires.

Stores kill forwarded values by alias class: a constant-address store
(an instrumentation counter) keeps the values addressed through a base
register the loop never writes, such as the stack slots under ``sp``,
and a store through such a register keeps the constant-address ones.
An entry guard checks, once per entry, that those registers' accesses
miss the constant addresses; when it fails, the root is recompiled with
no such assumption.

An indirect jump (``jalr``) whose target does not fold ends the trace
the same way, with ``return FG(t)`` for the target ``t`` it computed,
unless, on the root path, it lands on the trace's own root, where the
loop iterates.

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
  ``machine.code_dirty``.  Only ``write_int`` on a watched page can
  invalidate, and a store to a watched page always takes the ``si``
  slow path, so the generated code tests ``code_dirty`` only there (and
  after an AMO, which writes its register after its store).  A set flag
  raises into the trace's one shared tail, which makes the state after
  the store architectural from per-site tables and leaves the trace
  (counted under ``trace.deopts``), so the remaining (possibly
  rewritten) tail is re-fetched through the cache.

Traces keep architectural state exact at every *observable* boundary:
trace entry/exit, a store that rewrites code, and any faulting
load/store.  Per-site tables map a fault site to the precise
pc/ucycles/instret and dirty float locals before its instruction, and a
deopt site to those after its store; the generated handler spills the
register locals, which hold exactly the architectural values there, and
re-raises a fault or leaves after a deopt.
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

import contextlib
from functools import partial
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

#: deepest branch path of a trace tree: each nests one ``if`` deeper,
#: and Python's tokenizer allows 100 levels of indentation
MAX_NEST = 32

#: dispatches of an uncompiled pc before a trace is rooted there
HOT_THRESHOLD = 32

#: 64-bit mask literal used throughout generated code
_M64 = "0xFFFFFFFFFFFFFFFF"
_MASK64 = (1 << 64) - 1

PAGE_BITS = 12

#: placeholders in generated trace source, expanded at build time: a
#: register spill (once the trace's full written-register set is known),
#: carrying the F registers whose float locals are dirty there; and a
#: memory access, carrying its index in ``_TraceEmitter.accesses`` (its
#: page is looked up at entry unless the trace writes its base)
_SPILL = "\x00SPILL"
_ACCESS = "\x00ACCESS"

#: seeds of a trace emitted with nothing known at its loop top
_NO_SEEDS: tuple = ({}, {}, {})


class _Deopt(Exception):
    """Raised by generated code when a store set ``code_dirty``; the
    trace's handler leaves through the deopt site's sync-table entry."""


def _suffix(base: int | None, off: int) -> str:
    """Local-name suffix of (*base* register + *off*): ``2_28`` for
    ``40(sp)``, ``8_m10`` for ``-16(s0)``, ``c_23000`` for a constant
    address (*base* ``None``)."""
    b = "c" if base is None else str(base)
    sign = "m" if off < 0 else ""
    return f"{b}_{sign}{abs(off):x}"


def _src(v) -> str:
    """Source of a forwarded memory value: a slot local's name, or the
    literal a constant store wrote (an int in ``mem_known``)."""
    return f"{v:#x}" if isinstance(v, int) else v


def _slot(key: tuple, kind: str = "w") -> str:
    """Name of the local that holds memory slot *key* ``(base, offset,
    size)``: its raw little-endian value (*kind* ``"w"``), or its double
    as a float (``"d"``).  The name depends on the key alone, so a store
    to the slot re-assigns the very local a later load forwards, which
    is what lets a slot's value cross the back edge as a seed."""
    base, off, size = key
    return f"{kind}{_suffix(base, off)}_{size}"


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
            # a running trace deopts after the store that did this
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

    def _cold_step(self, head: int):
        """A seed load of the trace rooted at *head* faulted with the
        state exact at *head*: in the pre-header, before the trace
        changed any state, or on a branch path's back edge, after it
        synced.  The trace returns this (bound to *head*) to the run
        loop, which calls it outside the trace's handler: it runs the
        head's instruction on the cold path instead, and returns the
        trace compiled at the pc it left for.  (Handing *head* back to
        the dispatch loop would call the same trace again.)"""
        m = self.m
        (m._icache.get(head) or m._cold_at(head))()
        return self.fns.get(m.pc)

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

    def _walk(self, emit: "_TraceEmitter", pc: int, budget: int) -> None:
        """Drive *emit* along one path from *pc* (guarding forward
        branches, following direct calls and constant-folded returns)
        until it returns to the trace's root, leaves through an exit,
        reaches a pc it already passed, or has emitted *budget*
        instructions, stopping before an instruction it cannot
        trace."""
        head = emit.entry
        visited: set[int] = set()
        for _ in range(budget):
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
            if pc is None:  # a dynamic jalr left the trace
                return
        emit.exit(f"{pc:#x}")

    def _grow(self, emit: "_TraceEmitter") -> None:
        """Grow the walked root path into a **trace tree**: walk the
        taken side of each guarded branch queued on a kept path, first
        come first served, as a **branch path** inside its ``if``
        block, on a fork of the path-local state at the branch.  A
        branch path that returns to the root (a back edge of its own:
        its walk reaches the root, or a guarded branch on it is taken to
        the root) replaces the block's exit and queues its own branches.
        One that leaves first (through a dynamic ``jalr``, an instruction
        the walk cannot trace, or the end of the budget, which
        :data:`MAX_MEGA` sets for the whole tree) is rolled back, so
        nothing it emitted survives, and the exit stays."""
        emit.root = False
        while emit.branches:
            block, at, taken, fork = emit.branches.pop(0)
            budget = MAX_MEGA - len(emit._pcs)
            if budget <= 0:
                return
            tree = emit.checkpoint()
            back_edges = emit.back_edges
            emit.resume(fork)
            with emit._into([]) as path:
                self._walk(emit, taken, budget)
            if emit.back_edges > back_edges:
                block[at:] = path
            else:
                emit.rollback(tree)

    def _compile_mega(self, head: int, assume: bool = True):
        """Build the trace rooted at *head*.

        With *assume*, every base register starts out assumed to
        address memory disjoint from the trace's constant addresses
        (see :meth:`_TraceEmitter._store_invalidate`).  A base the
        finished trace writes cannot be checked once at entry.  A store
        emitted after the base's write already ignores it; when one
        emitted before that write relied on it, the trace is re-emitted
        without the registers it writes.

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
        *head* becomes one ``while True:`` body behind a pre-header that
        loads the loop's **seeds**: the memory slots whose value is in
        their ``w``/``d`` slot local, and the F registers whose double
        is live in their ``g`` local, at every back edge of the root
        path.  The pre-header loads them without changing state, so the
        body may assume them at its top on every iteration; a branch
        path's back edge re-establishes the ones it does not hold
        (:meth:`_TraceEmitter.close_loop`).

        The seeds come from a fixpoint over fresh walks of the root
        path.  The first emits it with nothing known at its top and
        collects what holds at every back edge; each later pass emits
        under the seeds so far and keeps those that hold again at every
        back edge (a store or a base-register write in the body can kill
        one), until a pass keeps them all.  Branch paths cannot change
        the seeds, so only that last pass grows them (:meth:`_grow`).

        Returns the finished emitter, or ``None`` for an empty trace."""
        seeds = None
        while True:
            emit = _TraceEmitter(self, head, assumed, seeds)
            self._walk(emit, head, MAX_MEGA)
            if emit.count == 0:
                return None
            if emit.held is None or emit.held == (seeds or _NO_SEEDS):
                self._grow(emit)
                return emit
            seeds = emit.held


class _TraceEmitter:
    """Generates the Python source of one compiled trace, with the
    referenced integer registers cached in Python locals and immediates
    constant-folded at emission time.  A path that returns to the
    trace's root *entry* becomes a ``while True:`` loop, emitted under
    *seeds* (see :meth:`TraceCache._emit_mega`).  As a lowering target
    it keeps doubles as Python floats (``floats``).

    The state splits in two.  **Path-local** state (:meth:`fork`):
    ``consts``, ``pending``, ``mem_known``, ``fp_mem``, ``fp_float``,
    ``fp_dirty``, ``kept``, ``cost`` and ``count`` describe the path
    being walked, and a branch path starts from a copy of its parent's
    at the branch.  **Trace-wide** state (:meth:`checkpoint`): the sync
    tables, accesses, spans, ``written``, ``localized``, ``relied`` and
    ``used`` describe the whole tree, since every path runs in one
    frame and one handler."""

    floats = True

    def __init__(self, cache: TraceCache, entry: int,
                 assumed: frozenset = frozenset(), seeds=None):
        self.cache = cache
        m = self.m = cache.m
        self.entry = entry
        self.lines: list[str | None] = []
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
        #: sync tables, one entry per fault or deopt site (entry 0 is the
        #: trace entry): the pc, cost and count the handler makes
        #: architectural there, and the F registers dirty there
        self.sync_pc = [entry]
        self.sync_cost = [0]
        self.sync_count = [0]
        self.sync_fp: list[tuple] = [()]
        #: emission-time constant values per register (linear
        #: const-prop; x0 is always 0).  An entry here means "the
        #: emission-order-last write to this register was the literal":
        #: re-executed every iteration, so it holds at runtime on every
        #: iteration, not just the first.  Reads fold to the literal.
        self.consts: dict[int, int] = {0: 0}
        #: register -> index in :attr:`lines` of its constant write no
        #: site has followed yet; the register's next write drops it
        self.pending: dict[int, int] = {}
        #: integer registers whose Python local is referenced anywhere
        #: (loaded from ``x`` in the prologue)
        self.localized: set[int] = set()
        #: integer registers written (spilled at exits and faults)
        self.written: set[int] = set()
        #: covered [pc, pc+len) unit intervals, merged into spans later
        self._pcs: list[tuple[int, int]] = []
        #: memory accesses behind the :data:`_ACCESS` markers
        self.accesses: list[tuple] = []
        #: prologue local -> the expression it is bound to at entry
        #: (hoisted addresses, page offsets and pages), filled at build
        #: time by :meth:`_resolve_access`
        self.bindings: dict[str, str] = {}
        #: back edges emitted (the body loops when there is one)
        self.back_edges = 0
        #: walking the root path (its back edges decide the seeds)
        self.root = True
        #: branch paths the path being walked is nested in
        self.depth = 0
        #: guarded branches whose taken side may become a branch path:
        #: (block, index of its exit's first line, taken pc, fork)
        self.branches: list[tuple] = []
        #: the seeds this pass assumes at its loop top: slot key -> ``w``
        #: local, double slot key -> ``d`` local, F register -> whether
        #: its float may be newer than ``fr[]`` (dirty)
        self.seeds = seeds or _NO_SEEDS
        #: what held at every back edge so far, in the same form (the
        #: seeds of the next pass); ``None`` before the first
        self.held = seeds
        #: slot locals a load was forwarded from (the pre-header loads
        #: only the seeds among them)
        self.used: set[str] = set()
        mem, fmem, fp = self.seeds
        #: known memory values: (base reg | None, offset, size) ->
        #: the slot local holding the loaded/stored bytes (little-endian
        #: unsigned), or the int a constant store wrote.  ``None``
        #: base keys absolute (const) addresses.  A slot ``fsd`` wrote
        #: from a float is in :attr:`fp_mem` only.
        self.mem_known: dict[tuple, str] = dict(mem)
        #: access key -> the ``d`` slot local holding the float of the
        #: memory value (killed by aliasing stores and base writes);
        #: ``fld`` and ``fsd`` fill it
        self.fp_mem: dict[tuple, str] = dict(fmem)
        # -- float-local cache (double precision only) --------------------
        #: fp regs whose float value is live in local ``g{reg}``
        #: (``g{reg} == F64(fr[reg])`` for the conceptual register)
        self.fp_float: set[int] = set(fp)
        #: fp regs whose architectural ``fr[]`` slot may be stale; the
        #: authoritative value is ``g{reg}`` (always ⊆ fp_float)
        self.fp_dirty: set[int] = {r for r, d in fp.items() if d}

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
        # reads fold to the literal, so only a site can read this write
        self.pending[r] = len(self.lines) - 1

    def set_expr(self, r: int, expr: str) -> None:
        if r == 0:
            return
        dead = self.pending.pop(r, None)
        if dead is not None:
            self.lines[dead] = None
        self.consts.pop(r, None)
        self.localized.add(r)
        self.written.add(r)
        self.lines.append(f"r{r} = {expr}")
        self._forget_base(r)

    def _forget_base(self, r: int) -> None:
        """Writing register *r* invalidates forwarded memory values
        whose address depends on it."""
        for table in (self.mem_known, self.fp_mem):
            for key in [k for k in table if k[0] == r]:
                del table[key]

    # -- trace trees ------------------------------------------------------

    def fork(self) -> tuple:
        """A copy of the path-local state, for a branch path to start
        from (``pending`` is empty: the branch's exit cleared it), one
        level deeper."""
        return (dict(self.consts), dict(self.mem_known), dict(self.fp_mem),
                set(self.fp_float), set(self.fp_dirty),
                {k: set(v) for k, v in self.kept.items()},
                self.cost, self.count, self.depth + 1)

    def resume(self, fork: tuple) -> None:
        """Walk on from the path-local state *fork*."""
        (self.consts, self.mem_known, self.fp_mem, self.fp_float,
         self.fp_dirty, self.kept, self.cost, self.count,
         self.depth) = fork
        self.pending = {}

    def checkpoint(self) -> tuple:
        """The trace-wide state, for :meth:`rollback`."""
        return (len(self.sync_pc), len(self.accesses), len(self._pcs),
                len(self.branches), set(self.written), set(self.localized),
                set(self.relied), set(self.used),
                {r: list(e) for r, e in self.extents.items()},
                self.hull and list(self.hull), set(self.ns))

    def rollback(self, tree: tuple) -> None:
        """Undo everything a discarded branch path added to the
        trace-wide state since :meth:`checkpoint` returned *tree*."""
        (sites, accesses, pcs, branches, self.written, self.localized,
         self.relied, self.used, self.extents, self.hull, names) = tree
        for table in (self.sync_pc, self.sync_cost, self.sync_count,
                      self.sync_fp):
            del table[sites:]
        del self.accesses[accesses:]
        del self._pcs[pcs:]
        del self.branches[branches:]
        for name in set(self.ns) - names:
            del self.ns[name]

    @contextlib.contextmanager
    def _into(self, lines: list):
        """Emit into *lines* instead of the current lines."""
        outer, self.lines = self.lines, lines
        try:
            yield lines
        finally:
            self.lines = outer

    def _block(self):
        """Emit into a new block nested one level below the current
        line (an ``if`` body)."""
        block = []
        self.lines.append(block)
        return self._into(block)

    # -- bookkeeping helpers ---------------------------------------------

    def _price(self, instr) -> int:
        return self.m.timing.ucycles(
            category_of(instr.mnemonic, instr.spec.match & 0x7F))

    def _charge(self, instr) -> None:
        self.cost += self._price(instr)
        self.count += 1

    def _cover(self, pc: int, length: int) -> None:
        self._pcs.append((pc, pc + length))

    def _site(self, pc: int, cost: int, count: int) -> int:
        """Index of a new sync-table entry for *pc*, *cost* and *count*,
        with the F registers dirty now.  The handler reads every
        register local at a site, so no pending constant write dies past
        it."""
        self.pending.clear()
        self.sync_pc.append(pc)
        self.sync_cost.append(cost)
        self.sync_count.append(count)
        self.sync_fp.append(tuple(sorted(self.fp_dirty)))
        return len(self.sync_pc) - 1

    def _mark(self, pc: int) -> None:
        """A fault site: state before the instruction at *pc*."""
        self.lines.append(f"ip = {self._site(pc, self.cost, self.count)}")

    def _flush(self) -> None:
        self.lines.append(f"uc += {self.cost}")
        self.lines.append(f"ir += {self.count}")

    def _sync_exit(self, target_expr: str) -> None:
        """Spill cached registers and make architectural state exact."""
        self.pending.clear()
        regs = ",".join(map(str, sorted(self.fp_dirty)))
        self.lines.append(f"{_SPILL}:{regs}")
        self.lines.append(f"m.pc = {target_expr}")
        self.lines.append(f"m.ucycles += uc + {self.cost}")
        self.lines.append(f"m.instret += ir + {self.count}")

    def block_event(self, target: str) -> None:
        """Under a block observer, emit a block-enter event for the pc
        expression *target*, where a transfer leaves for it, with
        ``instret`` and ``ucycles`` as they stand at this point of the
        trace (the transfer charged)."""
        if self.events:
            self.lines.append(
                f"EV((5, {target}, 0, m.instret + ir + "
                f"{self.count}, m.ucycles + uc + {self.cost}))")

    # -- trace enders -----------------------------------------------------

    def close_loop(self) -> None:
        """The path returned to the loop head: the next iteration.

        On the root path, notes what holds here toward the next pass's
        seeds; on a branch path, makes the seeds hold (:meth:`_reseed`).
        Then writes back the dirty F registers the loop top does not
        hold dirty, and continues.  Forwarded values a store was let
        past under an assumption and that carry over as seeds make the
        entry guard check that assumption."""
        self.back_edges += 1
        self.pending.clear()
        if self.root:
            mem, fmem, fp = self.held or ({
                k: v for k, v in self.mem_known.items() if v == _slot(k)},
                self.fp_mem, dict.fromkeys(self.fp_float, False))
            self.held = (
                {k: v for k, v in mem.items() if self.mem_known.get(k) == v},
                {k: v for k, v in fmem.items() if self.fp_mem.get(k) == v},
                {r: d or r in self.fp_dirty for r, d in fp.items()
                 if r in self.fp_float})
            for k in (*self.seeds[0], *self.seeds[1]):
                self._rely(k)
        else:
            self._reseed()
        top_dirty = {r for r, d in self.seeds[2].items() if d}
        for r in sorted(self.fp_dirty - top_dirty):
            self.lines.append(f"fr[{r}] = B64(g{r})")
        self._flush()
        self.lines.append("continue")

    def _reseed(self) -> None:
        """At a branch path's back edge, re-establish every seed that
        does not hold here, so the loop top's assumptions hold whichever
        path ran: a slot whose value is a literal, or in the local of
        the other table, gets a copy of it; an F register whose float is
        not live is converted from ``fr``; any other slot is reloaded.
        A reload that faults (the program may never touch that slot
        again) syncs and leaves for the head through ``CS``
        (:meth:`TraceCache._cold_step`), as the pre-header does.  Which
        slot seeds a path reads is known only once the tree is grown, so
        the slot lines are left to :meth:`_reseeds`."""
        mem, fmem, fp = self.seeds
        copies, reloads = [], []
        for key, name in mem.items():
            have = self.mem_known.get(key)
            if have is None and key in self.fp_mem:
                have = f"B64({self.fp_mem[key]})"
                self.used.add(self.fp_mem[key])
            if have is None:
                reloads.append((key, name, key[2]))
                continue
            self._rely(key)
            if have != name:
                copies.append((name, f"{name} = {_src(have)}"))
        for key, name in fmem.items():
            bits = self.mem_known.get(key)
            if self.fp_mem.get(key) != name:
                if bits is None:
                    reloads.append((key, name, "d"))
                    continue
                if isinstance(bits, str):
                    self.used.add(bits)
                copies.append((name, f"{name} = F64({_src(bits)})"))
            self._rely(key)
        for r in sorted(set(fp) - self.fp_float):
            self.lines.append(f"g{r} = F64(fr[{r}])")
        leave = []
        if reloads:
            with self._into(leave):
                self._sync_exit(f"{self.entry:#x}")
                self.lines.append("return CS")
        self.lines.append((copies, reloads, leave))

    def _reseeds(self, copies: list, reloads: list, leave: list) -> list:
        """The lines :meth:`_reseed` left for one back edge, for the
        slot seeds some path reads (:attr:`used`): the copies, then the
        reloads in a ``try`` whose ``except MF`` runs *leave*."""
        lines = [stmt for name, stmt in copies if name in self.used]
        reloads = [r for r in reloads if r[1] in self.used]
        if reloads:
            self.ns["CS"] = partial(self.cache._cold_step, self.entry)
            with self._into([]) as reads:
                for key, name, kind in reloads:
                    self._emit_read(key, name, kind)
            lines += ["try:", reads, "except MF:", leave]
        return lines

    def exit(self, target: str) -> None:
        """Leave the trace for the pc expression *target*: sync, then
        return the trace compiled there (``FG`` is ``fns.get``), or the
        false value that hands the pc to the dispatch loop."""
        self._sync_exit(target)
        self.lines.append(f"return FG({target})")

    # -- lowering target --------------------------------------------------
    #
    # Double-precision values live as plain Python floats in ``g{reg}``
    # locals: ``fld`` unpacks a page's double straight into one, and
    # ``fsd`` packs it straight back.  A ``<d`` unpack/pack round trip
    # keeps every bit pattern, signalling-NaN payloads included, so
    # packing ``fr[]`` bits only where they must be exact (exits,
    # faults, reads of an F register's bits) is bit-identical to packing
    # after every instruction.

    def reg(self, n: int) -> Val:
        c = self.consts.get(n)
        return Val(self.use(n)) if c is None else const(c, self.use(n))

    def freg(self, r: int, fl: bool) -> Val:
        """F register *r*: its float when live, else its ``fr[]`` bits
        (unless *fl*: ``g{r}`` then loads the float from them)."""
        if r not in self.fp_float:
            if not fl:
                return Val(f"fr[{r}]")
            self.lines.append(f"g{r} = F64(fr[{r}])")
            self.fp_float.add(r)
        return Val(f"g{r}", fl=EXACT, fr=r)

    def load(self, lw: Lowering, base: int, off: Val, size: int,
             dest=None) -> Val:
        """The loaded value: a float straight into ``g{dest}``, the
        literal a constant store left (the lowering folds the load's
        extension into it), or the slot local."""
        if dest is not None and size == 8:
            self._load_float(lw.pc, base, sx(off.const), dest)
            return Val(f"g{dest}", fl=EXACT, fr=dest)
        v = self._load_value(lw.pc, base, sx(off.const), size)
        return const(v) if isinstance(v, int) else Val(v, bits=8 * size)

    def _load_float(self, pc: int, rs1: int, imm: int, rd: int) -> None:
        """Load the double at (*rs1* + *imm*) straight into ``g{rd}``,
        forwarding the slot's float or the bits an earlier access
        left."""
        key = self._mem_key(rs1, imm, 8)
        name = self.fp_mem.get(key)
        if name is not None:
            self._rely(key)
            self.used.add(name)
            self.lines.append(f"g{rd} = {name}")
        else:
            name = _slot(key, "d")
            bits = self.mem_known.get(key)
            if bits is not None:
                # an integer access forwarded the slot's bits
                self._rely(key)
                if isinstance(bits, str):
                    self.used.add(bits)
                self.lines.append(f"g{rd} = {name} = F64({_src(bits)})")
            else:
                self._mark(pc)
                self._emit_read(key, f"g{rd} = {name}", "d")
            self.fp_mem[key] = name
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
        takes.  Returns the pc to keep building at, or None when a
        dynamic ``jalr`` left the trace."""
        self._cover(pc, instr.length)
        self._charge(instr)
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
            with self._block() as block:
                self.block_event(f"{taken:#x}")
                if taken == self.entry:
                    # the loop's own back-edge: guard and start the next
                    # iteration without leaving compiled code
                    self.close_loop()
                else:
                    # a side exit, which :meth:`TraceCache._grow` may
                    # replace by a branch path unless it would nest
                    # deeper than MAX_NEST
                    at = len(block)
                    self.exit(f"{taken:#x}")
                    if self.depth < MAX_NEST:
                        self.branches.append(
                            (block, at, taken, self.fork()))
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
        # dynamic target: leave the trace for it.  On the root path, an
        # indirect loop closure (a jalr landing back on the head)
        # continues iterating without leaving the trace; a branch path
        # that ends here leaves first
        self.block_event("t")
        if self.root:
            self.lines.append(f"if t == {self.entry:#x}:")
            with self._block():
                self.close_loop()
        self.exit("t")
        return None

    # -- straight-line instructions ---------------------------------------

    def emit_straight(self, pc: int, instr, lw) -> bool:
        """Emit a straight-line instruction from its lowering *lw*; False
        when the IR does not cover it (the trace ends before it).

        A store is followed by a deopt site: the state after the
        instruction, which the handler makes architectural when the
        store set ``code_dirty``.  Only ``si`` can set it, so the check
        sits on the store's ``si`` path; an AMO writes its register after
        its store, so there the check follows the instruction."""
        if lw is None:
            return False
        self._cover(pc, instr.length)
        check = None
        if lw.stores:
            self.ns["DO"] = _Deopt
            site = self._site(pc + instr.length,
                              self.cost + self._price(instr),
                              self.count + 1)
            check = f"if m.code_dirty: ip = {site}; raise DO"
        for st in lw.stores:
            # a read-modify-write's result may read the loaded value its
            # store replaces: that store forwards nothing
            self._emit_store(pc, lw, *st, forward=not lw.writes,
                             check=None if lw.writes else check)
        for r, v in lw.writes:
            self._write(lw, r, v)
        for r, v in lw.fwrites:
            self._fwrite(lw, r, v)
        self._charge(instr)
        if lw.stores and lw.writes:
            self.pending.clear()
            self.lines.append(check)
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

    def _load_value(self, pc: int, rs1: int, imm: int,
                    size: int) -> str | int:
        """Slot local holding the raw little-endian value at
        (*rs1* + *imm*), or the int a constant store left there.
        Same-address re-reads with no possibly-aliasing store in between
        forward the earlier value and emit no memory access at all (the
        earlier access already proved the page mapped)."""
        key = self._mem_key(rs1, imm, size)
        hit = self.mem_known.get(key)
        if hit is not None:
            self._rely(key)
            if isinstance(hit, str):
                self.used.add(hit)
            return hit
        v = _slot(key)
        self._mark(pc)
        self._emit_read(key, v, size)
        self.mem_known[key] = v
        return v

    def _emit_read(self, key: tuple, dest: str, kind) -> None:
        """Read slot *key* into the assignment target *dest* through the
        page accessor for *kind* (the size, or ``"d"`` for a double)."""
        slow = f"ri({{a}}, {key[2]})"
        if kind == "d":
            slow = f"F64({slow})"
        self._emit_access(
            key, [f"{dest} = {slow}"],
            f"{dest} = {self._accessor('U', kind)}({{p}}, {{o}})[0]")

    def _emit_access(self, key: tuple, slow: list[str], fast: str,
                     store: bool = False) -> None:
        """Emit an access to slot *key*: statement *fast* works in place
        on page ``{p}`` at offset ``{o}``; the *slow* statements run
        instead, at address ``{a}``, when the page is not created yet,
        the access leaves it, or (a *store*) the write watch covers it.
        An access that crosses a page at a constant address is the slow
        statements alone; any other leaves an :data:`_ACCESS` marker,
        resolved at build time (:meth:`_resolve_access`), once the trace
        knows which registers it writes."""
        base, off, size = key
        if base is None and off & 4095 > 4096 - size:
            self.lines += [s.format(a=f"{off:#x}") for s in slow]
            return
        if base is not None:
            self.localized.add(base)
        self.lines.append(f"{_ACCESS}:{len(self.accesses)}")
        self.accesses.append((key, store, slow, fast))

    def _resolve_access(self, access: tuple, written) -> list[str]:
        """The lines of an :data:`_ACCESS` marker.

        Through a base register in *written*, the access computes its
        address, looks its page up and tests it every time.  Otherwise
        (a constant address, or a base the trace never writes) the
        address, the page offset and the page are prologue locals
        (:attr:`bindings`), looked up once per entry; a ``None`` page
        sends the access to *slow*, after which the page is looked up
        again, so a page the trace's own first touch created is used in
        place from then on (see the module docstring for the invariant
        this relies on)."""
        (base, off, size), store, slow, fast = access
        if base is not None:
            expr = f"(r{base} + {off}) & {_M64}" if off else f"r{base}"
        if base in written:
            test = f"pg is None or o > {4096 - size}"
            if store:
                test += " or a >> 12 in WP"
            return [f"a = {expr}", "pg = PG(a >> 12)", "o = a & 4095",
                    f"if {test}:", *(f"    {s.format(a='a')}" for s in slow),
                    "else:", f"    {fast.format(p='pg', o='o')}"]
        tag = "w" if store else "r"
        if base is None:
            page = f"{off >> 12:#x}"
            name = f"p{tag}_{off >> 12:x}"
            look = f"None if {page} in WP else PG({page})" if store \
                else f"PG({page})"
            addr, o = f"{off:#x}", str(off & 4095)
        else:
            suffix = _suffix(base, off)
            addr, o = f"a{suffix}", f"o{suffix}"
            name = f"p{tag}{suffix}_{size}"
            self.bindings.setdefault(addr, expr)
            self.bindings.setdefault(o, f"{addr} & 4095")
            fits = f"{o} <= {4096 - size}"
            if store:
                fits += f" and {addr} >> 12 not in WP"
            look = f"PG({addr} >> 12) if {fits} else None"
        self.bindings.setdefault(name, look)
        return [f"if {name} is None:", *(f"    {s.format(a=addr)}"
                                         for s in slow),
                f"    {name} = {look}",
                "else:", f"    {fast.format(p=name, o=o)}"]

    def _store_invalidate(self, key: tuple) -> None:
        """A store to *key* kills the forwarded values it may alias.

        Keys fall into alias classes: one per base register, plus the
        constant addresses.  Within a class the byte ranges decide.  A
        constant-address store keeps the entries of an assumed base
        (see :attr:`assumed`) the trace has not written so far, and a
        store through such a base keeps the constant entries; either
        notes the base in :attr:`kept`.  Once such an entry is read, or
        crosses a back edge, the base joins :attr:`relied`, and the
        entry guard checks at run time that the base's accesses miss
        the constant hull.  Every other pair of classes may alias, so
        the entry dies."""
        base, off, size = key
        assumed = self.assumed - self.written
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
                    size: int, v: Val, forward: bool,
                    check: str | None) -> None:
        """Emit a store of *v* at (*rs1* + *off*), with the deopt
        *check* on its ``si`` path.  A live float (``fsd`` of a register
        whose float is in ``g``) is packed straight into the page, and
        the slot is then forwarded through :attr:`fp_mem` alone, so an
        integer access to it reads memory; every other store forwards
        its value through :attr:`mem_known`."""
        imm = sx(off.const)
        skey = self._mem_key(rs1, imm, size)
        # the page accessor's key and value, and the value's bits for
        # write_int
        key = size
        literal = None
        if v.fr is not None and size == 8:
            key, val, bits = "d", v.src, f"B64({v.src})"
        else:
            mask = (1 << (8 * size)) - 1
            v = lw.value(v)
            if v.const is not None:
                literal = v.const & mask
                val = f"{literal:#x}"
            elif size == 8:
                val = v.src
            else:
                val = lw.binop("and", v, const(mask)).src
            bits = val
        self._mark(pc)
        # fast path: a direct page write unless the page is watched
        # (it holds code: the write watch must see the store) or the
        # store leaves the page, which write_int handles
        slow = [f"si({{a}}, {size}, {bits})"]
        if check:
            slow.append(check)
        self._emit_access(skey, slow,
                          f"{self._accessor('P', key)}({{p}}, {{o}}, {val})",
                          store=True)
        self._store_invalidate(skey)
        # store-to-load forwarding: remember the stored value so a
        # same-address reload (this iteration or, as a seed, the next
        # one) costs one local read instead of a page access
        if not forward:
            return
        if literal is not None:
            self.mem_known[skey] = literal
            return
        table = self.fp_mem if key == "d" else self.mem_known
        table[skey] = nm = _slot(skey, "d" if key == "d" else "w")
        self.lines.append(f"{nm} = {val}")

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

    def _expand(self, lines: list, written: list[int],
                pad: str = "") -> list[str]:
        """Indent *lines* by *pad* and a nested block (a list) one level
        more, resolve the placeholders and drop dead constant writes: a
        spill stores every register in the final written set from its
        local and packs its dirty F registers' floats into ``fr``, an
        access becomes :meth:`_resolve_access`'s lines, and a branch back
        edge's seeds (a tuple) :meth:`_reseeds`'s."""
        out: list[str] = []
        for line in lines:
            if line is None:
                continue
            if isinstance(line, list):
                out += self._expand(line, written, pad + "    ")
                continue
            if isinstance(line, tuple):
                out += self._expand(self._reseeds(*line), written, pad)
                continue
            tag, _, regs = line.partition(":")
            if tag == _ACCESS:
                out += [pad + ln for ln in self._resolve_access(
                    self.accesses[int(regs)], written)]
            elif tag == _SPILL:
                out += [f"{pad}x[{r}] = r{r}" for r in written]
                out += [f"{pad}fr[{r}] = B64(g{r})"
                        for r in regs.split(",") if r]
            else:
                out.append(pad + line)
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

    def _preheader(self) -> list:
        """The seed loads, which run before the trace changes any
        state: the slot seeds the body forwards from (one it only stores
        needs no load), read like any other access."""
        mem, fmem, _ = self.seeds
        with self._into([]) as pre:
            for key, name in mem.items():
                if name in self.used:
                    self._emit_read(key, name, key[2])
            for key, name in fmem.items():
                if name in self.used:
                    self._emit_read(key, name, "d")
        return pre

    def build_result(self):
        """Compile the trace: the prologue (register loads, the entry
        guard, the page bindings), the pre-header (seed loads; one that
        faults hands the head to the cold path through ``CS``), the body
        (a ``while True:`` loop when a path closed), and the handler
        every fault and deopt leaves through.  Returns ``(fn, spans)``."""
        ns = self.ns
        pre = self._preheader()
        ns["P"] = tuple(self.sync_pc)
        ns["U"] = tuple(self.sync_cost)
        ns["N"] = tuple(self.sync_count)
        written = sorted(self.written)
        if self.back_edges:
            body = ["while True:", *self._expand(self.lines, written, "    ")]
        else:
            body = self._expand(self.lines, written) or ["pass"]
        pre = self._expand(pre, written, "    ")
        head = [f"r{r} = x[{r}]" for r in sorted(
            (self.localized | self.written | self.relied) - {0})]
        head += self._alias_guard()
        head += [f"{k} = {v}" for k, v in self.bindings.items()]
        if pre:
            ns["CS"] = partial(self.cache._cold_step, self.entry)
            head += ["try:", *pre, "except MF:", "    return CS"]
        head += [f"g{r} = F64(fr[{r}])" for r in self.seeds[2]]
        handler = [f"x[{r}] = r{r}" for r in written]
        if any(self.sync_fp):
            ns["FPP"] = tuple(self.sync_fp)
            handler += ["_lv = locals()", "for _fd in FPP[ip]:",
                        "    fr[_fd] = B64(_lv['g%d' % _fd])"]
        handler += ["m.pc = P[ip]", "m.ucycles += uc + U[ip]",
                    "m.instret += ir + N[ip]"]
        if "DO" in ns:  # a deopt check was emitted
            catch = "except (MF, SF, DO) as e:"
            handler += ["if e.__class__ is not DO:", "    raise",
                        "m.code_dirty = False", "D[0] += 1"]
        else:
            catch = "except (MF, SF):"
            handler.append("raise")
        name = "__mega__"
        src = "\n".join([
            f"def {name}({', '.join(f'{k}={k}' for k in ns)}):",
            "    ip = 0", "    uc = 0", "    ir = 0",
            *(f"    {ln}" for ln in head),
            "    try:", *(f"        {ln}" for ln in body),
            f"    {catch}", *(f"        {ln}" for ln in handler)]) + "\n"
        code = compile(src, f"<mega@{self.entry:#x}>", "exec")
        env = dict(ns)
        exec(code, env)
        return env[name], self._merge_spans()
