"""Tiered trace JIT for the simulator hot loop.

Tier 0 — cold code.  A pc with no trace-cache entry runs one
instruction on the machine's per-pc closure interpreter and adds one to
its dispatch count.  Most of an instrumented whole binary executes only
a few times, and building a closure is far cheaper than compiling a
trace, so nothing is compiled until the code proves hot.

Tier 1 — superblocks.  Once a pc has been dispatched
:data:`HOT_THRESHOLD` times, the straight-line run of instructions
starting there (ended by a branch/jump, or by anything that needs exact
per-instruction machine state — ecall/ebreak/fences/CSR reads/atomics)
is compiled into a single Python function that

* executes the whole block with machine state bound to locals,
* inlines each instruction the SAIL IR covers as the source
  :mod:`repro.semantics.lower` renders, plus the hot F/D forms (no
  per-instruction call at all), calling the executor's F/D bodies for
  the rest,
* charges timing as **one batched ucycle charge** per block
  (:meth:`TimingModel.block_ucycles`) and bumps ``instret`` once,
* **chains** directly to the successor trace when the (static) branch
  target has already been compiled, skipping even the per-block cache
  lookup.

Tier 2 — megatraces.  A superblock's backward branch/jal exits carry a
per-edge hot counter; when an edge fires :data:`HOT_THRESHOLD` times the
cache promotes the loop head into a **megatrace**: the loop body (following
fallthrough past forward branches, through direct calls, and through
returns whose target constant-folds) is compiled into one Python
function whose iterations run inside a ``while True:`` loop — they
never return to the dispatch loop.  Within a megatrace the hot integer
registers live in Python **locals**, spilled to the architectural
``x`` list only at side exits, guards, deopts and faults; the lowering
folds immediates and known-constant registers while emitting source
(``li``/``lui``/``auipc`` chains become literals, ``jal`` makes the link
register a known constant so the matching ``jalr`` return is followed
statically).

Indirect jumps (``jalr``) that end a trace are **guard-specialised**:
the generated code remembers the first observed target and chains
straight to its compiled trace while the guard holds, deoptimising to
the dispatch loop (and from there, if need be, the closure
interpreter) on a miss.

Patch safety
------------
Dynamic instrumentation rewrites code while it runs, so the trace cache
must never execute stale bytes:

* every write overlapping an executable range (self-modifying stores,
  ``Machine.write_mem`` from the patcher/ProcControl, breakpoint
  insertion) reaches :meth:`TraceCache.invalidate_range` through the
  :class:`~repro.sim.memory.Memory` write watch;
* invalidation drops every trace any of whose instruction **spans**
  overlap the written bytes (with the same 3-byte pre-slack as the
  per-pc icache: a patched instruction may start up to 3 bytes before
  the written address) and severs every chain link pointing at a
  dropped trace — megatraces track one span per contiguous stretch of
  code they inlined, so a write into a callee dropped a megatrace that
  inlined it even when the loop head lives pages away;
* a store *inside* a running trace that invalidates any trace sets
  ``machine.code_dirty``; the generated code spills cached registers,
  syncs architectural state and exits the block right after that store
  (counted under ``trace.deopts``), so the remaining (possibly
  rewritten) tail is re-fetched through the cache.

Traces keep architectural state exact at every *observable* boundary:
block entry/exit, any store, and any faulting load/store (a per-block
side table maps the fault site back to precise pc/ucycles/instret, and
the generated exception handler spills register locals — which hold
exactly the pre-fault architectural values — before re-raising).
Single-stepping, watchpoint runs and bounded ``run(max_steps=...)``
stay on the per-pc closure interpreter.  One exception to the tier-1
hotness gate: while a block-granularity event observer is attached,
every pc compiles on its first dispatch, because block-enter events are
emitted from compiled trace prologues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import faults
from ..riscv.decoder import DecodeError, decode
from ..semantics.lower import HELPERS, Lowering, Val, const, sx
from ..semantics.registry import semantics_for
from . import fp
from .executor import FMA_SIGNS, SimFault, build_body
from .memory import MemoryFault
from .timing import category_of

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: maximum instructions per superblock
MAX_BLOCK = 64

#: maximum instructions inlined into one megatrace
MAX_MEGA = 256

#: dispatches of an uncompiled pc before its superblock is compiled,
#: and back-edge executions before a loop head becomes a megatrace
HOT_THRESHOLD = 32

#: jalr guard misses tolerated before the inline cache rebinds
GUARD_REBIND = 64

#: 64-bit mask literal used throughout generated code
_M64 = "0xFFFFFFFFFFFFFFFF"
_MASK64 = (1 << 64) - 1

#: a read of x0
_ZERO = const(0, "0")

PAGE_BITS = 12

#: spill placeholder in generated megatrace source, expanded at build
#: time once the trace's full written-register set is known
_SPILL = "\x00SPILL"


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


def _base_ns(cache: "TraceCache") -> dict:
    """The namespace every generated trace function closes over (via
    default arguments).  Shared by the superblock and megatrace
    emitters."""
    m = cache.m
    return {
        "m": m, "x": m.x, "fr": m.f, "W": m.mem,
        "ri": m.mem.read_int, "si": m.mem.write_int,
        "PG": m.mem._pages.get, "FB": int.from_bytes,
        "sx": sx, "L": cache._link, "MT": cache._promote,
        "JM": cache._jalr_miss, "GH": cache.jalr_hits,
        "D": cache.deopt_count,
        "F64": fp.f64_from_bits, "B64": fp.bits_from_f64,
        "F32": fp.f32_from_bits, "B32": fp.bits_from_f32,
        "MF": MemoryFault, "SF": SimFault,
    }


class Trace:
    """One compiled trace: its covered instruction spans plus function."""

    __slots__ = ("entry", "fn", "backrefs", "kind", "spans")

    def __init__(self, entry: int, fn, spans: list[tuple[int, int]],
                 kind: str = "super"):
        self.entry = entry
        #: the compiled block function (``False`` marks a negative entry:
        #: the pc starts with an untraceable instruction)
        self.fn = fn
        #: chain cells (cells-list, index) that point at ``self.fn``;
        #: severed on invalidation
        self.backrefs: list[tuple[list, int]] = []
        #: "super" (tier-1 superblock) or "mega" (tier-2 loop trace)
        self.kind = kind
        #: merged [lo, hi) code intervals this trace compiled from; a
        #: superblock has one, a megatrace one per inlined stretch
        self.spans = spans


class TraceCache:
    """Tiered compiled-trace cache with range invalidation, chaining
    and megatrace promotion."""

    def __init__(self, machine: "Machine", mega: bool = True):
        self.m = machine
        #: megatrace promotion enabled (tier 2)
        self.mega_enabled = mega
        #: dispatches before a cold pc compiles (tier 1) and back-edge
        #: executions before a loop head is promoted (tier 2).  Read
        #: when a run starts and baked into generated superblocks at
        #: compile time: set it before the first run.
        self.hot_threshold = HOT_THRESHOLD
        #: uncompiled pc -> dispatches so far on the closure interpreter
        #: (the run loop binds this dict; mutate in place only)
        self.dispatches: dict[int, int] = {}
        #: entry pc -> block function (``False`` = negative entry).  The
        #: run loop binds ``fns.get``; mutate in place only.
        self.fns: dict[int, object] = {}
        self._traces: dict[int, Trace] = {}
        self._pages: dict[int, set[Trace]] = {}
        #: loop heads where megatrace compilation failed; retried only
        #: after the code covering them is rewritten
        self._no_mega: set[int] = set()
        # -- statistics (reported by the throughput ablation and the
        # telemetry subsystem)
        self.compiles = 0
        self.invalidations = 0
        self.links = 0
        self.mega_compiles = 0
        #: dispatch-loop hits on a compiled trace; bumped only during
        #: telemetry-observed runs (chained block->block transfers
        #: bypass the dispatch loop and are counted under ``links``)
        self.hits = 0
        #: shared mutable counters bound into generated code (one-element
        #: lists so traces can bump them without attribute lookups)
        self.jalr_hits = [0]
        self.jalr_misses = [0]
        #: early exits from compiled traces forced by invalidation
        #: (code_dirty after a store)
        self.deopt_count = [0]

    # -- management ------------------------------------------------------

    def clear(self) -> None:
        """Full flush (fence.i / load_image / observer mode change)."""
        if self._traces or self.fns:
            self.invalidations += 1
        self.fns.clear()
        self._traces.clear()
        self._pages.clear()
        self._no_mega.clear()
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
            stale = [t for t in bucket
                     if any(s_lo < hi and s_hi > lo
                            for s_lo, s_hi in t.spans)]
            for tr in stale:
                self._drop(tr)
                dropped = True
        if self._no_mega:
            self._no_mega -= {p for p in self._no_mega if lo <= p < hi}
        if dropped:
            self.invalidations += 1
            # a running trace exits at its next store / block boundary
            self.m.code_dirty = True

    def _pages_of(self, tr: Trace):
        pages = set()
        for lo, hi in tr.spans:
            pages.update(range(lo >> PAGE_BITS,
                               ((hi - 1) >> PAGE_BITS) + 1))
        return pages

    def _register(self, tr: Trace) -> None:
        self._traces[tr.entry] = tr
        self.fns[tr.entry] = tr.fn
        for page in self._pages_of(tr):
            self._pages.setdefault(page, set()).add(tr)

    def _drop(self, tr: Trace) -> None:
        self._traces.pop(tr.entry, None)
        self.fns.pop(tr.entry, None)
        for page in self._pages_of(tr):
            bucket = self._pages.get(page)
            if bucket is not None:
                bucket.discard(tr)
        fn = tr.fn
        for cells, idx in tr.backrefs:
            if cells[idx] is fn:
                cells[idx] = None
        tr.backrefs.clear()
        tr.fn = None

    def _link(self, cells: list, idx: int, pc: int):
        """Resolve a chain cell: bind the trace at *pc* into *cells[idx]*
        so the block jumps straight to its successor next time."""
        tr = self._traces.get(pc)
        if tr is None:
            return None
        fn = tr.fn
        if not fn:
            return None
        cells[idx] = fn
        tr.backrefs.append((cells, idx))
        self.links += 1
        return fn

    # -- megatrace promotion ---------------------------------------------

    def _promote(self, cells: list, idx: int, head: int):
        """Hot back-edge fired: compile (or link) the megatrace at
        *head*.  Called from generated superblock code with ``m.pc``
        already set to *head*; returns the function to run next (or
        ``None`` to fall back to the dispatch loop)."""
        tr = self._traces.get(head)
        if tr is not None and tr.kind == "mega":
            fn = tr.fn
            if not fn:
                return None
            cells[idx] = fn
            tr.backrefs.append((cells, idx))
            self.links += 1
            return fn
        if (not self.mega_enabled or self.m._trace_events
                or head in self._no_mega):
            return self._link(cells, idx, head)
        built = self._compile_mega(head)
        if built is None:
            self._no_mega.add(head)
            return self._link(cells, idx, head)
        fn, spans = built
        old = self._traces.get(head)
        if old is not None:
            self._drop(old)
        tr = Trace(head, fn, spans, kind="mega")
        self._register(tr)
        self.mega_compiles += 1
        cells[idx] = fn
        tr.backrefs.append((cells, idx))
        self.links += 1
        return fn

    def _jalr_miss(self, G: list, cells: list, idx: int, t: int):
        """Inline-cache miss on a guarded jalr exit.  First observation
        installs the guard; a persistent miss streak rebinds it to the
        latest target.  Returns the next function to run (or ``None``
        to deoptimise to the dispatch loop)."""
        if G[0] is None:
            G[0] = t
            return self._link(cells, idx, t)
        self.jalr_misses[0] += 1
        G[1] += 1
        if G[1] >= GUARD_REBIND:
            G[0] = t
            G[1] = 0
            cells[idx] = None
            return self._link(cells, idx, t)
        return None

    # -- compilation -----------------------------------------------------

    def compile_at(self, pc: int):
        """Compile the superblock entered at *pc* (called by the run loop
        once *pc* is warm; see :attr:`hot_threshold`).

        Returns the block function, or ``False`` when *pc* starts with an
        instruction that must run through the closure interpreter (the
        negative result is cached and invalidated like a real trace).
        """
        faults.site("sim.trace.compile")
        try:
            fn, end = self._compile(pc)
        except (DecodeError, MemoryFault):
            fn = False
        if fn is False:
            end = pc + 4
        self._register(Trace(pc, fn, [(pc, end)]))
        if fn is not False:
            self.compiles += 1
        return fn

    def _fetch(self, pc: int):
        mem = self.m.mem
        try:
            raw = mem.read_bytes(pc, 4)
        except MemoryFault:
            raw = mem.read_bytes(pc, 2)  # page-end compressed instr
        return decode(raw, 0, pc)

    def _compile(self, entry: int):
        emit = _Emitter(self, entry)
        pc = entry
        for _ in range(MAX_BLOCK):
            try:
                instr = self._fetch(pc)
            except (DecodeError, MemoryFault):
                if emit.count == 0:
                    return False, pc
                emit.finish_cut(pc, chain=False)
                return emit.build(), pc
            lw = _lower(emit, pc, instr)
            if lw is not None and lw.target is not None:
                emit.emit_transfer(pc, instr, lw)
                return emit.build(), pc + instr.length
            if not emit.emit_straight(pc, instr, lw):
                # untraceable (ecall/ebreak/fence/csr/amo/unknown)
                if emit.count == 0:
                    return False, pc
                emit.finish_cut(pc, chain=False)
                return emit.build(), pc
            pc += instr.length
        emit.finish_cut(pc, chain=True)
        return emit.build(), pc

    def _walk(self, emit: "_MegaEmitter", head: int) -> None:
        """Drive one emission pass over the loop rooted at *head*:
        follow the straight-line path (guarding forward branches,
        following direct calls and constant-folded returns) until the
        path returns to *head*, leaves through an exit, or hits a
        limit (chained exit)."""
        pc = head
        visited: set[int] = set()
        budget = MAX_MEGA - emit.count
        for _ in range(max(budget, 1)):
            if pc == head and emit.count:
                emit.close_loop()
                return
            if pc in visited:
                emit.exit_chain(pc)
                return
            try:
                instr = self._fetch(pc)
            except (DecodeError, MemoryFault):
                emit.exit_plain(pc)
                return
            visited.add(pc)
            lw = _lower(emit, pc, instr)
            if lw is not None and lw.target is not None:
                pc = emit.emit_transfer(pc, instr, lw)
            elif emit.emit_straight(pc, instr, lw):
                pc += instr.length
            else:
                emit.exit_plain(pc)
                return
            if pc is None:  # the emitter closed or exited the trace
                return
        emit.exit_chain(pc)

    def _compile_mega(self, head: int):
        """Build the megatrace rooted at loop head *head*.

        The loop is compiled as two stitched bodies: a straight-line
        **warmup** pass for the first iteration, then a steady-state
        ``while True:`` body spliced in at every point the warmup
        returns to the head.  The steady-state body is emitted with the
        warmup's surviving constants and forwarded memory values as
        seeds, so loop-invariant stack slots load once per loop *entry*
        instead of once per iteration; a fixpoint drops any seed that
        is invalidated inside the steady-state body (stores,
        base-register writes) or that fails to re-establish itself by
        the back edge — either would be stale on the next iteration.

        Returns ``(fn, spans)`` or ``None``."""
        emit = _MegaEmitter(self, head)
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
        return emit.build_result()


class _Emitter:
    """Generates the Python source of one superblock function."""

    def __init__(self, cache: TraceCache, entry: int):
        self.cache = cache
        self.m = cache.m
        self.entry = entry
        self.lines: list[str] = []
        # namespace bound into the function via default arguments
        self.ns = _base_ns(cache)
        self.count = 0
        self.cost = 0
        self.cells = 0
        self.has_hot = False
        # fault side table: ip -> (pc, ucycles-before, instret-before)
        self.sync_pc = [entry]
        self.sync_cost = [0]
        self.sync_count = [0]
        self._tmp = 0
        # block-granularity observation: compile one block-enter emit
        # into the trace prologue.  _rebuild_emit flushes the cache
        # whenever this mode (or the emit fan-out) changes, so binding
        # the current emit callable at compile time is safe.
        m = self.m
        if m._trace_events and m._emit is not None:
            self.ns["EV"] = m._emit
            self.lines.append(
                f"EV((5, {entry:#x}, 0, m.instret, m.ucycles))")

    # -- helpers ---------------------------------------------------------

    def _bind_body(self, body) -> str:
        name = f"b{self.count}"
        self.ns[name] = body
        return name

    def _mark(self, pc: int) -> None:
        """Record a sync point for a possibly-faulting statement."""
        ip = len(self.sync_pc)
        self.sync_pc.append(pc)
        self.sync_cost.append(self.cost)
        self.sync_count.append(self.count)
        self.lines.append(f"ip = {ip}")

    def _charge(self, mn: str, instr) -> None:
        self.cost += self.m.timing.ucycles(
            category_of(mn, instr.spec.match & 0x7F))
        self.count += 1

    def _bookkeep(self) -> None:
        self.lines.append(f"m.ucycles += {self.cost}")
        self.lines.append(f"m.instret += {self.count}")

    def _chain_cell(self) -> int:
        k = self.cells
        self.cells += 1
        return k

    def _chain_return(self, target: int) -> None:
        k = self._chain_cell()
        self.lines.append(f"t = S[{k}]")
        self.lines.append("if t is None:")
        self.lines.append(f"    t = L(S, {k}, {target:#x})")
        self.lines.append("return t")

    def _hot_chain_return(self, target: int, indent: str = "") -> None:
        """Chain return over a backward edge: count executions and
        promote the target to a megatrace once hot."""
        if (not self.cache.mega_enabled or self.m._trace_events):
            k = self._chain_cell()
            self.lines.append(f"{indent}t = S[{k}]")
            self.lines.append(f"{indent}if t is None:")
            self.lines.append(f"{indent}    t = L(S, {k}, {target:#x})")
            self.lines.append(f"{indent}return t")
            return
        if not self.has_hot:
            self.has_hot = True
            self.ns["C"] = [0]
        k = self._chain_cell()
        self.lines.append(f"{indent}C[0] += 1")
        self.lines.append(
            f"{indent}if C[0] >= {self.cache.hot_threshold}:")
        self.lines.append(f"{indent}    C[0] = 0")
        self.lines.append(f"{indent}    return MT(S, {k}, {target:#x})")
        self.lines.append(f"{indent}t = S[{k}]")
        self.lines.append(f"{indent}if t is None:")
        self.lines.append(f"{indent}    t = L(S, {k}, {target:#x})")
        self.lines.append(f"{indent}return t")

    # -- lowering target --------------------------------------------------

    def reg(self, n: int) -> Val:
        return _ZERO if n == 0 else Val(f"x[{n}]")

    def load(self, lw: Lowering, base: int, off: Val, size: int) -> Val:
        addr = lw.value(lw.binop("add", self.reg(base), off))
        v = self._temp()
        self._mark(lw.pc)
        self.lines += self._load_lines(v, addr.src, size)
        return Val(v, bits=8 * size)

    # -- straight-line instructions --------------------------------------

    def emit_straight(self, pc: int, instr, lw) -> bool:
        """Emit one non-control instruction (lowered as *lw* when the IR
        covers it); False if untraceable."""
        mn = instr.mnemonic
        f = instr.fields
        if lw is not None and lw.stores:
            self._emit_store(pc, lw.stores[0].size, f, instr)
            return True
        if lw is not None:
            self.lines += [f"x[{r}] = {lw.value(v).src}"
                           for r, v in lw.writes]
            self._charge(mn, instr)
            return True
        line = self._inline(pc, mn, f)
        if line is not None:
            self.lines += line if isinstance(line, list) else [line]
            self._charge(mn, instr)
            return True
        if mn in ("fsw", "fsd"):
            self._emit_store(pc, 4 if mn == "fsw" else 8, f, instr)
            return True
        body = build_body(self.m, pc, instr)
        if body is None:
            return False
        self._mark(pc)
        self.lines.append(f"{self._bind_body(body)}()")
        self._charge(mn, instr)
        return True

    def _emit_store(self, pc: int, size: int, f: dict, instr) -> None:
        src = "fr" if instr.mnemonic in ("fsw", "fsd") else "x"
        addr = f"(x[{f['rs1']}] + {f['imm']}) & {_M64}"
        self._mark(pc)
        self.lines.append(f"si({addr}, {size}, {src}[{f['rs2']}])")
        self._charge(instr.mnemonic, instr)
        # patch safety: if this store invalidated any trace, sync state
        # and leave the block — the tail is re-fetched through the cache.
        self.lines.append("if m.code_dirty:")
        self.lines.append("    m.code_dirty = False")
        self.lines.append("    D[0] += 1")
        self.lines.append(f"    m.pc = {pc + instr.length:#x}")
        self.lines.append(f"    m.ucycles += {self.cost}")
        self.lines.append(f"    m.instret += {self.count}")
        self.lines.append("    return None")

    def _inline(self, pc: int, mn: str, f: dict):
        """Source line(s) for the hot F/D forms, else None."""
        if mn in ("flw", "fld"):
            rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
            addr = f"(x[{rs1}] + {imm}) & {_M64}"
            size = 4 if mn == "flw" else 8
            v = self._temp()
            self._mark(pc)
            lines = self._load_lines(v, addr, size)
            if mn == "flw":
                lines.append(f"fr[{rd}] = 0xFFFFFFFF00000000 | {v}")
            else:
                lines.append(f"fr[{rd}] = {v}")
            return lines
        parts = mn.split(".")
        if len(parts) == 2 and parts[1] in ("s", "d"):
            root, fmt = parts
            G = "F32" if fmt == "s" else "F64"
            B = "B32" if fmt == "s" else "B64"
            if root in ("fadd", "fsub", "fmul"):
                op = {"fadd": "+", "fsub": "-", "fmul": "*"}[root]
                rd, a, b = f["rd"], f["rs1"], f["rs2"]
                return f"fr[{rd}] = {B}({G}(fr[{a}]) {op} {G}(fr[{b}]))"
            if root in FMA_SIGNS:
                ps, qs = FMA_SIGNS[root]
                rd, a, b, c = f["rd"], f["rs1"], f["rs2"], f["rs3"]
                return (f"fr[{rd}] = {B}({ps} * ({G}(fr[{a}]) * "
                        f"{G}(fr[{b}])) + {qs} * {G}(fr[{c}]))")
        return None

    def _temp(self) -> str:
        self._tmp += 1
        return f"v{self._tmp}"

    def _load_lines(self, v: str, addr: str, size: int) -> list[str]:
        """Memory read with the page-dict access inlined; falls back to
        ``read_int`` off-page-fastpath (cross-page or unmapped — the
        latter raises MemoryFault with ``ip`` already synced).  Reads
        never touch the write watch, so inlining is invalidation-safe;
        stores always go through ``write_int``."""
        return [
            f"a = {addr}",
            "pg = PG(a >> 12)",
            "o = a & 4095",
            f"if pg is None or o > {4096 - size}:",
            f"    {v} = ri(a, {size})",
            "else:",
            f"    {v} = FB(pg[o:o + {size}], 'little')",
        ]

    # -- terminators -----------------------------------------------------

    def emit_transfer(self, pc: int, instr, lw: Lowering) -> None:
        """End the block at a branch, or at a jump whose target is a
        constant (chained) or computed (guarded)."""
        fall = pc + instr.length
        self._charge(instr.mnemonic, instr)
        cond = lw.cond
        target = lw.target
        if cond is not None and cond.const is None:
            taken = target.const
            self._bookkeep()
            self.lines.append(f"if {cond.src}:")
            self.lines.append(f"    m.pc = {taken:#x}")
            if taken <= pc:
                # backward edge: candidate loop head, count towards
                # megatrace promotion
                self._hot_chain_return(taken, indent="    ")
            else:
                k = self._chain_cell()
                self.lines.append(f"    t = S[{k}]")
                self.lines.append("    if t is None:")
                self.lines.append(f"        t = L(S, {k}, {taken:#x})")
                self.lines.append("    return t")
            self.lines.append(f"m.pc = {fall:#x}")
            self._chain_return(fall)
            return
        if cond is not None and not cond.const:
            target = const(fall)
        if target.const is None:
            self.lines.append(f"t = {lw.value(target).src}")
        self.lines += [f"x[{r}] = {lw.value(v).src}" for r, v in lw.writes]
        self._bookkeep()
        if target.const is not None:
            self.lines.append(f"m.pc = {target.const:#x}")
            if target.const <= pc:
                self._hot_chain_return(target.const)
            else:
                self._chain_return(target.const)
            return
        self.lines.append("m.pc = t")
        # guard-based target specialization: remember the observed
        # target and chain straight to its trace while the guard holds
        self.ns["G"] = [None, 0]
        k = self._chain_cell()
        self.lines.append("if t == G[0]:")
        self.lines.append(f"    f = S[{k}]")
        self.lines.append("    if f is not None:")
        self.lines.append("        GH[0] += 1")
        self.lines.append("        return f")
        self.lines.append(f"    return L(S, {k}, t)")
        self.lines.append(f"return JM(G, S, {k}, t)")

    def finish_cut(self, next_pc: int, chain: bool) -> None:
        """End a block without a control transfer (max length reached or
        the next instruction is untraceable)."""
        self._bookkeep()
        self.lines.append(f"m.pc = {next_pc:#x}")
        if chain:
            self._chain_return(next_pc)
        else:
            self.lines.append("return None")

    # -- assembly --------------------------------------------------------

    def build(self):
        self.ns["S"] = [None] * self.cells
        self.ns["P"] = tuple(self.sync_pc)
        self.ns["U"] = tuple(self.sync_cost)
        self.ns["N"] = tuple(self.sync_count)
        params = ", ".join(f"{k}={k}" for k in self.ns)
        body = "\n        ".join(self.lines) or "pass"
        src = (
            f"def __trace__({params}):\n"
            f"    ip = 0\n"
            f"    try:\n"
            f"        {body}\n"
            f"    except (MF, SF):\n"
            f"        m.pc = P[ip]\n"
            f"        m.ucycles += U[ip]\n"
            f"        m.instret += N[ip]\n"
            f"        raise\n"
        )
        code = compile(src, f"<trace@{self.entry:#x}>", "exec")
        env = dict(self.ns)
        exec(code, env)
        return env["__trace__"]


class _MegaEmitter:
    """Generates the Python source of one megatrace: a ``while True:``
    loop over the hot path rooted at a loop head, with the referenced
    integer registers cached in Python locals and immediates
    constant-folded at emission time."""

    def __init__(self, cache: TraceCache, entry: int):
        self.cache = cache
        self.m = cache.m
        self.entry = entry
        self.lines: list[str] = []
        self.ns = _base_ns(cache)
        self.count = 0
        self.cost = 0
        self.cells = 0
        self.sync_pc = [entry]
        self.sync_cost = [0]
        self.sync_count = [0]
        #: emission-time constant values per register (linear
        #: const-prop; x0 is always 0).  An entry here means "the
        #: emission-order-last write to this register was the literal" —
        #: re-executed every iteration, so it holds at runtime on every
        #: iteration, not just the first.  Constant writes are **never
        #: materialized** as local assignments: reads fold to literals,
        #: spill sites store the literal straight into ``x``, and the
        #: fault handler patches them from a per-ip const table.
        self.consts: dict[int, int] = {0: 0}
        #: integer registers whose Python local is referenced anywhere
        #: (loaded from ``x`` in the prologue)
        self.localized: set[int] = set()
        #: integer registers written (spilled at exits and faults)
        self.written: set[int] = set()
        #: per-exit-site const snapshot, keyed by spill marker id
        self.spill_consts: dict[int, dict[int, int]] = {}
        #: per-ip const snapshot for the fault handler (parallel to the
        #: P/U/N sync tables)
        self.sync_consts: list[tuple] = [()]
        #: known memory values: (base reg | None, offset, size) ->
        #: temp-local holding the loaded/stored bytes (little-endian
        #: unsigned).  ``None`` base keys absolute (const) addresses.
        self.mem_known: dict[tuple, str] = {}
        #: id of each register's latest const-write placeholder, or
        #: None once a non-const write supersedes it (build_result
        #: materializes exactly the surviving ids of the steady-state
        #: body; warmup const writes are always materialized)
        self.last_const: dict[int, int] = {}
        self._next_const = 0
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
        #: fp regs whose raw bit pattern is live in a named local or
        #: literal (purged when the backing name is reassigned)
        self.fp_bits: dict[int, str] = {}
        #: access key -> fp reg whose ``g`` local holds the float of
        #: the memory value (killed with the reg's ``g`` redefinition
        #: and by aliasing stores)
        self.fp_mem: dict[tuple, int] = {}
        #: per-ip dirty-fp sync table for the fault handler, parallel
        #: to P/U/N: tuples of (reg, bits-local-name | None)
        self.sync_fp: list[tuple] = [()]
        #: per-spill-site dirty-fp sync exprs, keyed like spill_consts
        self.spill_fp: dict[int, dict[int, str]] = {}
        #: per-close-site dirty-fp sync exprs (expanded at build time
        #: for regs whose dirtiness is not carried by the seeds)
        self.fpsync_sites: dict[int, dict[int, str]] = {}

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
        self.consts[r] = val
        self.written.add(r)
        # placeholder: only the emission-order-last constant write of a
        # register is materialized (build_result) — it seeds the local
        # for the next iteration's early exits; all earlier ones are
        # dead (reads fold to literals, spills/faults use snapshots)
        cid = self._next_const
        self._next_const += 1
        self.last_const[r] = cid
        self.lines.append(f"\x00CONST:{cid}:{r}:{val:#x}")
        self._forget_base(r)

    def set_expr(self, r: int, expr: str) -> None:
        if r == 0:
            return
        self.consts.pop(r, None)
        self.last_const[r] = None
        self.localized.add(r)
        self.written.add(r)
        self.lines.append(f"r{r} = {expr}")
        self._forget_base(r)

    def _clobber(self, r: int) -> None:
        """Register written by code outside our control (body call)."""
        if r == 0:
            return
        self.consts.pop(r, None)
        self.last_const[r] = None
        self.localized.add(r)
        self.written.add(r)
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
    # locals; struct pack/unpack round-trips doubles exactly, so
    # deferring the B64 pack until a sync point (exit, fault, fsw/flw,
    # body closure) is bit-identical to packing after every op.

    def _fp_kill_g(self, r: int) -> None:
        """Local ``g{r}`` is about to be reassigned: forwarded memory
        floats pointing at it are stale."""
        if self.fp_mem:
            for k in [k for k, v in self.fp_mem.items() if v == r]:
                del self.fp_mem[k]

    def _fp_def(self, r: int) -> None:
        """``fr[r]`` is about to be written directly: drop every cached
        claim about the register (its old value needs no write-back —
        the write replaces it architecturally)."""
        self.fp_dirty.discard(r)
        self.fp_float.discard(r)
        self.fp_bits.pop(r, None)
        self._fp_kill_g(r)

    def _fp_bits_expr(self, r: int) -> str:
        """Bit-pattern expression for fp reg *r*'s cached value."""
        b = self.fp_bits.get(r)
        return b if b is not None else f"B64(g{r})"

    def _fp_sync(self, r: int) -> None:
        """Make ``fr[r]`` architecturally fresh; cached knowledge
        survives, only the dirtiness clears."""
        if r in self.fp_dirty:
            self.fp_dirty.discard(r)
            self.lines.append(f"fr[{r}] = {self._fp_bits_expr(r)}")

    def _fp_float_of(self, r: int) -> str:
        """Expression for the float value of fp reg *r*, materializing
        ``g{r}`` lazily from the cheapest known bit source."""
        if r in self.fp_float:
            return f"g{r}"
        self._fp_kill_g(r)
        src = self.fp_bits.get(r, f"fr[{r}]")
        self.lines.append(f"g{r} = F64({src})")
        self.fp_float.add(r)
        return f"g{r}"

    def _fp_flush(self) -> None:
        """Write back every dirty fp register and forget all float
        state — emitted before anything that may read or write the
        architectural fr list behind our back (body closures)."""
        for r in sorted(self.fp_dirty):
            self.lines.append(f"fr[{r}] = {self._fp_bits_expr(r)}")
        self.fp_dirty.clear()
        self.fp_float.clear()
        self.fp_bits.clear()
        self.fp_mem.clear()

    def _fp_purge_name(self, nm: str) -> None:
        """Bits local *nm* is being reassigned: bit-pattern claims
        referencing it are stale (float claims keep their own ``g``
        locals and survive)."""
        if self.fp_bits:
            for r in [r for r, b in self.fp_bits.items() if b == nm]:
                del self.fp_bits[r]

    def _fp_dirty_snap(self) -> dict[int, str]:
        """Write-back exprs for the currently dirty fp regs (resolved
        now: emission is linear, so a name valid here is valid at
        runtime whenever control passes this site)."""
        return {r: self._fp_bits_expr(r) for r in sorted(self.fp_dirty)}

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
        self.sync_consts.append(tuple(
            (r, v) for r, v in sorted(self.consts.items()) if r))
        ents = []
        for r in sorted(self.fp_dirty):
            b = self.fp_bits.get(r)
            # the handler reads named locals through locals(); literal
            # bit patterns fall back to packing the float local
            ents.append((r, b if b and b.isidentifier() else None))
        self.sync_fp.append(tuple(ents))
        self.lines.append(f"ip = {ip}")

    def _chain_cell(self) -> int:
        k = self.cells
        self.cells += 1
        return k

    def _flush(self, indent: str) -> None:
        self.lines.append(f"{indent}uc += {self.cost}")
        self.lines.append(f"{indent}ir += {self.count}")

    def _spill_marker(self, indent: str) -> None:
        """Placeholder for a register spill at this exit site; expanded
        at build time against the final written set, with registers
        known constant *here* stored as literals."""
        sid = len(self.spill_consts)
        self.spill_consts[sid] = dict(self.consts)
        self.spill_fp[sid] = self._fp_dirty_snap()
        self.lines.append(f"{indent}{_SPILL}:{sid}")

    def _sync_exit(self, target_expr: str, indent: str) -> None:
        """Spill cached registers and make architectural state exact."""
        self._spill_marker(indent)
        self.lines.append(f"{indent}m.pc = {target_expr}")
        self.lines.append(f"{indent}m.ucycles += uc + {self.cost}")
        self.lines.append(f"{indent}m.instret += ir + {self.count}")

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
        fid = len(self.fpsync_sites)
        self.fpsync_sites[fid] = self._fp_dirty_snap()
        self.lines.append(f"{indent}\x00FPSYNC:{fid}")
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
        self.last_const = {}
        self.fp_float = set(seed_fp)
        self.fp_dirty = {r for r, d in seed_fp.items() if d}
        self.fp_bits = {}
        self.fp_mem = dict(seed_fp_mem)
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
            "cells": self.cells,
            "nc": self._next_const, "ns": set(self.ns),
            "localized": set(self.localized),
            "written": set(self.written),
            "sync": len(self.sync_pc),
            "spills": len(self.spill_consts),
            "fpsync": len(self.fpsync_sites),
            "pcs": len(self._pcs),
        }

    def restore(self, snap: dict) -> None:
        """Undo one steady-state emission pass (see :meth:`snapshot`)."""
        self.cells = snap["cells"]
        self._next_const = snap["nc"]
        for k in set(self.ns) - snap["ns"]:
            del self.ns[k]
        self.localized = snap["localized"]
        self.written = snap["written"]
        del self.sync_pc[snap["sync"]:]
        del self.sync_cost[snap["sync"]:]
        del self.sync_count[snap["sync"]:]
        del self.sync_consts[snap["sync"]:]
        del self.sync_fp[snap["sync"]:]
        for sid in range(snap["spills"], len(self.spill_consts)):
            del self.spill_consts[sid]
            del self.spill_fp[sid]
        for fid in range(snap["fpsync"], len(self.fpsync_sites)):
            del self.fpsync_sites[fid]
        del self._pcs[snap["pcs"]:]

    def exit_chain(self, target: int, indent: str = "") -> None:
        """Side exit to a known pc, chained to its compiled trace."""
        self._sync_exit(f"{target:#x}", indent)
        k = self._chain_cell()
        self.lines.append(f"{indent}t = S[{k}]")
        self.lines.append(f"{indent}if t is None:")
        self.lines.append(f"{indent}    t = L(S, {k}, {target:#x})")
        self.lines.append(f"{indent}return t")

    def exit_plain(self, target: int, indent: str = "") -> None:
        """Side exit to a pc the trace compiler cannot handle (the
        dispatch loop deoptimises to the closure interpreter there)."""
        self._sync_exit(f"{target:#x}", indent)
        self.lines.append(f"{indent}return None")

    # -- lowering target --------------------------------------------------

    def reg(self, n: int) -> Val:
        c = self.consts.get(n)
        return Val(self.use(n)) if c is None else const(c, self.use(n))

    def load(self, lw: Lowering, base: int, off: Val, size: int) -> Val:
        return Val(self._load_value(lw.pc, base, sx(off.const), size),
                   bits=8 * size)

    def _write(self, lw: Lowering, r: int, v: Val) -> None:
        if v.const is not None:
            self.set_const(r, v.const)
            return
        src = lw.value(v).src
        if src != f"r{r}":
            self.set_expr(r, src)

    # -- control transfer -------------------------------------------------

    def emit_transfer(self, pc: int, instr, lw: Lowering):
        """Emit a branch or jump.  Returns the pc to keep building at,
        or None if the emitter closed the trace."""
        self._cover(pc, instr.length)
        self._charge(instr.mnemonic, instr)
        fall = pc + instr.length
        cond = lw.cond
        target = lw.target
        if cond is not None:
            taken = target.const
            if cond.const is not None:
                # both operands known: the branch folds to a direct jump
                return taken if cond.const else fall
            self.lines.append(f"if {cond.src}:")
            if taken == self.entry:
                # the loop's own back-edge: guard and start the next
                # iteration without leaving compiled code
                self.close_loop(indent="    ")
            else:
                self.exit_chain(taken, indent="    ")
            return fall
        if target.const is None:
            self.lines.append(f"t = {lw.value(target).src}")
        # a link register becomes a known constant, so a jalr through a
        # register the trace set (a return) folds and the call inlines
        for r, v in lw.writes:
            self._write(lw, r, v)
        if target.const is not None:
            return target.const
        # dynamic target: end the trace through a guarded exit.  An
        # indirect loop closure (a jalr landing back on the head)
        # continues iterating without leaving the trace
        self.lines.append(f"if t == {self.entry:#x}:")
        self.close_loop(indent="    ")
        self._spill_marker("")
        self.lines.append("m.pc = t")
        self.lines.append(f"m.ucycles += uc + {self.cost}")
        self.lines.append(f"m.instret += ir + {self.count}")
        self.ns["G"] = [None, 0]
        k = self._chain_cell()
        self.lines.append("if t == G[0]:")
        self.lines.append(f"    f = S[{k}]")
        self.lines.append("    if f is not None:")
        self.lines.append("        GH[0] += 1")
        self.lines.append("        return f")
        self.lines.append(f"    return L(S, {k}, t)")
        self.lines.append(f"return JM(G, S, {k}, t)")
        return None

    # -- straight-line instructions ---------------------------------------

    def emit_straight(self, pc: int, instr, lw) -> bool:
        mn = instr.mnemonic
        f = instr.fields
        if lw is not None and lw.stores:
            self._emit_store(pc, lw.stores[0].size, f, instr)
            return True
        if lw is not None:
            self._cover(pc, instr.length)
            for r, v in lw.writes:
                self._write(lw, r, v)
            self._charge(mn, instr)
            return True
        if self._inline(pc, mn, f, instr):
            return True
        if mn in ("fsw", "fsd"):
            self._emit_store(pc, 4 if mn == "fsw" else 8, f, instr)
            return True
        body = build_body(self.m, pc, instr)
        if body is None:
            return False
        # fallback body closures read/write the architectural x list:
        # spill the cached registers around the call and reload the
        # destination afterwards
        self._cover(pc, instr.length)
        self._fp_flush()  # the body may read or write any fr slot
        self._mark(pc)
        self._spill_marker("")
        self.lines.append(f"{self._bind_body(body)}()")
        rd = f.get("rd")
        if rd:
            self._clobber(rd)
            self.lines.append(f"r{rd} = x[{rd}]")
        self._charge(mn, instr)
        self.mem_known.clear()  # the body may store anywhere
        return True

    def _bind_body(self, body) -> str:
        name = f"b{self.count}"
        self.ns[name] = body
        return name

    def _inline(self, pc: int, mn: str, f: dict, instr) -> bool:
        """Emit the hot F/D forms (double precision through float
        locals); False if the form is not inlined."""
        if mn in ("flw", "fld"):
            rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
            self._cover(pc, instr.length)
            if mn == "flw":
                v = self._load_value(pc, rs1, imm, 4)
                self._fp_def(rd)
                self.lines.append(
                    f"fr[{rd}] = 0xFFFFFFFF00000000 | {v}")
                self._charge(mn, instr)
                return True
            # fld goes straight into the float cache: fr[rd] stays
            # stale (dirty) until a sync point needs the bit pattern
            key = self._mem_key(rs1, imm, 8)
            fsrc = self.fp_mem.get(key)
            v = self._load_value(pc, rs1, imm, 8)
            if fsrc is not None and fsrc in self.fp_float:
                # the slot's float is already live in a local: the
                # reload is at most a local-to-local copy
                if fsrc != rd:
                    self._fp_kill_g(rd)
                    self.lines.append(f"g{rd} = g{fsrc}")
            else:
                self._fp_kill_g(rd)
                self.lines.append(f"g{rd} = F64({v})")
                self.fp_mem[key] = rd
            self.fp_float.add(rd)
            self.fp_bits[rd] = v
            self.fp_dirty.add(rd)
            self._charge(mn, instr)
            return True
        parts = mn.split(".")
        if len(parts) == 2 and parts[1] in ("s", "d"):
            root, fmt = parts
            G = "F32" if fmt == "s" else "F64"
            B = "B32" if fmt == "s" else "B64"
            if root in ("fadd", "fsub", "fmul"):
                op = {"fadd": "+", "fsub": "-", "fmul": "*"}[root]
                rd, a, b = f["rd"], f["rs1"], f["rs2"]
                if fmt == "d":
                    fa = self._fp_float_of(a)
                    fb = self._fp_float_of(b)
                    self._fp_kill_g(rd)
                    self.lines.append(f"g{rd} = {fa} {op} {fb}")
                    self.fp_bits.pop(rd, None)
                    self.fp_float.add(rd)
                    self.fp_dirty.add(rd)
                else:
                    self._fp_sync(a)
                    self._fp_sync(b)
                    self._fp_def(rd)
                    self.lines.append(
                        f"fr[{rd}] = {B}({G}(fr[{a}]) {op} "
                        f"{G}(fr[{b}]))")
                self._cover(pc, instr.length)
                self._charge(mn, instr)
                return True
            if root in FMA_SIGNS:
                ps, qs = FMA_SIGNS[root]
                rd, a, b, c = f["rd"], f["rs1"], f["rs2"], f["rs3"]
                if fmt == "d":
                    fa = self._fp_float_of(a)
                    fb = self._fp_float_of(b)
                    fc = self._fp_float_of(c)
                    self._fp_kill_g(rd)
                    self.lines.append(
                        f"g{rd} = {ps} * ({fa} * {fb}) + {qs} * {fc}")
                    self.fp_bits.pop(rd, None)
                    self.fp_float.add(rd)
                    self.fp_dirty.add(rd)
                else:
                    self._fp_sync(a)
                    self._fp_sync(b)
                    self._fp_sync(c)
                    self._fp_def(rd)
                    self.lines.append(
                        f"fr[{rd}] = {B}({ps} * ({G}(fr[{a}]) * "
                        f"{G}(fr[{b}])) + {qs} * {G}(fr[{c}]))")
                self._cover(pc, instr.length)
                self._charge(mn, instr)
                return True
        return False

    # -- memory access ----------------------------------------------------

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
        base register."""
        c = self.const_of(rs1)
        if c is not None:
            return (None, (c + imm) & _MASK64, size)
        return (rs1, imm, size)

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
            return hit
        v = self._stable(key)
        self._fp_purge_name(v)
        self._mark(pc)
        c = self.const_of(rs1)
        if c is not None:
            addr = (c + imm) & _MASK64
            off = addr & 4095
            if off > 4096 - size:  # crosses a page: slow path only
                self.lines.append(f"{v} = ri({addr:#x}, {size})")
            else:
                self.lines += [
                    f"pg = PG({addr >> 12:#x})",
                    "if pg is None:",
                    f"    {v} = ri({addr:#x}, {size})",
                    "else:",
                    f"    {v} = FB(pg[{off}:{off + size}], 'little')",
                ]
        else:
            self.lines += [
                f"a = {self._addr_expr(rs1, imm)}",
                "pg = PG(a >> 12)",
                "o = a & 4095",
                f"if pg is None or o > {4096 - size}:",
                f"    {v} = ri(a, {size})",
                "else:",
                f"    {v} = FB(pg[o:o + {size}], 'little')",
            ]
        self.mem_known[key] = v
        return v

    def _store_invalidate(self, key: tuple) -> None:
        """A store to *key* kills forwarded values it may alias: every
        entry with a different base (aliasing unprovable), and same-
        base entries whose byte ranges overlap."""
        base, off, size = key
        for k in list(self.mem_known):
            if k[0] != base or (k[1] < off + size and off < k[1] + k[2]):
                del self.mem_known[k]
        for k in list(self.fp_mem):
            if k[0] != base or (k[1] < off + size and off < k[1] + k[2]):
                del self.fp_mem[k]

    def _emit_store(self, pc: int, size: int, f: dict, instr) -> None:
        mn = instr.mnemonic
        rs2 = f["rs2"]
        imm = f["imm"]
        skey = self._mem_key(f["rs1"], imm, size)
        fsd_cached = False
        if mn == "fsd":
            b = self.fp_bits.get(rs2)
            if b is None and rs2 in self.fp_float:
                b = f"B64(g{rs2})"
            if b is not None:
                # store straight from the float cache: the bits land in
                # the forwarding local first, so any B64 runs once and
                # the value is forwarded to same-slot reloads for free
                nm = self._stable(skey)
                if b != nm:
                    self._fp_purge_name(nm)
                    self.lines.append(f"{nm} = {b}")
                    self.fp_bits[rs2] = nm
                val_int = nm
                val_bytes = f"{nm}.to_bytes(8, 'little')"
                fsd_cached = True
            else:
                val_int = f"fr[{rs2}]"
                val_bytes = f"fr[{rs2}].to_bytes(8, 'little')"
        elif mn == "fsw":
            self._fp_sync(rs2)
            val_int = f"fr[{rs2}]"
            val_bytes = (f"(fr[{rs2}] & 0xFFFFFFFF)"
                         f".to_bytes(4, 'little')")
        else:
            c = self.const_of(rs2)
            if c is not None:
                val_int = f"{c:#x}" if c else "0"
                val_bytes = repr(
                    (c & ((1 << (8 * size)) - 1))
                    .to_bytes(size, "little"))
            else:
                v = self.use(rs2)
                val_int = v
                if size == 8:
                    val_bytes = f"{v}.to_bytes(8, 'little')"
                else:
                    mask = (1 << (8 * size)) - 1
                    val_bytes = (f"({v} & {mask:#x})"
                                 f".to_bytes({size}, 'little')")
        self._cover(pc, instr.length)
        self._mark(pc)
        c1 = self.const_of(f["rs1"])
        if c1 is not None:
            addr = (c1 + imm) & _MASK64
            off = addr & 4095
            a, o = f"{addr:#x}", str(off)
            cross = off > 4096 - size
            if not cross:
                self.lines.append(f"pg = PG({addr >> 12:#x})")
        else:
            self.lines.append(f"a = {self._addr_expr(f['rs1'], imm)}")
            self.lines.append("pg = PG(a >> 12)")
            self.lines.append("o = a & 4095")
            a, o = "a", "o"
            cross = False
        if cross:
            self.lines.append(f"si({a}, {size}, {val_int})")
        else:
            # fast path: direct page write outside the watched code
            # ranges; anything near code (or off-page) goes through
            # write_int so the write watch can invalidate traces
            self.lines += [
                f"if pg is None or {o} > {4096 - size} or "
                f"({a} < W._watch_hi and {a} + {size} > W._watch_lo):",
                f"    si({a}, {size}, {val_int})",
                "else:",
                f"    pg[{o}:{o} + {size}] = {val_bytes}"
                if c1 is None else
                f"    pg[{off}:{off + size}] = {val_bytes}",
            ]
        self._charge(mn, instr)
        self._store_invalidate(skey)
        # store-to-load forwarding: remember the stored value so a
        # same-address reload (this iteration or, via seeding, the next
        # one) costs one local read instead of a page access
        fwd = None
        if mn == "fsd":
            if fsd_cached:
                self.mem_known[skey] = val_int
                if rs2 in self.fp_float:
                    self.fp_mem[skey] = rs2
            else:
                fwd = f"fr[{rs2}]"
        elif mn == "fsw":
            fwd = f"fr[{rs2}] & 0xFFFFFFFF"
        else:
            c2 = self.const_of(rs2)
            if c2 is not None:
                self.mem_known[skey] = \
                    f"{c2 & ((1 << (8 * size)) - 1):#x}"
            elif size == 8:
                fwd = self.use(rs2)
            else:
                fwd = f"{self.use(rs2)} & {(1 << (8 * size)) - 1:#x}"
        if fwd is not None:
            nm = self._stable(skey)
            self._fp_purge_name(nm)
            self.lines.append(f"{nm} = {fwd}")
            self.mem_known[skey] = nm
            if mn == "fsd":
                self.fp_bits[rs2] = nm
        self.lines.append("if m.code_dirty:")
        self.lines.append("    m.code_dirty = False")
        self.lines.append("    D[0] += 1")
        self._sync_exit(f"{pc + instr.length:#x}", indent="    ")
        self.lines.append("    return None")

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

    def _expand(self, lines: list[str], materialize_all: bool,
                written: list[int]) -> list[str]:
        """Resolve const/spill placeholders against the final written
        set.

        In the warmup body every constant write materializes (it runs
        once per loop entry, and keeping each local architecturally
        fresh at every warmup position is what makes entering the
        steady-state body safe under any seed set).  In the
        steady-state body only each register's emission-order-last
        constant write materializes: it seeds the local across the back
        edge, making plain ``x[r] = r{r}`` spills correct at
        sites/faults that precede the register's writes in iteration
        order (where no const snapshot covers it); all earlier ones are
        dead — reads fold to literals, spills/faults use snapshots."""
        out: list[str] = []
        for line in lines:
            stripped = line.lstrip(" ")
            pad = line[:len(line) - len(stripped)]
            if stripped.startswith("\x00CONST:"):
                cid, r, val = stripped.split(":")[1:]
                if materialize_all or \
                        self.last_const.get(int(r)) == int(cid):
                    out.append(f"{pad}r{r} = {val}")
                    self.localized.add(int(r))
                continue
            if stripped.startswith("\x00SPILL:"):
                sid = int(stripped.split(":")[1])
                sc = self.spill_consts[sid]
                out += [
                    f"{pad}x[{r}] = {sc[r]:#x}" if r in sc
                    else f"{pad}x[{r}] = r{r}"
                    for r in written
                ]
                out += [f"{pad}fr[{r}] = {e}"
                        for r, e in self.spill_fp[sid].items()]
                continue
            if stripped.startswith("\x00FPSYNC:"):
                # back-edge fp write-back: dirty regs whose dirtiness
                # the seeds carry across the loop stay in their floats;
                # everything else syncs here
                site = self.fpsync_sites[int(stripped.split(":")[1])]
                out += [f"{pad}fr[{r}] = {e}"
                        for r, e in site.items()
                        if not self.seed_fp.get(r)]
                continue
            out.append(line)
        return out

    def build_result(self):
        ns = self.ns
        ns["S"] = [None] * self.cells
        ns["P"] = tuple(self.sync_pc)
        ns["U"] = tuple(self.sync_cost)
        ns["N"] = tuple(self.sync_count)
        ns["CF"] = tuple(self.sync_consts)
        written = sorted(self.written)
        if self.warm_lines is not None:
            # stitch: warmup body once, steady-state loop spliced in at
            # every close site (markers keep the site's own indent, so
            # a conditional back edge nests its loop inside the branch)
            fast = self._expand(self.lines, False, written)
            body_lines: list[str] = []
            for line in self._expand(self.warm_lines, True, written):
                stripped = line.lstrip(" ")
                pad = line[:len(line) - len(stripped)]
                if stripped == "\x00CLOSE":
                    body_lines.append(f"{pad}while True:")
                    body_lines += [f"{pad}    {fl}" for fl in fast]
                    continue
                body_lines.append(line)
        else:
            # the path never returned to the head: a straight-line
            # body whose every path returns
            body_lines = self._expand(self.lines, True, written)
        has_fpp = any(self.sync_fp)
        if has_fpp:
            ns["FPP"] = tuple(self.sync_fp)
        loads = [f"r{r} = x[{r}]"
                 for r in sorted((self.localized | self.written) - {0})]
        spill = [f"x[{r}] = r{r}" for r in written]
        body = "\n        ".join(body_lines) or "pass"
        prologue = "\n    ".join(loads)
        handler_spill = "\n        ".join(spill)
        fp_handler = (
            "        _lv = locals()\n"
            "        for _fd, _fn in FPP[ip]:\n"
            "            fr[_fd] = _lv[_fn] if _fn else "
            "B64(_lv['g%d' % _fd])\n"
        ) if has_fpp else ""
        src = (
            f"def __mega__({', '.join(f'{k}={k}' for k in ns)}):\n"
            f"    ip = 0\n"
            f"    uc = 0\n"
            f"    ir = 0\n"
            + (f"    {prologue}\n" if loads else "")
            + f"    try:\n"
            f"        {body}\n"
            f"    except (MF, SF):\n"
            + (f"        {handler_spill}\n" if spill else "")
            + fp_handler
            + f"        for _rv in CF[ip]:\n"
            f"            x[_rv[0]] = _rv[1]\n"
            f"        m.pc = P[ip]\n"
            f"        m.ucycles += uc + U[ip]\n"
            f"        m.instret += ir + N[ip]\n"
            f"        raise\n"
        )
        code = compile(src, f"<mega@{self.entry:#x}>", "exec")
        env = dict(ns)
        exec(code, env)
        return env["__mega__"], self._merge_spans()
