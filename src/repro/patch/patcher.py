"""PatchAPI: snippet insertion (paper §2.2).

The :class:`Patcher` takes (points, snippet) requests — Dyninst's
``(P, AST)`` tuples — and at :meth:`commit` time builds, per patch site:

1. the springboard overwriting the original instruction(s), picked from
   the §3.1.2 efficiency ladder by the bytes left in the block;
2. a scratch plan (dead registers first, §4.3's optimisation; spill-
   backed otherwise — disable with ``use_dead_registers=False`` to get
   the legacy x86-engine behaviour);
3. the payloads (CodeGenAPI), each wrapped in spill saves and restores;
4. a trampoline: optional far-springboard restore, the payload, the
   relocated original instruction(s) (an edge point's branch with its
   edge payloads), and the jump back.

The result applies to a live simulator machine (dynamic instrumentation)
or serialises through the static rewriter (:mod:`repro.patch.rewriter`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .. import faults, telemetry
from ..codegen.generator import (
    SnippetGenerator, required_scratch, snippet_calls,
)
from ..errors import ReproError
from ..codegen.regalloc import SpillArea, allocate_scratch
from ..codegen.snippets import DataArea, Snippet
from ..dataflow.liveness import (
    LivenessResult, analyze_liveness, dead_regs, regs_of,
)
from ..parse.parser import CodeObject, parse_binary
from ..riscv.registers import ARG_REGS, CALLER_SAVED, RA, Register
from ..symtab.symtab import Symtab
from .points import Point
from .relocate import consumed_instructions, lower_relocated
from .springboard import (
    SpringboardKind, build_springboard, far_preamble_restore,
)
from .trampoline import TrampolineBuilder
from .transaction import apply_result, remove_result


class PatchError(ReproError, RuntimeError):
    pass


class PatchConflict(PatchError):
    """Two patch sites overlap (one springboard would corrupt another)."""


@dataclass
class PatchStats:
    """What the instrumentation pass did (reported by the benchmarks)."""

    points: int = 0
    trampolines: int = 0
    springboards: Counter = field(default_factory=Counter)
    dead_regs_used: int = 0
    spilled_regs: int = 0
    trampoline_bytes: int = 0
    trap_sites: int = 0
    #: springboard-ladder exhaustions degraded to the trap tier
    trap_fallbacks: int = 0


@dataclass
class PatchResult:
    """The committed instrumentation, ready to apply or serialise."""

    text_base: int
    text: bytes
    trampoline_base: int
    trampoline_code: bytes
    data_base: int
    data_size: int
    trap_map: dict[int, int]
    stats: PatchStats
    data_area: DataArea
    #: the pre-instrumentation text image (for removal)
    original_text: bytes = b""
    #: [lo, hi) text spans overwritten by springboards.  Mid-run
    #: patching writes (and invalidates) only these spans, so compiled
    #: traces elsewhere in the text survive the install.
    patched_ranges: list[tuple[int, int]] = field(default_factory=list)

    def apply_to_machine(self, machine) -> None:
        """Dynamic instrumentation: patch a loaded simulator machine.

        The application is **transactional** (see
        :mod:`repro.patch.transaction`): every page the commit touches
        is journaled first, and any failure mid-apply rolls the machine
        back to its pre-call architectural state bit-identically before
        the exception propagates.  Only the springboard spans are
        written; each write is followed by an explicit
        ``invalidate_code_range`` so stale compiled code is dropped even
        on machines whose memory write watch is not armed (e.g. images
        loaded without an exec range).
        """
        apply_result(self, machine)

    def remove_from_machine(self, machine) -> tuple[int, int]:
        """Remove the instrumentation from a live machine: restore the
        original code bytes and retire the trap redirects.  Counter
        values in the data area survive (tools read them afterwards).

        Transactional like :meth:`apply_to_machine`; additionally, a
        springboard span that a *later* patch has since overwritten is
        left in place (restoring our pre-patch bytes would orphan the
        survivor), and a trap redirect is only retired while it still
        points at our trampoline.  Returns ``(restored, skipped)`` span
        counts.

        The machine must not be stopped *inside* a trampoline when this
        is called (the trampoline region is left mapped so a caller who
        ignores this degrades gracefully, but the instrumentation no
        longer fires).
        """
        if not self.original_text:
            raise PatchError("original text not recorded; cannot remove")
        return remove_result(self, machine)


class _IntersectedLiveness:
    """Duck-typed LivenessResult over several functions' views: live =
    union of lives, dead = intersection of deads."""

    def __init__(self, primary_fn, results):
        self.function = primary_fn
        self._results = results

    def live_mask_before(self, addr: int) -> int:
        live = 0
        for res in self._results:
            try:
                live |= res.live_mask_before(addr)
            except KeyError:
                continue
        return live

    def live_before(self, addr: int):
        return regs_of(self.live_mask_before(addr))

    def dead_before(self, addr: int, candidates=None):
        return dead_regs(self.live_mask_before(addr), candidates)


@dataclass
class _Request:
    point: Point
    #: payloads that run unconditionally at the point
    snippets: list[Snippet] = field(default_factory=list)
    #: payloads on the branch-taken edge (EDGE_TAKEN points)
    taken: list[Snippet] = field(default_factory=list)
    #: payloads on the fall-through edge (EDGE_NOT_TAKEN points)
    not_taken: list[Snippet] = field(default_factory=list)
    #: control-flow modification: divert this point to an address
    #: (function replacement / call retargeting)
    redirect: int | None = None
    #: True when the redirect models a *call* (return comes back here)
    redirect_is_call: bool = False
    #: True to delete the instruction at the point (it is displaced but
    #: never re-executed; any payload effectively replaces it)
    delete_original: bool = False

    def all_snippets(self) -> list[Snippet]:
        return self.snippets + self.taken + self.not_taken


class Patcher:
    """Accumulates snippet insertions and commits them in one pass."""

    def __init__(self, symtab: Symtab, code_object: CodeObject | None = None,
                 *, patch_base: int | None = None,
                 data_size: int = 0x2_0000,
                 use_dead_registers: bool = True,
                 interprocedural_liveness: bool = False,
                 liveness=None):
        self.symtab = symtab
        self.code_object = code_object or parse_binary(symtab)
        self.use_dead_registers = use_dead_registers
        self.interprocedural_liveness = interprocedural_liveness
        #: optional precomputed-liveness provider (``result_for(fn) ->
        #: LivenessResult | None``) — a shared, revived-from-store
        #: :class:`repro.api.Analysis` in the session flows.  Functions
        #: it does not know fall back to on-demand analysis.
        self._liveness_provider = liveness
        self._interproc = None
        self.isa = symtab.isa
        if patch_base is None:
            top = max(r.end for r in symtab.regions)
            patch_base = (top + 0xFFF) & ~0xFFF
        self.data_base = patch_base
        self.data_size = data_size
        self.trampoline_base = patch_base + data_size
        self.data_area = DataArea(self.data_base, data_size)
        self._requests: dict[int, _Request] = {}
        self._liveness: dict[int, LivenessResult] = {}

    # -- request accumulation ------------------------------------------------

    def allocate_var(self, name: str, size: int = 8):
        """Allocate an instrumentation variable (counter, flag...)."""
        return self.data_area.allocate(name, size)

    def insert(self, points: Point | list[Point],
               snippet: Snippet) -> None:
        """Queue snippet insertion at one or more points — the Dyninst
        (P, AST) operation."""
        if isinstance(points, Point):
            points = [points]
        from .points import PointType

        for p in points:
            req = self._requests.setdefault(p.address, _Request(p))
            if p.type is PointType.EDGE_TAKEN:
                req.taken.append(snippet)
            elif p.type is PointType.EDGE_NOT_TAKEN:
                req.not_taken.append(snippet)
            else:
                req.snippets.append(snippet)

    def replace_function(self, fn, new_entry: int) -> None:
        """Divert every entry into *fn* to *new_entry* (Dyninst's
        replaceFunction): the original body becomes unreachable through
        its entry point.
        """
        from .points import Point, PointType

        point = Point(PointType.FUNC_ENTRY, fn.entry, fn, fn.entry_block)
        req = self._requests.setdefault(point.address, _Request(point))
        if req.redirect is not None:
            raise PatchError(
                f"point {point.address:#x} already has a redirect")
        req.redirect = new_entry
        req.redirect_is_call = False

    def delete_instruction(self, point: Point) -> None:
        """Delete the instruction at *point* (the "deleting" of §1): it
        is displaced into the trampoline but never executed.  Any
        snippets inserted at the same point run in its place, making
        this the instruction-*modification* primitive too."""
        req = self._requests.setdefault(point.address, _Request(point))
        req.delete_original = True

    def replace_call(self, point: Point, new_target: int) -> None:
        """Retarget the call at a CALL_SITE point to *new_target*
        (Dyninst's call modification): the original callee is never
        entered from this site."""
        from .points import PointType

        if point.type is not PointType.CALL_SITE:
            raise PatchError("replace_call requires a CALL_SITE point")
        req = self._requests.setdefault(point.address, _Request(point))
        if req.redirect is not None:
            raise PatchError(
                f"point {point.address:#x} already has a redirect")
        req.redirect = new_target
        req.redirect_is_call = True

    # -- commit -------------------------------------------------------------------

    def commit(self) -> PatchResult:
        """Build all trampolines and springboards."""
        with telemetry.current().span("patch.commit"):
            result = self._commit()
        rec = telemetry.current()
        if rec.enabled:
            self._record_stats(rec, result.stats)
        return result

    def _record_stats(self, rec, stats: "PatchStats") -> None:
        """Flush one commit's :class:`PatchStats` into the recorder."""
        rec.count("patch.points", stats.points)
        rec.count("patch.trampolines", stats.trampolines)
        rec.count("patch.trampoline_bytes", stats.trampoline_bytes)
        rec.count("patch.trap_sites", stats.trap_sites)
        rec.count("springboard.trap_fallbacks", stats.trap_fallbacks)
        for kind, n in stats.springboards.items():
            rec.count(f"patch.springboard.{kind}", n)
        # §3.5/§4.3: every dead register claimed is one spill avoided
        rec.count("patch.scratch.dead_regs_used", stats.dead_regs_used)
        rec.count("patch.scratch.spills_avoided", stats.dead_regs_used)
        rec.count("patch.scratch.spilled_regs", stats.spilled_regs)

    def _commit(self) -> PatchResult:
        stats = PatchStats(points=len(self._requests))
        text_region = next(r for r in self.symtab.regions
                           if r.executable)
        text = bytearray(text_region.data)
        trampolines = bytearray()
        trap_map: dict[int, int] = {}
        cursor = self.trampoline_base

        ordered = sorted(self._requests.values(),
                         key=lambda r: r.point.address)
        prev_end = 0
        patched_ranges: list[tuple[int, int]] = []

        for req in ordered:
            faults.site("patch.commit.point")
            point = req.point
            block = point.block
            site = point.address
            if site < prev_end:
                raise PatchConflict(
                    f"patch site {site:#x} lies inside the previous "
                    f"springboard's displaced instructions "
                    f"(ends at {prev_end:#x})")

            sb = build_springboard(site, cursor, block.end - site, self.isa)
            stats.springboards[sb.kind.value] += 1
            stats.trap_fallbacks += sb.fell_back
            if sb.needs_trap:
                trap_map[site] = cursor
                stats.trap_sites += 1
            consumed = consumed_instructions(block.insns, site, len(sb.code))
            resume = prev_end = site + sum(i.length for i in consumed)
            if req.taken or req.not_taken:
                self._check_edge(req, consumed)

            # scratch plan at the point.  Blocks can be *shared* between
            # functions (fallthrough overlap, tail-call sharing): the
            # plan must respect every containing function's liveness.
            lv = self._liveness_at(site, point.function)
            all_snips = req.all_snippets()
            needs_call_save = any(snippet_calls(s) for s in all_snips)
            n_scratch = max(
                [2] + [required_scratch(s) for s in all_snips])
            plan = allocate_scratch(
                n_scratch, lv, site,
                use_dead_registers=self.use_dead_registers)
            stats.dead_regs_used += plan.n_dead
            stats.spilled_regs += len(plan.spilled)

            extra: tuple[Register, ...] = ()
            if needs_call_save:
                extra = tuple(
                    r for r in sorted(CALLER_SAVED | {RA} | set(ARG_REGS))
                    if r not in plan.spilled)
            spill = SpillArea(plan, extra=extra)

            gen = SnippetGenerator(self.isa, list(plan.regs),
                                   sp_adjustment=spill.frame_bytes)

            def payload(snips):
                """Spill saves, the lowered snippets, spill restores;
                nothing without snippets."""
                if not snips:
                    return []
                out = spill.save_instructions()
                for snip in snips:
                    out += gen.generate(snip).instructions
                return out + spill.restore_instructions()

            builder = TrampolineBuilder(cursor, site)
            if sb.kind is SpringboardKind.AUIPC_JALR:
                builder.add_instructions(far_preamble_restore())
            builder.add_instructions(payload(req.snippets))
            if req.redirect is None:
                # deletion drops the first displaced instruction; the
                # rest of the slot still executes
                diverts = lower_relocated(
                    consumed[1:] if req.delete_original else consumed,
                    builder, payload(req.taken))
                builder.add_instructions(payload(req.not_taken))
                if not diverts:
                    builder.add_jump_abs(resume)
            elif req.redirect_is_call:
                link = consumed[0].raw.fields.get("rd", 1)
                builder.add_call_abs(req.redirect, link)
                builder.add_jump_abs(resume)
            else:
                builder.add_jump_abs(req.redirect)
            built = builder.build()

            trampolines += built.code
            trap_map.update(built.trap_entries)
            stats.trap_sites += len(built.trap_entries)
            stats.trampolines += 1
            cursor += built.size
            cursor = (cursor + 15) & ~15
            pad = cursor - (built.address + built.size)
            trampolines += b"\x00" * pad

            # splice the springboard into the text image
            lo, hi = sb.patched_range(site)
            text[lo - text_region.addr:hi - text_region.addr] = sb.code
            patched_ranges.append((lo, hi))

        stats.trampoline_bytes = len(trampolines)
        return PatchResult(
            text_base=text_region.addr,
            text=bytes(text),
            original_text=bytes(text_region.data),
            trampoline_base=self.trampoline_base,
            trampoline_code=bytes(trampolines),
            data_base=self.data_base,
            data_size=self.data_size,
            trap_map=trap_map,
            stats=stats,
            data_area=self.data_area,
            patched_ranges=patched_ranges,
        )

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _check_edge(req: _Request, consumed) -> None:
        """Edge payloads (paper §2: branch-taken / not-taken points) ride
        the relocated conditional branch: the point must displace
        exactly that branch, which neither a redirect nor a deletion
        may replace."""
        site = req.point.address
        if req.redirect is not None:
            raise PatchError(
                f"point {site:#x}: redirect cannot combine with "
                f"edge instrumentation")
        if req.delete_original:
            raise PatchError(
                f"point {site:#x}: deleting the branch would drop its "
                f"edge instrumentation")
        if len(consumed) != 1 or not consumed[0].is_conditional_branch:
            raise PatchError(
                f"edge point at {site:#x} must displace exactly the "
                f"conditional branch")

    def _liveness_at(self, site: int, primary_fn) -> "LivenessResult":
        """Liveness view for a patch site: when the address belongs to
        several functions' CFGs, a register is only dead if dead in
        every view (shared-code safety)."""
        owners = (self.code_object.functions_containing(site)
                  or [primary_fn])
        results = [self._liveness_for(fn) for fn in owners]
        if len(results) == 1:
            return results[0]
        return _IntersectedLiveness(primary_fn, results)

    def _liveness_for(self, fn) -> LivenessResult:
        if fn.entry not in self._liveness:
            if self._liveness_provider is not None:
                res = self._liveness_provider.result_for(fn)
                if res is not None:
                    self._liveness[fn.entry] = res
                    return res
            if self.interprocedural_liveness:
                if self._interproc is None:
                    from ..dataflow.interproc import analyze_interprocedural

                    self._interproc = analyze_interprocedural(
                        self.code_object)
                self._liveness[fn.entry] = self._interproc.result_for(fn)
            else:
                self._liveness[fn.entry] = analyze_liveness(fn)
        return self._liveness[fn.entry]
