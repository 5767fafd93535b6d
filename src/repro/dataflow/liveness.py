"""Register liveness analysis (DataflowAPI, paper §2.1 and §4.3).

The instrumentation payoff: liveness finds *dead* registers — registers
whose current value is never read again — which CodeGenAPI can use as
scratch space without saving/restoring, the "allocation optimization"
the paper credits for RISC-V's lower instrumentation overhead (§4.3).

Standard backward may-liveness at block granularity with
per-instruction refinement.  Conservative boundary conditions:

* at function exits (RET/TAILCALL), return-value and callee-saved
  registers are live-out;
* call sites are assumed to read all argument registers and ra/sp, and
  to clobber the caller-saved set (callee-saved values flow through);
* unresolved indirect flow makes everything live (fail-safe).

The interprocedural analysis (:mod:`repro.dataflow.interproc`) runs the
same solver with summary-derived call effects and exit seeds.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Mapping

from .. import telemetry
from ..errors import ReproError
from ..instruction.insn import Insn
from ..parse.cfg import Block, EdgeType, Function
from ..riscv.registers import (
    ARG_REGS, CALLEE_SAVED, CALLER_SAVED, FP_ARG_REGS, FP_REGS, GP,
    INT_REGS, RA, RegClass, Register, SCRATCH_CANDIDATES, SP, TP,
)
from ..semantics import register_masks

#: Registers assumed live at a function exit: returned values plus
#: everything the caller expects preserved.
EXIT_LIVE: frozenset[Register] = frozenset(
    {INT_REGS[10], INT_REGS[11], FP_REGS[10], FP_REGS[11], RA, GP, TP}
) | CALLEE_SAVED

#: Registers a call is assumed to consume.
CALL_USES: frozenset[Register] = frozenset(ARG_REGS) | frozenset(
    FP_ARG_REGS) | {SP, GP, TP}

#: Registers whose values do not survive a call.
CALL_KILLS: frozenset[Register] = frozenset(
    r for r in CALLER_SAVED if not r.is_zero
) | frozenset(FP_REGS[0:10]) | frozenset(FP_REGS[16:18]) | frozenset(
    FP_REGS[28:32])

ALL_REGS: frozenset[Register] = frozenset(
    r for r in INT_REGS if not r.is_zero) | frozenset(FP_REGS)

# -- int bitmask register sets -------------------------------------------
#
# Liveness computes, queries and stores register sets as plain ints:
# x0..x31 map to bits 0..31, f0..f31 to bits 32..63, the layout of
# :func:`repro.semantics.register_masks`.  Set union/difference become
# single-word |, &~.  The frozenset surfaces (live_in/live_out,
# live_before, insn_uses_defs) are views expanded only for what a
# caller reads.

REG_BIT: dict[Register, int] = {
    **{r: 1 << i for i, r in enumerate(INT_REGS)},
    **{r: 1 << (32 + i) for i, r in enumerate(FP_REGS)},
}
_BIT_REG: tuple[Register, ...] = tuple(INT_REGS) + tuple(FP_REGS)

#: one past the largest register mask
_MASK_END = 1 << 64


def mask_of(regs) -> int:
    """Fold an iterable of Registers into a 64-bit liveness mask."""
    m = 0
    for r in regs:
        m |= REG_BIT[r]
    return m


def regs_of(mask: int) -> frozenset[Register]:
    """Expand a liveness mask back into a Register frozenset."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_BIT_REG[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def dead_regs(live: int, candidates: tuple[Register, ...] | None = None
              ) -> list[Register]:
    """The registers of *candidates* (default: caller-saved ints) whose
    bit is clear in the *live* mask, in candidate order."""
    pool = SCRATCH_CANDIDATES if candidates is None else candidates
    return [r for r in pool
            if not live >> (r.number + 32 * (r.regclass is RegClass.FP))
            & 1]


EXIT_LIVE_MASK = mask_of(EXIT_LIVE)
CALL_USES_MASK = mask_of(CALL_USES)
CALL_KILLS_MASK = mask_of(CALL_KILLS)
ALL_REGS_MASK = mask_of(ALL_REGS)

#: ``call_effects(block) -> (uses, kills)``: what the call or tail call
#: ending *block* reads and clobbers, as masks
CallEffects = Callable[[Block], tuple[int, int]]


def _intraproc_call_effects(block: Block) -> tuple[int, int]:
    """Without summaries, every callee reads all argument registers and
    clobbers the whole caller-saved set."""
    return CALL_USES_MASK, CALL_KILLS_MASK


def _block_masks(block: Block, call_effects: CallEffects
                 ) -> list[tuple[int, int]]:
    """(uses, defs) masks of each instruction of *block*.  The
    instruction ending a call block also reads and clobbers what
    *call_effects* says the callee does; one ending a tail call reads
    it."""
    masks = [register_masks(insn.raw) for insn in block.insns]
    if masks:
        kinds = {e.kind for e in block.out_edges}
        if EdgeType.CALL in kinds:
            uses, defs = masks[-1]
            cu, ck = call_effects(block)
            # the callee's read of the link register is satisfied by
            # the call instruction's own write, not the caller
            masks[-1] = (uses | (cu & ~defs), defs | ck)
        elif EdgeType.TAILCALL in kinds:
            uses, defs = masks[-1]
            masks[-1] = (uses | call_effects(block)[0], defs)
    return masks


def insn_uses_defs(insn: Insn, block: Block | None = None
                   ) -> tuple[set[Register], set[Register]]:
    """Per-instruction (uses, defs), with call-site augmentation when the
    instruction terminates a call block."""
    if block is not None and insn is block.last:
        uses, defs = _block_masks(block, _intraproc_call_effects)[-1]
    else:
        uses, defs = register_masks(insn.raw)
    return set(regs_of(uses)), set(regs_of(defs))


class RegisterSetView(Mapping):
    """Read-only ``block start -> frozenset[Register]`` view of a mask
    table.  Each set is expanded on first read and kept; the store is
    idempotent, so threads sharing one result may race on it."""

    __slots__ = ("_masks", "_sets")

    def __init__(self, masks: dict[int, int]):
        self._masks = masks
        self._sets: dict[int, frozenset[Register]] = {}

    def __getitem__(self, addr: int) -> frozenset[Register]:
        regs = self._sets.get(addr)
        if regs is None:
            regs = self._sets[addr] = regs_of(self._masks[addr])
        return regs

    def __contains__(self, addr) -> bool:
        return addr in self._masks

    def __iter__(self) -> Iterator[int]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)


class LivenessResult:
    """Fixpoint solution of one function, with per-instruction queries.

    The solution is a live-in and a live-out mask per block, and
    ``live_in``/``live_out`` are frozenset views of them.
    :meth:`live_mask_before` answers on masks; :meth:`live_before` and
    :meth:`dead_before` are views of it.
    """

    __slots__ = ("function", "live_in", "live_out", "_in", "_out",
                 "_call_effects")

    def __init__(self, function: Function, in_masks: dict[int, int],
                 out_masks: dict[int, int],
                 call_effects: CallEffects = _intraproc_call_effects):
        self.function = function
        self._in = in_masks
        self._out = out_masks
        self._call_effects = call_effects
        self.live_in = RegisterSetView(in_masks)
        self.live_out = RegisterSetView(out_masks)

    def live_mask_before(self, addr: int) -> int:
        """Mask of the registers live immediately before the
        instruction at *addr*."""
        block = self.function.block_at(addr)
        if block is None:
            raise KeyError(f"{addr:#x} is not in function "
                           f"{self.function.name!r}")
        live = self._out.get(block.start, ALL_REGS_MASK)
        masks = _block_masks(block, self._call_effects)
        for insn, (uses, defs) in zip(reversed(block.insns),
                                      reversed(masks)):
            live = (live & ~defs) | uses
            if insn.address == addr:
                return live
        raise KeyError(f"{addr:#x} not at an instruction boundary")

    def live_before(self, addr: int) -> frozenset[Register]:
        """Registers live immediately before the instruction at *addr*."""
        return regs_of(self.live_mask_before(addr))

    def dead_before(self, addr: int,
                    candidates: tuple[Register, ...] | None = None
                    ) -> list[Register]:
        """Registers (from *candidates*, default: caller-saved ints) that
        are dead at *addr* — free scratch for instrumentation."""
        return dead_regs(self.live_mask_before(addr), candidates)


def solve_liveness(fn: Function, exit_seed: int = EXIT_LIVE_MASK,
                   call_effects: CallEffects = _intraproc_call_effects
                   ) -> tuple[LivenessResult, int]:
    """Least fixpoint of backward may-liveness over *fn*'s blocks.

    *exit_seed* is the mask live after a return or tail call;
    *call_effects* gives each call's reads and clobbers.  Blocks are
    swept in reverse address order, so a pass mostly sees successors
    before predecessors.  Returns the result and the number of passes.
    """
    blocks = fn.blocks
    rows = []
    for addr in sorted(blocks, reverse=True):
        block = blocks[addr]
        use = defs = 0
        for u, d in _block_masks(block, call_effects):
            use |= u & ~defs
            defs |= d
        seed = 0
        for e in block.out_edges:
            if e.kind in (EdgeType.RET, EdgeType.TAILCALL):
                seed |= exit_seed
            elif not e.resolved or (
                    e.kind is EdgeType.INDIRECT and e.target is None):
                seed |= ALL_REGS_MASK  # unresolved flow: fail safe
            elif e.kind is EdgeType.CALL and e.target is None:
                seed |= ALL_REGS_MASK
        if not block.out_edges:
            seed |= exit_seed  # fell off the parse: conservative
        rows.append((addr, seed, fn.intraproc_successors(block), use,
                     ~defs))

    in_masks = dict.fromkeys(blocks, 0)
    out_masks = dict.fromkeys(blocks, 0)
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for addr, out, succs, use, keep in rows:
            for s in succs:
                out |= in_masks[s]
            inn = use | (out & keep)
            if out != out_masks[addr] or inn != in_masks[addr]:
                out_masks[addr] = out
                in_masks[addr] = inn
                changed = True
    return LivenessResult(fn, in_masks, out_masks, call_effects), passes


def analyze_liveness(fn: Function) -> LivenessResult:
    """Solve backward may-liveness over the function's blocks."""
    rec = telemetry.current()
    t0 = time.perf_counter() if rec.enabled else 0.0
    result, passes = solve_liveness(fn)
    if rec.enabled:
        rec.record_span("liveness.analyze", time.perf_counter() - t0)
        rec.count("liveness.functions")
        rec.count("liveness.fixpoint_iterations", passes)
        rec.observe("liveness.blocks_per_function", len(fn.blocks))
    return result


# -- snapshots ------------------------------------------------------------
#
# Liveness results serialize as their mask tables — the exact
# representation the fixpoint computes — so revival performs no
# dataflow work and expands nothing: the tables are checked and
# adopted as they are.  Consumed by the content-addressed artifact
# store.

class LivenessSnapshotError(ReproError, ValueError):
    """A stored liveness snapshot is malformed or does not fit the CFG
    it is revived against (the artifact store treats it as stale)."""


def mask_from_snapshot(value) -> int:
    """*value*, checked to be a register mask: an int in [0, 2**64)."""
    if type(value) is not int or not 0 <= value < _MASK_END:
        raise LivenessSnapshotError(
            f"liveness snapshot holds {value!r}, not a register mask")
    return value


def _mask_table(fn: Function, pairs) -> dict[int, int]:
    """The ``[[block start, mask], ...]`` table *pairs* as a dict,
    checked to name exactly *fn*'s blocks and to hold only masks."""
    try:
        table = dict(pairs)
    except (TypeError, ValueError):
        raise LivenessSnapshotError(
            f"malformed liveness table for {fn.name!r}") from None
    if table.keys() != fn.blocks.keys():
        raise LivenessSnapshotError(
            f"liveness snapshot of {fn.name!r} does not name exactly "
            f"its {len(fn.blocks)} blocks")
    for mask in table.values():
        mask_from_snapshot(mask)
    return table


def liveness_to_snapshot(result: LivenessResult) -> dict:
    """Serialize one function's fixpoint solution (JSON-ready)."""
    return {
        "in": [[a, m] for a, m in sorted(result._in.items())],
        "out": [[a, m] for a, m in sorted(result._out.items())],
    }


def liveness_from_snapshot(fn: Function, data: dict,
                           call_effects: CallEffects =
                           _intraproc_call_effects) -> LivenessResult:
    """Revive a :class:`LivenessResult` for *fn* without re-solving.
    Raises :class:`LivenessSnapshotError` when *data* is malformed or
    does not cover exactly *fn*'s blocks."""
    try:
        in_pairs, out_pairs = data["in"], data["out"]
    except (KeyError, TypeError):
        raise LivenessSnapshotError(
            f"malformed liveness snapshot for {fn.name!r}") from None
    return LivenessResult(fn, _mask_table(fn, in_pairs),
                          _mask_table(fn, out_pairs), call_effects)
