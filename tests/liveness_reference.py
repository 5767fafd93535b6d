"""Frozenset reference for register liveness (test-only).

The analysis in :mod:`repro.dataflow` works on 64-bit register masks.
This module keeps the set-based formulation it replaced, so the tests
can compare the two: per-instruction def/use comes from
``Insn.read_set``/``write_set`` (not from the mask tables), the
fixpoint iterates on frozensets in the CFG's own block order, and the
interprocedural summaries and caller-demanded exit seeds are solved the
same way, on sets.
"""

from __future__ import annotations

from repro.dataflow.liveness import ALL_REGS, CALL_KILLS, CALL_USES, EXIT_LIVE
from repro.parse.cfg import EdgeType
from repro.riscv.registers import SCRATCH_CANDIDATES


def intraproc_uses_defs(insn, block):
    """Every call reads all argument registers and clobbers the
    caller-saved set; a tail call reads them."""
    uses = insn.read_set()
    defs = insn.write_set()
    if insn is block.last:
        kinds = {e.kind for e in block.out_edges}
        if EdgeType.CALL in kinds:
            uses |= CALL_USES
            defs |= CALL_KILLS
        if EdgeType.TAILCALL in kinds:
            uses |= CALL_USES
    return uses, defs


class ReferenceResult:
    """live_in/live_out frozenset dicts with the set walk of
    ``live_before``."""

    def __init__(self, fn, live_in, live_out, uses_defs):
        self.function = fn
        self.live_in = live_in
        self.live_out = live_out
        self._uses_defs = uses_defs

    def live_before(self, addr):
        block = self.function.block_at(addr)
        live = set(self.live_out.get(block.start, ALL_REGS))
        for insn in reversed(block.insns):
            u, d = self._uses_defs(insn, block)
            live -= d
            live |= u
            if insn.address == addr:
                return frozenset(live)
        raise KeyError(f"{addr:#x} not at an instruction boundary")

    def dead_before(self, addr, candidates=None):
        live = self.live_before(addr)
        pool = SCRATCH_CANDIDATES if candidates is None else candidates
        return [r for r in pool if r not in live]


def solve(fn, exit_live=EXIT_LIVE, uses_defs=intraproc_uses_defs):
    """Backward may-liveness of *fn* on frozensets."""
    blocks = fn.blocks

    def block_flow(block):
        use, defs = set(), set()
        for insn in block.insns:
            u, d = uses_defs(insn, block)
            use |= u - defs
            defs |= d
        return frozenset(use), frozenset(defs)

    flows = {a: block_flow(b) for a, b in blocks.items()}
    succs, seed = {}, {}
    for addr, block in blocks.items():
        succs[addr] = fn.intraproc_successors(block)
        s = set()
        for e in block.out_edges:
            if e.kind in (EdgeType.RET, EdgeType.TAILCALL):
                s |= exit_live
            elif not e.resolved or (
                    e.kind is EdgeType.INDIRECT and e.target is None):
                s |= ALL_REGS
            elif e.kind is EdgeType.CALL and e.target is None:
                s |= ALL_REGS
        if not block.out_edges:
            s |= exit_live
        seed[addr] = s

    live_in = {a: frozenset() for a in blocks}
    live_out = {a: frozenset() for a in blocks}
    changed = True
    while changed:
        changed = False
        for addr in blocks:
            out = set(seed[addr])
            for s in succs[addr]:
                out |= live_in[s]
            use, defs = flows[addr]
            inn = frozenset(use | (out - defs))
            if frozenset(out) != live_out[addr] or inn != live_in[addr]:
                live_out[addr] = frozenset(out)
                live_in[addr] = inn
                changed = True
    return ReferenceResult(fn, live_in, live_out, uses_defs)


def reference_liveness(fn):
    """Intraprocedural liveness of *fn* with conservative calls."""
    return solve(fn)


class ReferenceInterprocedural:
    """Summary-based whole-program liveness on frozensets: callee
    summaries to an ascending fixpoint, then the caller-demanded
    pass-through registers that join each function's exit seed."""

    CONSERVATIVE = (frozenset(CALL_USES), frozenset(CALL_KILLS))

    def __init__(self, code_object, max_rounds=50):
        self.code_object = code_object
        fns = list(code_object.functions.values())
        self.summaries = {fn.entry: (frozenset(), frozenset())
                          for fn in fns}
        for _ in range(max_rounds):
            changed = False
            for fn in fns:
                new = self._summarize(fn)
                if new != self.summaries[fn.entry]:
                    self.summaries[fn.entry] = new
                    changed = True
            if not changed:
                break
        else:
            for fn in fns:
                self.summaries[fn.entry] = self.CONSERVATIVE

        self.exit_extra = {fn.entry: frozenset() for fn in fns}
        for _ in range(max_rounds):
            changed = False
            for caller in fns:
                res = solve(caller, EXIT_LIVE | self.exit_extra[caller.entry],
                            self.uses_defs)
                for block in caller.blocks.values():
                    for e in block.out_edges:
                        if e.kind not in (EdgeType.CALL,
                                          EdgeType.TAILCALL):
                            continue
                        callee = (code_object.functions.get(e.target)
                                  if e.target is not None else None)
                        if callee is None:
                            continue
                        _, kills = self.summary(callee.entry)
                        pass_through = CALL_KILLS - kills
                        if e.kind is EdgeType.CALL:
                            live_after = res.live_out.get(
                                block.start, ALL_REGS)
                        else:
                            live_after = (EXIT_LIVE
                                          | self.exit_extra[caller.entry])
                        demand = frozenset(live_after & pass_through)
                        if not demand <= self.exit_extra[callee.entry]:
                            self.exit_extra[callee.entry] |= demand
                            changed = True
            if not changed:
                break
        else:
            for fn in fns:
                self.exit_extra[fn.entry] = frozenset(
                    CALL_KILLS - self.summary(fn.entry)[1])

    def summary(self, entry):
        """(uses, kills) of the function at *entry*."""
        return self.summaries.get(entry, self.CONSERVATIVE)

    def result_for(self, fn):
        return solve(fn, EXIT_LIVE | self.exit_extra.get(fn.entry,
                                                         frozenset()),
                     self.uses_defs)

    def _call_effects(self, block):
        uses, kills = set(), set()
        for e in block.out_edges:
            if e.kind not in (EdgeType.CALL, EdgeType.TAILCALL):
                continue
            callee = (self.code_object.functions.get(e.target)
                      if e.target is not None else None)
            if callee is None:
                return set(CALL_USES), set(CALL_KILLS)
            u, k = self.summary(callee.entry)
            uses |= u
            kills |= k
        return uses, kills & CALL_KILLS

    def uses_defs(self, insn, block):
        uses = insn.read_set()
        defs = insn.write_set()
        if insn is block.last:
            kinds = {e.kind for e in block.out_edges}
            if EdgeType.CALL in kinds or EdgeType.TAILCALL in kinds:
                cu, ck = self._call_effects(block)
                if EdgeType.CALL in kinds:
                    uses |= cu - insn.write_set()
                    defs |= ck
                else:
                    uses |= cu
        return uses, defs

    def _summarize(self, fn):
        res = solve(fn, frozenset(), self.uses_defs)
        kills = set()
        for block in fn.blocks.values():
            for insn in block.insns:
                kills |= self.uses_defs(insn, block)[1]
        return (frozenset(res.live_in.get(fn.entry, frozenset())
                          & (CALL_USES | CALL_KILLS)),
                frozenset(kills & CALL_KILLS))
