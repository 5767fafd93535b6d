"""Interprocedural register liveness via callee summaries.

The intraprocedural analysis (:mod:`repro.dataflow.liveness`) must
assume every call reads all argument registers and clobbers the whole
caller-saved set.  Real Dyninst sharpens call sites with *function
summaries*: what a callee may actually read before writing, and what it
may actually write.  This module computes those summaries over the call
graph to a fixpoint and re-runs liveness with precise call effects —
yielding more dead registers exactly where instrumentation wants them
(call-adjacent points).

Soundness: summaries start optimistic (empty) and ascend to the least
fixpoint of monotone equations; unresolved calls and tail calls fall
back to the conservative sets.  The adversarial clobber suite
(tests/test_liveness_soundness.py) validates the result behaviourally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..parse.cfg import Block, EdgeType, Function
from ..riscv.registers import Register

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..parse.parser import CodeObject
from .liveness import (
    ALL_REGS_MASK, CALL_KILLS_MASK, CALL_USES_MASK, EXIT_LIVE_MASK,
    LivenessResult, LivenessSnapshotError, _block_masks,
    liveness_from_snapshot, liveness_to_snapshot, mask_from_snapshot,
    regs_of, solve_liveness,
)


@dataclass(frozen=True)
class FunctionSummary:
    """May-read-before-write / may-write register masks of a function.

    :attr:`uses`/:attr:`kills` are their frozenset views."""

    use_mask: int
    kill_mask: int

    @property
    def uses(self) -> frozenset[Register]:
        return regs_of(self.use_mask)

    @property
    def kills(self) -> frozenset[Register]:
        return regs_of(self.kill_mask)


#: the most conservative summary (used for unknown callees)
CONSERVATIVE = FunctionSummary(CALL_USES_MASK, CALL_KILLS_MASK)


class InterproceduralLiveness:
    """Whole-program liveness with callee-summary call effects."""

    def __init__(self, code_object: "CodeObject", max_rounds: int = 50):
        self.code_object = code_object
        self.summaries: dict[int, FunctionSummary] = {}
        self._results: dict[int, LivenessResult] = {}
        #: per-function mask of pass-through registers some caller
        #: holds live across a call (joins the exit seed)
        self._exit_extra: dict[int, int] = {}
        self._solve(max_rounds)
        self._solve_demand(max_rounds)

    # -- public ------------------------------------------------------------

    def result_for(self, fn: Function) -> LivenessResult:
        """The (summary-sharpened) liveness result of one function.

        Exit seeding is the dual of the call-site sharpening: a
        caller-saved register this function does *not* kill is
        pass-through — a summary-aware caller may keep a value live in
        it across the call.  The demand fixpoint (:meth:`_solve_demand`)
        computes, per function, which pass-through registers some caller
        actually holds live across a call, and those join the exit-live
        seed.
        """
        res = self._results.get(fn.entry)
        if res is None:
            res = self._results[fn.entry] = self._analyze(
                fn, EXIT_LIVE_MASK | self._exit_extra.get(fn.entry, 0))
        return res

    def summary_for(self, fn: Function) -> FunctionSummary:
        return self.summaries.get(fn.entry, CONSERVATIVE)

    # -- fixpoint ------------------------------------------------------------

    def _solve(self, max_rounds: int) -> None:
        fns = list(self.code_object.functions.values())
        # optimistic start: reads nothing, writes nothing
        for fn in fns:
            self.summaries[fn.entry] = FunctionSummary(0, 0)
        for _ in range(max_rounds):
            changed = False
            for fn in fns:
                new = self._summarize(fn)
                if new != self.summaries[fn.entry]:
                    self.summaries[fn.entry] = new
                    changed = True
            if not changed:
                break
        else:  # no convergence: fall back to conservative everywhere
            for fn in fns:
                self.summaries[fn.entry] = CONSERVATIVE

    def _solve_demand(self, max_rounds: int) -> None:
        """Ascending fixpoint of caller-demanded pass-through liveness:
        for every call site, registers live after the call that the
        callee does not kill must be live at the callee's exits."""
        fns = list(self.code_object.functions.values())
        extra = self._exit_extra = {fn.entry: 0 for fn in fns}
        for _ in range(max_rounds):
            changed = False
            for caller in fns:
                res = self._analyze(
                    caller, EXIT_LIVE_MASK | extra[caller.entry])
                for block in caller.blocks.values():
                    for e in block.out_edges:
                        if e.kind not in (EdgeType.CALL,
                                          EdgeType.TAILCALL):
                            continue
                        callee = (self.code_object.functions.get(e.target)
                                  if e.target is not None else None)
                        if callee is None:
                            continue
                        s = self.summaries.get(callee.entry, CONSERVATIVE)
                        pass_through = CALL_KILLS_MASK & ~s.kill_mask
                        if e.kind is EdgeType.CALL:
                            live_after = res._out.get(
                                block.start, ALL_REGS_MASK)
                        else:  # tail call: the callee exits for us
                            live_after = EXIT_LIVE_MASK | extra[caller.entry]
                        demand = live_after & pass_through
                        if demand & ~extra[callee.entry]:
                            extra[callee.entry] |= demand
                            changed = True
            if not changed:
                break
        else:  # no convergence: conservative pass-through everywhere
            for fn in fns:
                s = self.summaries.get(fn.entry, CONSERVATIVE)
                extra[fn.entry] = CALL_KILLS_MASK & ~s.kill_mask

    def _call_effects(self, block: Block) -> tuple[int, int]:
        """(uses, kills) masks of the call/tailcall terminating *block*
        under current summaries."""
        uses = kills = 0
        for e in block.out_edges:
            if e.kind not in (EdgeType.CALL, EdgeType.TAILCALL):
                continue
            callee = (self.code_object.functions.get(e.target)
                      if e.target is not None else None)
            if callee is None:
                return CALL_USES_MASK, CALL_KILLS_MASK
            s = self.summaries.get(callee.entry, CONSERVATIVE)
            uses |= s.use_mask
            kills |= s.kill_mask
        # a call can only be assumed to kill caller-saved registers;
        # callee-saved writes are restored by the callee's epilogue
        return uses, kills & CALL_KILLS_MASK

    def _summarize(self, fn: Function) -> FunctionSummary:
        """Recompute fn's summary under the current callee summaries."""
        res = self._analyze(fn, 0)
        kills = 0
        for block in fn.blocks.values():
            for _, defs in _block_masks(block, self._call_effects):
                kills |= defs
        # only caller-visible effects matter
        return FunctionSummary(
            res._in.get(fn.entry, 0) & (CALL_USES_MASK | CALL_KILLS_MASK),
            kills & CALL_KILLS_MASK)

    def _analyze(self, fn: Function, exit_seed: int) -> LivenessResult:
        """The intraprocedural solver with summary call effects."""
        return solve_liveness(fn, exit_seed, self._call_effects)[0]


def analyze_interprocedural(code_object: "CodeObject",
                            ) -> InterproceduralLiveness:
    """Compute whole-program summary-based liveness."""
    return InterproceduralLiveness(code_object)


# -- snapshots ------------------------------------------------------------

def interproc_to_snapshot(ip: InterproceduralLiveness) -> dict:
    """Serialize the whole-program solution: per-function summaries,
    demanded pass-through sets, and every function's live-in/out masks
    (JSON-ready; consumed by the artifact store)."""
    for fn in ip.code_object.functions.values():
        ip.result_for(fn)  # materialize every result before serializing
    results = []
    for entry, res in sorted(ip._results.items()):
        snap = liveness_to_snapshot(res)
        results.append([entry, snap["in"], snap["out"]])
    return {
        "summaries": [[e, s.use_mask, s.kill_mask]
                      for e, s in sorted(ip.summaries.items())],
        "exit_extra": [[e, m] for e, m in sorted(ip._exit_extra.items())],
        "results": results,
    }


def interproc_from_snapshot(code_object: "CodeObject",
                            data: dict) -> InterproceduralLiveness:
    """Revive the whole-program solution without running either
    fixpoint.  Per-instruction refinement still works: the revived
    summaries drive :meth:`InterproceduralLiveness._call_effects`
    exactly as the solver's own would.  Raises
    :class:`~repro.dataflow.liveness.LivenessSnapshotError` when *data*
    is malformed or does not name exactly *code_object*'s functions."""
    fns = code_object.functions
    try:
        summaries = {e: (u, k) for e, u, k in data["summaries"]}
        exit_extra = dict(data["exit_extra"])
        results = {e: (i, o) for e, i, o in data["results"]}
    except (KeyError, TypeError, ValueError):
        raise LivenessSnapshotError(
            "malformed interprocedural liveness snapshot") from None
    for table in (summaries, exit_extra, results):
        if table.keys() != fns.keys():
            raise LivenessSnapshotError(
                "interprocedural liveness snapshot does not name exactly "
                f"the binary's {len(fns)} functions")

    ip = object.__new__(InterproceduralLiveness)
    ip.code_object = code_object
    ip.summaries = {
        e: FunctionSummary(mask_from_snapshot(u), mask_from_snapshot(k))
        for e, (u, k) in summaries.items()
    }
    ip._exit_extra = {e: mask_from_snapshot(m)
                      for e, m in exit_extra.items()}
    ip._results = {
        e: liveness_from_snapshot(fns[e], {"in": i, "out": o},
                                  ip._call_effects)
        for e, (i, o) in results.items()
    }
    return ip
