"""End-to-end property test: for *random programs*, instrumentation
counts must equal ground truth and must not perturb the computation.

hypothesis generates small MiniC programs (nested loops, branches,
calls, integer arithmetic); each is compiled, parsed, and run twice:

1. uninstrumented, single-stepping, counting true function entries and
   block entries from the pc trace;
2. instrumented (entry counter on every function + block counters),
   at full speed.

The counters must match the trace exactly, and stdout/exit code must be
identical.  This exercises compiler, ELF, parser, liveness, codegen,
patcher, springboards, trampolines, relocation, and simulator in one
property.

The single-stepped run also checks the CFG against execution
(:class:`EdgeOracle`): every executed ``jal``, ``jalr`` and branch
that ends a block must leave along one of its edges, and every return
must land after a call site still on a shadow stack.  The same check
runs over every binary ``test_parse_pin.py`` pins.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source
from repro.parse import EdgeType, parse_binary
from repro.patch import PointType
from repro.sim import Machine, StopReason
from repro.symtab import Symtab

from strategies import minic_program
from test_parse_pin import PINNED, binaries


# -- ground truth ----------------------------------------------------------


class EdgeOracle:
    """Checks a CFG against the pcs a run executes.

    At every executed ``jal``, ``jalr`` and conditional branch that ends
    a block, the block must have an out-edge to the pc that ran next, or
    an unresolved out-edge.  A CALL pushes the block's end onto a shadow
    stack.  A RET must land on an address the stack holds, and the
    entries above it are dropped: a function may call its own epilogue,
    which unwinds its frame and returns to its caller's call site.  On
    RISC-V a ``ret`` that lands anywhere else is what a gadget chain
    looks like, and compiled code never does it.
    """

    def __init__(self, cfg):
        self.terminals = {}
        for b in cfg.blocks.values():
            last = b.last
            if last is not None and last.writes_pc:
                self.terminals.setdefault(last.address, b)
        self.stack: list[int] = []
        #: (pc, next pc, what the CFG said) per disagreement
        self.mismatches: list[tuple[int, int, str]] = []

    def transfer(self, pc: int, npc: int) -> None:
        """Check the instruction at *pc*, which ran on to *npc*."""
        block = self.terminals.get(pc)
        if block is None:
            return
        edges = block.out_edges
        kinds = {e.kind for e in edges}
        if EdgeType.CALL in kinds:
            self.stack.append(block.end)
        if any(not e.resolved for e in edges):
            return
        if EdgeType.RET in kinds:
            for i in range(len(self.stack) - 1, -1, -1):
                if self.stack[i] == npc:
                    del self.stack[i:]
                    return
            self.mismatches.append((pc, npc, "return off the stack"))
        elif not any(e.target == npc for e in edges
                     if e.kind is not EdgeType.CALL_FT):
            self.mismatches.append(
                (pc, npc, " ".join(repr(e) for e in edges) or "no edge"))


def _trace_ground_truth(symtab: Symtab, cfg, fn_names, max_steps=300_000):
    """Single-step the uninstrumented program.  Returns each of
    *fn_names*' entry and block-entry counts, stdout, the exit code and
    the :class:`EdgeOracle`'s mismatches."""
    entries = {cfg.function_by_name(n).entry: n for n in fn_names}
    block_starts = {}
    for n in fn_names:
        fn = cfg.function_by_name(n)
        for b in fn.blocks.values():
            if b.insns:
                block_starts.setdefault(b.start, []).append(n)

    m = Machine()
    symtab.load_into(m)
    oracle = EdgeOracle(cfg)
    entry_counts = {n: 0 for n in fn_names}
    block_counts = {n: 0 for n in fn_names}
    steps = 0
    while steps < max_steps:
        pc = m.pc
        if pc in entries:
            entry_counts[entries[pc]] += 1
        for n in block_starts.get(pc, ()):
            block_counts[n] += 1
        ev = m.step()
        steps += 1
        if ev is not None:
            assert ev.reason is StopReason.EXITED, ev
            break
        oracle.transfer(pc, m.pc)
    else:
        pytest.fail("trace did not terminate")
    return (entry_counts, block_counts, bytes(m.stdout), m.exit_code,
            oracle.mismatches)


@pytest.fixture(scope="module")
def pinned_elves():
    return binaries()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_cfg_agrees_with_execution(pinned_elves, name):
    """Every pinned binary runs to its exit along its CFG's edges."""
    symtab = Symtab.from_bytes(pinned_elves[name])
    *_, mismatches = _trace_ground_truth(
        symtab, parse_binary(symtab), [], max_steps=2_000_000)
    assert [(f"{pc:#x}", f"{npc:#x}", why)
            for pc, npc, why in mismatches] == []


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=minic_program())
def test_random_program_instrumentation_exact(source):
    _check_program(compile_source(source))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=minic_program())
def test_random_compressed_program_instrumentation_exact(source):
    """The same exactness property over RVC-dense binaries (auto
    compression on): mixed 2/4-byte layouts must not perturb any
    counter."""
    from repro.minicc import Options

    _check_program(compile_source(source, Options(compress=True)))


def _check_program(program):
    symtab = Symtab.from_program(program)

    binary = open_binary(program)
    fn_names = [f"f{i}" for i in range(
        sum(1 for f in binary.functions() if f.name.startswith("f")))]
    fn_names = [n for n in fn_names
                if binary.cfg.function_by_name(n) is not None]

    truth_entries, truth_blocks, truth_out, truth_code, mismatches = \
        _trace_ground_truth(symtab, binary.cfg, fn_names)
    assert mismatches == []

    entry_vars = {}
    block_vars = {}
    for n in fn_names:
        fn = binary.function(n)
        ev_ = binary.allocate_variable(f"e${n}")
        bv = binary.allocate_variable(f"b${n}")
        binary.insert(binary.points(fn, PointType.FUNC_ENTRY),
                      IncrementVar(ev_))
        binary.insert(binary.points(fn, PointType.BLOCK_ENTRY),
                      IncrementVar(bv))
        entry_vars[n] = ev_
        block_vars[n] = bv

    m, stop = binary.run_instrumented(max_steps=2_000_000)
    assert stop.reason is StopReason.EXITED

    # program behaviour unchanged
    assert bytes(m.stdout) == truth_out
    assert stop.exit_code == truth_code

    # counters equal ground truth
    for n in fn_names:
        assert m.mem.read_int(entry_vars[n].address, 8) == \
            truth_entries[n], f"entry count mismatch in {n}"
        assert m.mem.read_int(block_vars[n].address, 8) == \
            truth_blocks[n], f"block count mismatch in {n}"
