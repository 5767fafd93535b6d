"""Tests for the BPatch-style facade and the tool layer."""

import pytest

from repro.api import ApiError, BinaryEdit, attach, load_rewritten, open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source, compile_to_elf, fib_source, switch_source
from repro.patch import PointType
from repro.sim import Machine, StopReason
from repro.symtab import Symtab
from repro.tools import (
    build_callgraph, count_basic_blocks, count_function_entries,
    count_loop_iterations, cover_functions, trace_functions,
)


@pytest.fixture
def fib_binary():
    return open_binary(compile_source(fib_source(8)))


class TestFacade:
    def test_open_from_program_bytes_symtab(self):
        prog = compile_source(fib_source(5))
        elf = compile_to_elf(fib_source(5))
        for b in (open_binary(prog), open_binary(elf),
                  open_binary(Symtab.from_program(prog))):
            assert b.function("fib")

    def test_open_garbage_rejected(self):
        with pytest.raises(ApiError):
            open_binary(42)  # type: ignore[arg-type]

    def test_isa_surface(self, fib_binary):
        assert fib_binary.isa.supports("c")

    def test_function_lookup_error(self, fib_binary):
        with pytest.raises(ApiError):
            fib_binary.function("nonexistent")

    def test_points_enumeration(self, fib_binary):
        assert fib_binary.points("fib", PointType.FUNC_ENTRY)
        assert fib_binary.points("fib", PointType.FUNC_EXIT)

    def test_insert_after_commit_rejected(self, fib_binary):
        c = fib_binary.allocate_variable("c")
        pts = fib_binary.points("fib", PointType.FUNC_ENTRY)
        fib_binary.insert(pts, IncrementVar(c))
        fib_binary.commit()
        with pytest.raises(ApiError):
            fib_binary.insert(pts, IncrementVar(c))

    def test_run_instrumented(self, fib_binary):
        c = fib_binary.allocate_variable("c")
        fib_binary.insert(
            fib_binary.points("fib", PointType.FUNC_ENTRY),
            IncrementVar(c))
        m, ev = fib_binary.run_instrumented()
        assert ev.reason is StopReason.EXITED
        assert fib_binary.read_variable(m, c) == 67

    def test_three_figure1_flows_agree(self):
        """Static rewrite, dynamic-create, dynamic-attach must produce
        identical counter values (Figure 1)."""
        def instrumented_binary():
            b = open_binary(compile_source(fib_source(8)))
            c = b.allocate_variable("c")
            b.insert(b.points("fib", PointType.FUNC_ENTRY),
                     IncrementVar(c))
            return b, c

        # static
        b1, c1 = instrumented_binary()
        m1 = Machine()
        load_rewritten(m1, b1.rewrite())
        assert m1.run(max_steps=5_000_000).reason is StopReason.EXITED
        v_static = m1.mem.read_int(c1.address, 8)

        # dynamic create
        b2, c2 = instrumented_binary()
        proc = b2.create_process()
        proc.continue_to_event()
        v_create = proc.machine.mem.read_int(c2.address, 8)

        # dynamic attach (at entry, before any fib call)
        b3, c3 = instrumented_binary()
        m3 = Machine()
        b3.symtab.load_into(m3)
        proc3 = b3.attach_and_instrument(m3)
        proc3.continue_to_event()
        v_attach = m3.mem.read_int(c3.address, 8)

        assert v_static == v_create == v_attach == 67


class TestCounterTools:
    def test_function_counter(self):
        b = open_binary(compile_source(fib_source(9)))
        h = count_function_entries(b, "fib")
        m, ev = b.run_instrumented()
        assert h.read(m) == 109

    def test_block_counter(self):
        b = open_binary(compile_source(fib_source(7)))
        h = count_basic_blocks(b, "fib")
        assert h.n_points > 1
        m, _ = b.run_instrumented()
        assert h.read(m) > h.n_points

    def test_loop_counter(self):
        src = """
long main(void) {
    long s = 0;
    for (long i = 0; i < 25; i = i + 1) { s = s + i; }
    return 0;
}
"""
        b = open_binary(compile_source(src))
        h = count_loop_iterations(b, "main")
        m, _ = b.run_instrumented()
        assert h.read(m) == 25


class TestTracer:
    def test_entry_exit_trace(self):
        b = open_binary(compile_source("""
long inner(long x) { return x * 2; }
long outer(long x) { return inner(x) + 1; }
long main(void) { return outer(5); }
"""))
        h = trace_functions(b, ["outer", "inner"])
        m, ev = b.run_instrumented()
        events = h.read(m)
        seq = [(e.function, e.kind) for e in events]
        assert seq == [
            ("outer", "entry"), ("inner", "entry"),
            ("inner", "exit"), ("outer", "exit"),
        ]

    def test_recursive_trace_balanced(self):
        b = open_binary(compile_source(fib_source(6)))
        h = trace_functions(b, ["fib"], capacity=4096)
        m, _ = b.run_instrumented()
        events = h.read(m)
        entries = sum(1 for e in events if e.kind == "entry")
        exits = sum(1 for e in events if e.kind == "exit")
        assert entries == exits == 25
        # a trace is balanced like parentheses
        depth = 0
        for e in events:
            depth += 1 if e.kind == "entry" else -1
            assert depth >= 0
        assert depth == 0

    def test_ring_wraps(self):
        b = open_binary(compile_source(fib_source(8)))
        h = trace_functions(b, ["fib"], capacity=16)
        m, _ = b.run_instrumented()
        assert h.event_count(m) == 134  # 67 entries + 67 exits
        assert len(h.read(m)) == 16     # only the tail survives

    def test_bad_capacity(self):
        b = open_binary(compile_source(fib_source(4)))
        with pytest.raises(ValueError):
            trace_functions(b, ["fib"], capacity=100)


class TestCoverage:
    def test_full_coverage_on_exercised_function(self):
        b = open_binary(compile_source(fib_source(6)))
        h = cover_functions(b, ["fib"])
        m, _ = b.run_instrumented()
        hit, total = h.report(m)["fib"]
        assert hit == total  # both base case and recursion exercised

    def test_partial_coverage_detected(self):
        b = open_binary(compile_source(switch_source(3)))  # ops 0..2 only
        h = cover_functions(b, ["dispatch"])
        m, _ = b.run_instrumented()
        hit, total = h.report(m)["dispatch"]
        assert 0 < hit < total
        assert h.uncovered(m, "dispatch")


class TestCallGraph:
    def test_structure(self):
        b = open_binary(compile_source(fib_source(5)))
        g = build_callgraph(b.cfg)
        assert "fib" in g.callees("main")
        assert "fib" in g.callees("fib")  # recursion
        assert "main" in g.callers("fib")
        assert "print_long" in g.reachable_from("main")

    def test_dot_output(self):
        b = open_binary(compile_source(fib_source(5)))
        dot = build_callgraph(b.cfg).to_dot()
        assert dot.startswith("digraph")
        assert '"main" -> "fib"' in dot

    def test_unresolved_flagging(self):
        from repro.parse import parse_binary
        from repro.riscv import assemble
        p = assemble(""".type f, @function\nf:\njr a3\n""")
        co = parse_binary(Symtab.from_program(p))
        g = build_callgraph(co)
        assert "f" in g.has_unresolved


class TestBenchGuard:
    """The regression guard reads ``BENCH_sim.json``'s deterministic
    interpreted share as well as its ratios."""

    @staticmethod
    def _snapshot(share):
        return {"speedup": 6.0, "instrumented_over_plain": 1.1,
                "block_over_interpreter": 4.0,
                "instrumented": {"megatrace": {"interpreted_share": share}}}

    def test_share_within_the_ceiling_passes(self):
        from repro.tools.bench_guard import check
        assert check(self._snapshot(0.00083)) == []

    def test_a_zero_share_means_a_blind_hook(self):
        """A cold start always steps some code: a share of 0 means the
        step-counting hook missed the closures the run built."""
        from repro.tools.bench_guard import check
        bad = check(self._snapshot(0.0))
        assert len(bad) == 1 and "hook" in bad[0]
