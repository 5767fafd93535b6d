"""Edge instrumentation tests: branch-taken / branch-not-taken points
(paper §2's CFG-level point list) and the upgraded loop back-edge
semantics."""

import pytest

from repro.api import open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source, fib_source
from repro.patch import (
    PatchError, Patcher, PointType, branch_edges, edge_point,
    function_entry, instruction_point, points_for,
)
from repro.parse import parse_binary
from repro.sim import Machine, StopReason
from repro.symtab import Symtab
from repro.tools import count_loop_iterations

BRANCHY = """
long classify(long x) {
    if (x > 10) { return 2; }
    return 1;
}
long main(void) {
    long big = 0;
    long small = 0;
    for (long i = 0; i < 20; i = i + 1) {
        if (classify(i) == 2) { big = big + 1; }
        else { small = small + 1; }
    }
    return big * 16 + small;
}
"""


def _instrumented_run(binary):
    m, ev = binary.run_instrumented()
    assert ev.reason is StopReason.EXITED, ev
    return m


class TestEdgePoints:
    def test_discovery(self):
        b = open_binary(compile_source(BRANCHY))
        classify = b.function("classify")
        taken = branch_edges(classify, taken=True)
        not_taken = branch_edges(classify, taken=False)
        assert len(taken) == len(not_taken) == 1
        assert taken[0].type is PointType.EDGE_TAKEN

    def test_points_for_dispatch(self):
        b = open_binary(compile_source(BRANCHY))
        fn = b.function("classify")
        assert points_for(fn, PointType.EDGE_TAKEN)
        assert points_for(fn, PointType.EDGE_NOT_TAKEN)

    def test_edge_point_requires_branch_block(self):
        from repro.patch import PointError
        b = open_binary(compile_source(BRANCHY))
        fn = b.function("classify")
        entry = fn.entry_block
        if entry.last is not None and entry.last.is_conditional_branch:
            pytest.skip("entry block ends in a branch here")
        with pytest.raises(PointError):
            edge_point(fn, entry, taken=True)


class TestEdgeCounting:
    def test_taken_and_not_taken_partition_executions(self):
        """taken + not-taken counts must equal total branch executions,
        and each side must match ground truth."""
        b = open_binary(compile_source(BRANCHY))
        classify = b.function("classify")
        t = b.allocate_variable("taken")
        n = b.allocate_variable("ntaken")
        total = b.allocate_variable("total")
        branch_block = next(
            blk for blk in classify.blocks.values()
            if blk.last is not None and blk.last.is_conditional_branch)
        b.insert(edge_point(classify, branch_block, True),
                 IncrementVar(t))
        b.insert(edge_point(classify, branch_block, False),
                 IncrementVar(n))
        # an unconditional point at the same branch counts every execution
        from repro.patch import instruction_point
        b.insert(instruction_point(classify, branch_block.last.address),
                 IncrementVar(total))
        m = _instrumented_run(b)
        vt = m.mem.read_int(t.address, 8)
        vn = m.mem.read_int(n.address, 8)
        vtot = m.mem.read_int(total.address, 8)
        assert vt + vn == vtot == 20
        # classify(i)==2 iff i>10: MiniC lowers `x > 10` to a branch; we
        # only require the partition to be the 9/11 split in some order.
        assert {vt, vn} == {9, 11}

    def test_program_semantics_preserved(self):
        b0 = open_binary(compile_source(BRANCHY))
        m0, ev0 = b0.run_instrumented()
        base_code = ev0.exit_code

        b = open_binary(compile_source(BRANCHY))
        fn = b.function("main")
        c = b.allocate_variable("edges")
        for pt in branch_edges(fn, taken=True):
            b.insert(pt, IncrementVar(c))
        m, ev = b.run_instrumented()
        assert ev.exit_code == base_code
        assert m.mem.read_int(c.address, 8) > 0

    def test_edge_counts_match_ground_truth_trace(self):
        """Cross-validate edge counters against a stepping trace of the
        uninstrumented program."""
        src = compile_source(fib_source(7))
        st = Symtab.from_program(src)
        co = parse_binary(st)
        fib = co.function_by_name("fib")
        branch_blocks = [blk for blk in fib.blocks.values()
                         if blk.last is not None
                         and blk.last.is_conditional_branch]
        assert branch_blocks
        blk = branch_blocks[0]
        target = blk.last.direct_target()
        site = blk.last.address
        ft = site + blk.last.length

        # ground truth by stepping
        m = Machine()
        st.load_into(m)
        taken_truth = nt_truth = 0
        prev = None
        while True:
            prev = m.pc
            if m.step() is not None:
                break
            if prev == site:
                if m.pc == target:
                    taken_truth += 1
                elif m.pc == ft:
                    nt_truth += 1

        b = open_binary(src)
        fib2 = b.function("fib")
        blk2 = fib2.block_at(site)
        t = b.allocate_variable("t")
        n = b.allocate_variable("n")
        b.insert(edge_point(fib2, blk2, True), IncrementVar(t))
        b.insert(edge_point(fib2, blk2, False), IncrementVar(n))
        mi = _instrumented_run(b)
        assert mi.mem.read_int(t.address, 8) == taken_truth
        assert mi.mem.read_int(n.address, 8) == nt_truth


class TestLoopBackedgeUpgrade:
    def test_for_loop_exact_iteration_count(self):
        src = """
long main(void) {
    long s = 0;
    for (long i = 0; i < 17; i = i + 1) { s = s + i; }
    return 0;
}
"""
        b = open_binary(compile_source(src))
        h = count_loop_iterations(b, "main")
        m = _instrumented_run(b)
        assert h.read(m) == 17

    def test_nested_loops_counted_separately(self):
        src = """
long main(void) {
    long s = 0;
    for (long i = 0; i < 4; i = i + 1) {
        for (long j = 0; j < 5; j = j + 1) { s = s + 1; }
    }
    return s;
}
"""
        b = open_binary(compile_source(src))
        main = b.function("main")
        pts = points_for(main, PointType.LOOP_BACKEDGE)
        assert len(pts) == 2
        counters = []
        for i, pt in enumerate(pts):
            v = b.allocate_variable(f"loop{i}")
            b.insert(pt, IncrementVar(v))
            counters.append(v)
        m = _instrumented_run(b)
        counts = sorted(m.mem.read_int(v.address, 8) for v in counters)
        assert counts == [4, 20]


class TestEdgeTrampolineErrors:
    def test_edge_on_non_branch_rejected_at_commit(self):
        # Hand-build a bogus edge point on a non-branch block.
        from repro.patch.points import Point
        b = open_binary(compile_source(BRANCHY))
        fn = b.function("classify")
        entry = fn.entry_block
        if entry.last is not None and entry.last.is_conditional_branch:
            pytest.skip("entry block ends in a branch")
        bogus = Point(PointType.EDGE_TAKEN, entry.start, fn, entry)
        c = b.allocate_variable("c")
        b.insert(bogus, IncrementVar(c))
        with pytest.raises(PatchError):
            b.commit()

    def test_deleting_an_instrumented_branch_rejected(self):
        """Edge payloads ride the relocated branch: deleting it would
        drop them, so the commit refuses."""
        b = open_binary(compile_source(fib_source(10)))
        fn = b.function("fib")
        block = next(blk for blk in sorted(fn.blocks.values(),
                                           key=lambda blk: blk.start)
                     if blk.last is not None
                     and blk.last.is_conditional_branch)
        c = b.allocate_variable("c")
        b.insert([edge_point(fn, block, True),
                  edge_point(fn, block, False)], IncrementVar(c))
        b.delete_instruction(instruction_point(fn, block.last.address))
        with pytest.raises(PatchError, match="edge"):
            b.commit()
