"""PatchAPI tests: points, springboard ladder (§3.1.2), relocation,
trampolines, dynamic + static instrumentation correctness."""

import pytest

from repro.codegen import (
    BinExpr, CallFunc, Const, If, IncrementVar, RegExpr, Sequence, SetVar,
)
from repro.minicc import (
    Options, compile_source, fib_source, matmul_source, switch_source,
)
from repro.parse import parse_binary
from repro.patch import (
    PatchConflict, Patcher, PointType, SpringboardKind, block_entries,
    build_springboard, call_sites, function_entry, function_exits,
    instruction_point, load_instrumented, loop_backedges, points_for,
    rewrite,
)
from repro.riscv import RV64GC, assemble, lookup
from repro.riscv.extensions import RV64G
from repro.sim import Machine, StopReason
from repro.symtab import Symtab


def setup_c(src, opts=None):
    p = compile_source(src, opts)
    st = Symtab.from_program(p)
    co = parse_binary(st)
    return st, co


def run_instrumented(st, res, max_steps=5_000_000):
    m = Machine()
    st.load_into(m)
    res.apply_to_machine(m)
    ev = m.run(max_steps=max_steps)
    assert ev.reason is StopReason.EXITED, ev
    return m


def run_baseline(st, max_steps=5_000_000):
    m = Machine()
    st.load_into(m)
    ev = m.run(max_steps=max_steps)
    assert ev.reason is StopReason.EXITED
    return m


class TestPoints:
    def test_point_discovery(self):
        st, co = setup_c(fib_source(5))
        fib = co.function_by_name("fib")
        assert function_entry(fib).address == fib.entry
        assert function_exits(fib)
        assert call_sites(fib)
        assert len(block_entries(fib)) == len(
            [b for b in fib.blocks.values() if b.insns])

    def test_loop_backedge_points(self):
        st, co = setup_c(matmul_source(4, 1))
        mult = co.function_by_name("multiply")
        pts = loop_backedges(mult)
        assert len(pts) == 3  # triple nest

    def test_points_for_dispatch(self):
        st, co = setup_c(fib_source(5))
        fib = co.function_by_name("fib")
        assert points_for(fib, PointType.FUNC_ENTRY)[0].type \
            is PointType.FUNC_ENTRY
        assert points_for(fib, PointType.BLOCK_ENTRY)

    def test_instruction_point_validation(self):
        from repro.patch import PointError
        st, co = setup_c(fib_source(5))
        fib = co.function_by_name("fib")
        with pytest.raises(PointError):
            instruction_point(fib, fib.entry + 1)  # mid-instruction


class TestSpringboardLadder:
    """Paper §3.1.2: c.j -> jal -> auipc+jalr -> trap."""

    def test_jal_for_near_targets(self):
        sb = build_springboard(0x10000, 0x20000, 4, RV64GC)
        assert sb.kind is SpringboardKind.JAL
        assert len(sb.code) == 4

    def test_cj_for_two_byte_slot(self):
        sb = build_springboard(0x10000, 0x10400, 2, RV64GC)
        assert sb.kind is SpringboardKind.CJ
        assert len(sb.code) == 2

    def test_far_form_when_out_of_jal_range(self):
        sb = build_springboard(0x10000, 0x10000 + (4 << 20), 16, RV64GC)
        assert sb.kind is SpringboardKind.AUIPC_JALR
        assert sb.clobbers is not None
        assert len(sb.code) == 16

    def test_trap_fallback_four_bytes(self):
        sb = build_springboard(0x10000, 0x10000 + (4 << 20), 4, RV64GC)
        assert sb.kind is SpringboardKind.TRAP
        assert sb.needs_trap

    def test_trap_fallback_two_bytes(self):
        # the paper's worst case: 2-byte slot, far target
        sb = build_springboard(0x10000, 0x10000 + (4 << 20), 2, RV64GC)
        assert sb.kind is SpringboardKind.TRAP
        assert len(sb.code) == 2

    def test_two_byte_trap_requires_c(self):
        from repro.patch import SpringboardError
        with pytest.raises(SpringboardError):
            build_springboard(0x10000, 0x10000 + (4 << 20), 2, RV64G)

    def test_padding_fills_slot(self):
        # the springboard's length is the slot: 8 bytes left before the
        # block ends and a near target take the 4-byte jal
        sb = build_springboard(0x10000, 0x10100, 8, RV64GC)
        assert sb.kind is SpringboardKind.JAL
        assert len(sb.code) == 4

    def test_far_rung_only_within_auipc_reach(self):
        sb = build_springboard(0x10000, 0x10000 + (3 << 30), 16, RV64GC)
        assert sb.kind is SpringboardKind.TRAP
        assert len(sb.code) == 4


class TestEntryInstrumentation:
    def test_counter_counts_calls(self):
        st, co = setup_c(fib_source(10))
        patcher = Patcher(st, co)
        c = patcher.allocate_var("n")
        patcher.insert(function_entry(co.function_by_name("fib")),
                       IncrementVar(c))
        res = patcher.commit()
        m = run_instrumented(st, res)
        assert m.mem.read_int(c.address, 8) == 177  # 2*fib(11)-1

    def test_output_unchanged(self):
        st, co = setup_c(matmul_source(5, 2))
        base = run_baseline(st)
        patcher = Patcher(st, co)
        c = patcher.allocate_var("n")
        patcher.insert(function_entry(co.function_by_name("multiply")),
                       IncrementVar(c))
        m = run_instrumented(st, patcher.commit())
        # checksum line must match exactly (timings differ)
        assert bytes(m.stdout).split()[1] == bytes(base.stdout).split()[1]
        assert m.mem.read_int(c.address, 8) == 2

    def test_entry_and_exit_balance(self):
        st, co = setup_c(fib_source(8))
        patcher = Patcher(st, co)
        ci = patcher.allocate_var("in")
        cx = patcher.allocate_var("out")
        fib = co.function_by_name("fib")
        patcher.insert(function_entry(fib), IncrementVar(ci))
        for pt in function_exits(fib):
            patcher.insert(pt, IncrementVar(cx))
        m = run_instrumented(st, patcher.commit())
        assert m.mem.read_int(ci.address, 8) == \
            m.mem.read_int(cx.address, 8) > 0


class TestBlockAndLoopInstrumentation:
    def test_basic_block_counting(self):
        st, co = setup_c(matmul_source(4, 1))
        mult = co.function_by_name("multiply")
        patcher = Patcher(st, co)
        c = patcher.allocate_var("bb")
        for pt in block_entries(mult):
            patcher.insert(pt, IncrementVar(c))
        m = run_instrumented(st, patcher.commit())
        n = 4
        # innermost block runs n^3 times; total must exceed that
        assert m.mem.read_int(c.address, 8) > n ** 3

    def test_block_counts_match_simulator_trace(self):
        """Cross-validate instrumentation against ground truth counted
        by stepping the uninstrumented binary."""
        st, co = setup_c(fib_source(6))
        fib = co.function_by_name("fib")
        starts = {b.start for b in fib.blocks.values() if b.insns}

        m = Machine()
        st.load_into(m)
        truth = 0
        while True:
            if m.pc in starts:
                truth += 1
            if m.step() is not None:
                break

        patcher = Patcher(st, co)
        c = patcher.allocate_var("bb")
        for pt in block_entries(fib):
            patcher.insert(pt, IncrementVar(c))
        mi = run_instrumented(st, patcher.commit())
        assert mi.mem.read_int(c.address, 8) == truth

    def test_loop_backedge_counting(self):
        st, co = setup_c("""
long main(void) {
    long s = 0;
    for (long i = 0; i < 10; i = i + 1) { s = s + i; }
    return s;
}
""")
        main = co.function_by_name("main")
        patcher = Patcher(st, co)
        c = patcher.allocate_var("back")
        for pt in loop_backedges(main):
            patcher.insert(pt, IncrementVar(c))
        m = run_instrumented(st, patcher.commit())
        # The back-edge block is entered once per iteration; whether the
        # final (exiting) pass counts depends on loop shape — accept 10.
        assert m.mem.read_int(c.address, 8) == 10

    def test_call_site_counting(self):
        st, co = setup_c(fib_source(8))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co)
        c = patcher.allocate_var("sites")
        for pt in call_sites(fib):
            patcher.insert(pt, IncrementVar(c))
        m = run_instrumented(st, patcher.commit())
        # every fib invocation except the root comes from a call site in
        # fib; main's call isn't instrumented: 177? for n=8: calls = 2*fib(9)-1 = 67
        assert m.mem.read_int(c.address, 8) == 66  # 67 total - 1 from main


class TestConditionalPayloads:
    def test_conditional_snippet(self):
        st, co = setup_c(fib_source(8))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co)
        small = patcher.allocate_var("small")
        # count entries where a0 (the argument) < 2 — the base cases
        patcher.insert(
            function_entry(fib),
            If(BinExpr("lt", RegExpr(lookup("a0")), Const(2)),
               IncrementVar(small)))
        m = run_instrumented(st, patcher.commit())
        # base-case invocations of fib(8) = fib(9) = 34
        assert m.mem.read_int(small.address, 8) == 34

    def test_multiple_snippets_one_point(self):
        st, co = setup_c(fib_source(6))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co)
        a = patcher.allocate_var("a")
        b = patcher.allocate_var("b")
        pt = function_entry(fib)
        patcher.insert(pt, IncrementVar(a))
        patcher.insert(pt, IncrementVar(b, step=2))
        m = run_instrumented(st, patcher.commit())
        na = m.mem.read_int(a.address, 8)
        nb = m.mem.read_int(b.address, 8)
        assert nb == 2 * na > 0


class TestSpillMode:
    def test_spill_mode_still_correct(self):
        """use_dead_registers=False (legacy x86 behaviour): slower but
        identical results."""
        st, co = setup_c(matmul_source(4, 2))
        base = run_baseline(st)

        patcher = Patcher(st, co, use_dead_registers=False)
        c = patcher.allocate_var("bb")
        mult = co.function_by_name("multiply")
        for pt in block_entries(mult):
            patcher.insert(pt, IncrementVar(c))
        res = patcher.commit()
        assert res.stats.spilled_regs > 0
        assert res.stats.dead_regs_used == 0
        m = run_instrumented(st, res)
        assert bytes(m.stdout).split()[1] == bytes(base.stdout).split()[1]

    def test_spill_mode_costs_more_cycles(self):
        st, co = setup_c(matmul_source(4, 2))
        mult = co.function_by_name("multiply")

        def run(dead):
            patcher = Patcher(st, co, use_dead_registers=dead)
            c = patcher.allocate_var("bb")
            for pt in block_entries(mult):
                patcher.insert(pt, IncrementVar(c))
            return run_instrumented(st, patcher.commit())

        fast = run(True)
        slow = run(False)
        assert slow.ucycles > fast.ucycles


class TestFarPatchArea:
    def test_far_trampolines_roundtrip(self):
        """Patch area beyond jal range: entry springboards take the
        auipc+jalr (or trap) rungs and execution stays correct."""
        st, co = setup_c(fib_source(8))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co, patch_base=0x10_0000 + (8 << 20))
        c = patcher.allocate_var("n")
        patcher.insert(function_entry(fib), IncrementVar(c))
        res = patcher.commit()
        kinds = set(res.stats.springboards)
        assert kinds <= {"auipc+jalr", "trap"}
        assert kinds  # at least one far-form springboard
        m = run_instrumented(st, res)
        assert m.mem.read_int(c.address, 8) == 67  # 2*fib(9)-1

    def test_trap_springboard_on_tiny_slot(self):
        """A 2-byte-instruction point with a far patch area must fall
        back to the compressed trap (paper's worst case)."""
        src = """
.globl _start
_start:
  li a0, 0
  c.addi a0, 5
  c.addi a0, 3
  li a7, 93
  ecall
"""
        p = assemble(src)
        st = Symtab.from_program(p)
        co = parse_binary(st)
        fn = co.function_containing(p.entry)
        # instrument the first c.addi (2-byte slot mid-block... use an
        # instruction point at its address)
        target = p.entry + 8  # li a0,0 is 4 bytes... c.addi at +4
        pt = instruction_point(fn, p.entry + 4)
        patcher = Patcher(st, co, patch_base=0x10_0000 + (8 << 20))
        c = patcher.allocate_var("hits")
        patcher.insert(pt, IncrementVar(c))
        res = patcher.commit()
        assert res.stats.springboards.get("trap", 0) >= 1
        m = Machine()
        st.load_into(m)
        res.apply_to_machine(m)
        ev = m.run(max_steps=10_000)
        assert ev.reason is StopReason.EXITED
        assert ev.exit_code == 8
        assert m.mem.read_int(c.address, 8) == 1

    @pytest.mark.parametrize("ptype, count", [
        (PointType.FUNC_ENTRY, 67), (PointType.BLOCK_ENTRY, 267)])
    def test_patch_area_beyond_auipc_reach(self, ptype, count):
        """4 GiB away even auipc+jalr cannot reach the trampolines:
        every springboard traps and the counts stay those of the
        default placement."""
        st, co = setup_c(fib_source(8))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co, patch_base=0x1_0000_0000)
        c = patcher.allocate_var("n")
        patcher.insert(points_for(fib, ptype), IncrementVar(c))
        res = patcher.commit()
        assert set(res.stats.springboards) == {"trap"}
        m = run_instrumented(st, res)
        assert m.mem.read_int(c.address, 8) == count

    def test_call_beyond_auipc_reach_is_a_relocation_error(self):
        from repro.patch import RelocationError
        st, co = setup_c(fib_source(8))
        fib = co.function_by_name("fib")
        patcher = Patcher(st, co, patch_base=0x1_0000_0000)
        c = patcher.allocate_var("n")
        sites = call_sites(fib)
        patcher.insert(sites, IncrementVar(c))
        with pytest.raises(RelocationError,
                           match=f"{sites[0].address:#x}.*offset"):
            patcher.commit()

    def test_conflicting_points_rejected(self):
        st, co = setup_c(fib_source(5))
        fib = co.function_by_name("fib")
        # entry consumes >= 4 bytes; a point 2 bytes later must conflict
        # only if the entry instruction is compressed — craft directly:
        src = """
.globl _start
_start:
  c.li a0, 1
  c.addi a0, 2
  li a7, 93
  ecall
"""
        p = assemble(src)
        st2 = Symtab.from_program(p)
        co2 = parse_binary(st2)
        fn = co2.function_containing(p.entry)
        patcher = Patcher(st2, co2)
        c = patcher.allocate_var("x")
        patcher.insert(instruction_point(fn, p.entry), IncrementVar(c))
        patcher.insert(instruction_point(fn, p.entry + 2), IncrementVar(c))
        with pytest.raises(PatchConflict):
            patcher.commit()


class TestStaticRewriting:
    def test_rewrite_and_reload(self):
        st, co = setup_c(fib_source(9))
        patcher = Patcher(st, co)
        c = patcher.allocate_var("calls")
        patcher.insert(function_entry(co.function_by_name("fib")),
                       IncrementVar(c))
        blob = rewrite(st, patcher.commit())

        m = Machine()
        st2 = load_instrumented(m, blob)
        ev = m.run(max_steps=5_000_000)
        assert ev.reason is StopReason.EXITED
        assert bytes(m.stdout).startswith(b"34\n")
        assert m.mem.read_int(c.address, 8) == 109  # 2*fib(10)-1

    def test_rewritten_elf_has_dyninst_sections(self):
        from repro.elf import read_elf
        from repro.elf import structs as es
        st, co = setup_c(fib_source(5))
        patcher = Patcher(st, co)
        c = patcher.allocate_var("calls")
        patcher.insert(function_entry(co.function_by_name("fib")),
                       IncrementVar(c))
        res = patcher.commit()
        blob = rewrite(st, res)
        elf = read_elf(blob)
        names = {s.name for s in elf.sections}
        assert ".dyninst.text" in names
        assert ".dyninst.data" in names
        syms = elf.symbols_by_name()
        assert "dyninst$calls" in syms
        # the data area is zero-fill: a memory size, no file bytes
        data = elf.section(".dyninst.data").header
        assert data.sh_type == es.SHT_NOBITS
        assert data.sh_size == res.data_size
        load = next(sg.header for sg in elf.segments
                    if sg.header.p_vaddr == res.data_base)
        assert (load.p_filesz, load.p_memsz) == (0, res.data_size)
        assert len(blob) < res.data_size

    def _matmul_with_block_counter(self):
        st, co = setup_c(matmul_source(5, 2))
        patcher = Patcher(st, co)
        blocks = patcher.allocate_var("blocks")
        patcher.insert(block_entries(co.function_by_name("multiply")),
                       IncrementVar(blocks))
        res = patcher.commit()
        dynamic = run_instrumented(st, res)
        return st, rewrite(st, res), dynamic.mem.read_int(blocks.address, 8)

    @staticmethod
    def _run_rewritten(blob):
        m = Machine()
        st = load_instrumented(m, blob)
        ev = m.run(max_steps=5_000_000)
        assert ev.reason is StopReason.EXITED, ev
        return m, st.symbols

    def test_rewritten_matmul_keeps_bss(self):
        """The matrices live in .bss, which is no longer the image's
        last zero-fill section: the loader must map both."""
        st, blob, want = self._matmul_with_block_counter()
        base = run_baseline(st)
        m, syms = self._run_rewritten(blob)
        assert bytes(m.stdout).split()[1] == bytes(base.stdout).split()[1]
        assert m.mem.read_int(syms["dyninst$blocks"].address, 8) == want

    def test_rewritten_image_rewrites_again(self):
        st, blob, want = self._matmul_with_block_counter()
        st2 = Symtab.from_bytes(blob)
        co2 = parse_binary(st2)
        patcher = Patcher(st2, co2)
        calls = patcher.allocate_var("calls")
        patcher.insert(function_entry(co2.function_by_name("multiply")),
                       IncrementVar(calls))
        m, syms = self._run_rewritten(rewrite(st2, patcher.commit()))
        assert m.mem.read_int(syms["dyninst$blocks"].address, 8) == want
        assert m.mem.read_int(syms["dyninst$calls"].address, 8) == 2

    def test_rewritten_binary_reanalyzable(self):
        """Dyninst can parse its own output: the instrumented binary's
        CFG must include the trampoline region."""
        st, co = setup_c(fib_source(5))
        patcher = Patcher(st, co)
        c = patcher.allocate_var("calls")
        patcher.insert(function_entry(co.function_by_name("fib")),
                       IncrementVar(c))
        blob = rewrite(st, patcher.commit())
        st2 = Symtab.from_bytes(blob)
        co2 = parse_binary(st2)
        assert co2.functions  # parse succeeds on the rewritten binary

    def test_switch_program_instrumented(self):
        """Jump-table-bearing code instruments correctly (table targets
        keep working through relocation)."""
        st, co = setup_c(switch_source(30))
        base = run_baseline(st)
        d = co.function_by_name("dispatch")
        patcher = Patcher(st, co)
        c = patcher.allocate_var("bb")
        for pt in block_entries(d):
            patcher.insert(pt, IncrementVar(c))
        m = run_instrumented(st, patcher.commit())
        assert bytes(m.stdout) == bytes(base.stdout)
        assert m.mem.read_int(c.address, 8) > 0
