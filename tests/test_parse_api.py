"""ParseAPI tests: traversal parsing, jal/jalr classification (§3.2.3),
jump tables, tail calls, block splitting, loops, gap parsing."""

import pytest

from repro.minicc import (
    Options, compile_source, fib_source, matmul_source, switch_source,
    tailcall_source,
)
from repro.parse import (
    EdgeType, natural_loops, parse_binary, parse_binary_parallel,
)
from repro.riscv import assemble
from repro.symtab import Symtab


def parse_asm(src, **kw):
    return parse_binary(Symtab.from_program(assemble(src)), **kw)


def parse_c(src, opts=None, **kw):
    return parse_binary(Symtab.from_program(compile_source(src, opts)), **kw)


class TestBasicTraversal:
    def test_single_function(self):
        co = parse_asm("""
.type f, @function
f:
  addi a0, a0, 1
  ret
""")
        fn = co.function_by_name("f")
        assert fn is not None
        assert len(fn.blocks) == 1
        assert fn.returns

    def test_conditional_branch_blocks(self):
        co = parse_asm("""
.type f, @function
f:
  beqz a0, zero_case
  addi a0, a0, 1
  ret
zero_case:
  li a0, 99
  ret
""")
        fn = co.function_by_name("f")
        assert len(fn.blocks) == 3
        entry = fn.entry_block
        kinds = {e.kind for e in entry.out_edges}
        assert kinds == {EdgeType.COND_TAKEN, EdgeType.COND_NOT_TAKEN}

    def test_call_discovers_function(self):
        co = parse_asm("""
.type main, @function
main:
  call helper
  ret
helper:
  ret
""")
        main = co.function_by_name("main")
        helper_addr = next(iter(main.callees))
        assert co.function_at(helper_addr) is not None
        entry = main.entry_block
        kinds = [e.kind for e in entry.out_edges]
        assert EdgeType.CALL in kinds and EdgeType.CALL_FT in kinds

    def test_block_split_on_backward_jump(self):
        # Jump lands mid-block: the parser must split it.
        co = parse_asm("""
.type f, @function
f:
  addi a0, a0, 1
  addi a0, a0, 2
target:
  addi a0, a0, 3
  bnez a0, target
  ret
""")
        fn = co.function_by_name("f")
        target_block = next(
            b for b in fn.blocks.values()
            if b.last and b.last.mnemonic == "bne")
        # the split block must start exactly at `target`
        assert any(b.end == target_block.start for b in fn.blocks.values())
        kinds = {e.kind for b in fn.blocks.values() for e in b.out_edges}
        assert EdgeType.FALLTHROUGH in kinds

    def test_in_edges_populated(self):
        co = parse_asm("""
.type f, @function
f:
  beqz a0, out
  addi a0, a0, 1
out:
  ret
""")
        fn = co.function_by_name("f")
        out_block = max(fn.blocks.values(), key=lambda b: b.start)
        assert len(out_block.in_edges) == 2

    def test_ebreak_terminates_block(self):
        co = parse_asm(".type f, @function\nf:\nebreak\nnop\nret\n")
        fn = co.function_by_name("f")
        assert fn.entry_block.out_edges == []


class TestJalJalrClassification:
    """Paper §3.2.3: the same two opcodes mean five different things."""

    def test_jal_with_link_is_call(self):
        co = parse_asm("""
.type f, @function
f:
  jal ra, g
  ret
.type g, @function
g:
  ret
""")
        f = co.function_by_name("f")
        assert any(e.kind is EdgeType.CALL for e in f.entry_block.out_edges)

    def test_jal_x0_intraprocedural_is_jump(self):
        co = parse_asm("""
.type f, @function
f:
  j fwd
  nop
fwd:
  ret
""")
        f = co.function_by_name("f")
        assert any(e.kind is EdgeType.DIRECT for e in f.entry_block.out_edges)

    def test_jal_x0_to_other_function_is_tail_call(self):
        co = parse_asm("""
.type f, @function
f:
  tail g
.type g, @function
g:
  ret
""")
        f = co.function_by_name("f")
        g = co.function_by_name("g")
        assert g.entry in f.tail_callees

    def test_jalr_ra_is_return(self):
        co = parse_asm(".type f, @function\nf:\nret\n")
        f = co.function_by_name("f")
        assert f.returns
        assert any(e.kind is EdgeType.RET
                   for e in f.entry_block.out_edges)

    def test_jalr_alternate_link_register_return(self):
        # x5 (t0) is also a link register by convention.
        co = parse_asm(".type f, @function\nf:\njr t0\n")
        f = co.function_by_name("f")
        # t0-indirect with no link and no resolution: return
        assert f.returns

    def test_auipc_jalr_far_call_resolved(self):
        """The multi-instruction jump idiom from §3.2.3: auipc+jalr must
        be recognised via backward slicing, not left indirect."""
        co = parse_asm("""
.type f, @function
f:
  call.far g
  ret
.type g, @function
g:
  ret
""")
        f = co.function_by_name("f")
        call_edges = [e for b in f.blocks.values() for e in b.out_edges
                      if e.kind is EdgeType.CALL]
        assert len(call_edges) == 1
        assert call_edges[0].target == co.function_by_name("g").entry
        assert call_edges[0].resolved

    def test_auipc_jalr_far_tail_call(self):
        co = parse_asm("""
.type f, @function
f:
  tail.far g
.type g, @function
g:
  ret
""")
        f = co.function_by_name("f")
        g = co.function_by_name("g")
        assert g.entry in f.tail_callees

    def test_li_jalr_constant_jump_resolved(self):
        # Materialised-constant jalr: slicing across lui/addi.
        co = parse_asm("""
.type f, @function
f:
  lui t1, 16
  addi t1, t1, 12
  jr t1
target_pad:
  nop
  ret
""")
        f = co.function_by_name("f")
        # 16<<12 + 12 = 0x1000c -> the nop after the jr
        edges = [e for e in f.entry_block.out_edges]
        assert edges[0].target == 0x1000C
        assert edges[0].kind in (EdgeType.DIRECT, EdgeType.TAILCALL)
        assert edges[0].resolved

    def test_unresolvable_jalr_recorded(self):
        # jalr through a register loaded from runtime-unknown memory.
        co = parse_asm("""
.type f, @function
f:
  jr a0
""")
        f = co.function_by_name("f")
        assert f.unresolved
        assert any(not e.resolved for e in f.entry_block.out_edges)

    def test_indirect_call_keeps_fallthrough(self):
        co = parse_asm("""
.type f, @function
f:
  jalr ra, 0(a0)
  li a0, 1
  ret
""")
        f = co.function_by_name("f")
        kinds = {e.kind for e in f.entry_block.out_edges}
        assert EdgeType.CALL in kinds and EdgeType.CALL_FT in kinds


class TestJumpTables:
    def test_minicc_switch_resolved(self):
        co = parse_c(switch_source())
        d = co.function_by_name("dispatch")
        assert len(d.jump_tables) == 1
        targets = next(iter(d.jump_tables.values()))
        assert len(targets) == 6  # cases 0..5 (+default outside table)
        assert d.unresolved == []
        for t in targets:
            assert d.block_at(t) is not None

    def test_hand_written_jump_table(self):
        co = parse_asm("""
.type f, @function
f:
  li t1, 3
  bgeu a0, t1, dflt
  slli t0, a0, 3
  la t2, table
  add t2, t2, t0
  ld t2, 0(t2)
  jr t2
c0:
  li a0, 10
  ret
c1:
  li a0, 20
  ret
c2:
  li a0, 30
  ret
dflt:
  li a0, 0
  ret
.data
.align 3
table:
  .dword c0
  .dword c1
  .dword c2
""")
        f = co.function_by_name("f")
        assert len(f.jump_tables) == 1
        targets = next(iter(f.jump_tables.values()))
        assert len(targets) == 3

    def test_table_with_bad_entries_rejected(self):
        # Table entries point into data: analysis must fail closed.
        co = parse_asm("""
.type f, @function
f:
  li t1, 2
  bgeu a0, t1, dflt
  slli t0, a0, 3
  la t2, table
  add t2, t2, t0
  ld t2, 0(t2)
  jr t2
dflt:
  ret
.data
.align 3
table:
  .dword 0x1234
  .dword 0x5678
""")
        f = co.function_by_name("f")
        assert not f.jump_tables
        assert f.unresolved


class TestTailCallsAndRecursion:
    def test_minicc_tail_calls(self):
        co = parse_c(tailcall_source(), Options(tail_calls=True))
        odd = co.function_by_name("odd_step")
        even = co.function_by_name("even_step")
        assert even.entry in odd.tail_callees
        assert odd.entry in even.tail_callees

    def test_recursive_call(self):
        co = parse_c(fib_source(10))
        fib = co.function_by_name("fib")
        assert fib.entry in fib.callees


class TestLoops:
    def test_triple_nested_matmul(self):
        co = parse_c(matmul_source(4, 1))
        mult = co.function_by_name("multiply")
        loops = natural_loops(mult)
        assert len(loops) == 3
        depths = sorted(l.depth for l in loops)
        assert depths == [1, 2, 3]
        innermost = max(loops, key=lambda l: l.depth)
        outermost = min(loops, key=lambda l: l.depth)
        assert innermost.body < outermost.body

    def test_simple_while_loop(self):
        co = parse_asm("""
.type f, @function
f:
  li a1, 0
loop:
  addi a1, a1, 1
  blt a1, a0, loop
  ret
""")
        f = co.function_by_name("f")
        loops = natural_loops(f)
        assert len(loops) == 1
        assert loops[0].back_edges

    def test_no_loops_in_straightline(self):
        co = parse_asm(".type f, @function\nf:\naddi a0, a0, 1\nret\n")
        assert natural_loops(co.function_by_name("f")) == []


class TestGapParsing:
    def test_pointer_only_function_found(self):
        """A function reachable only through an unresolvable pointer is a
        gap; the prologue scan must find it."""
        src = """
.type main, @function
main:
  jr a0            # unresolvable: hidden is unreachable by traversal
.align 3
.type hidden, @function
hidden:
  addi sp, sp, -16
  sd ra, 0(sp)
  ld ra, 0(sp)
  addi sp, sp, 16
  ret
"""
        # Strip symbols so `hidden` is genuinely invisible.
        from repro.elf.writer import image_from_program, write_elf
        from repro.riscv import assemble as asm
        p = asm(src)
        image = image_from_program(p)
        image.symbols = [s for s in image.symbols if s.name == "main"]
        st = Symtab.from_bytes(write_elf(image))

        co_nogap = parse_binary(st, gap_parsing=False)
        n_before = len(co_nogap.functions)
        co = parse_binary(st, gap_parsing=True)
        assert len(co.functions) > n_before
        gap_fns = [f for f in co.functions.values()
                   if f.name.startswith("gap_")]
        assert gap_fns
        assert gap_fns[0].returns

    def test_no_spurious_gap_functions_in_full_parse(self):
        co = parse_c(fib_source())
        assert not [f for f in co.functions.values()
                    if f.name.startswith("gap_")]


class TestParallelParse:
    def test_parallel_matches_serial(self):
        st = Symtab.from_program(compile_source(matmul_source(4, 1)))
        serial = parse_binary(st)
        par = parse_binary_parallel(st, workers=4)
        assert set(serial.functions) == set(par.functions)
        for addr in serial.functions:
            s, p = serial.functions[addr], par.functions[addr]
            # Block-splitting granularity may differ with parse order
            # (as in Dyninst); instruction coverage and call structure
            # must not.
            s_cov = {i.address for b in s.blocks.values() for i in b.insns}
            p_cov = {i.address for b in p.blocks.values() for i in b.insns}
            assert s_cov == p_cov, s.name
            assert s.callees == p.callees
        # in-edges are built after the merge: every block's list is the
        # merged CFG's edges into it ...
        for b in par.blocks.values():
            assert b.in_edges == [e for x in par.blocks.values()
                                  for e in x.out_edges
                                  if e.target == b.start]

        # ... and, fall-throughs from differently split blocks aside,
        # the serial parse's
        def in_edges(co):
            return {(e.src.last.address, e.kind, e.target)
                    for b in co.blocks.values() for e in b.in_edges
                    if e.kind is not EdgeType.FALLTHROUGH}

        assert in_edges(serial)
        assert in_edges(par) == in_edges(serial)


class TestWholeProgramProperties:
    def test_matmul_program_fully_resolved(self):
        co = parse_c(matmul_source(4, 1))
        for fn in co.functions.values():
            assert not fn.unresolved, fn.name

    def test_block_instructions_contiguous(self):
        co = parse_c(matmul_source(4, 1))
        for fn in co.functions.values():
            for b in fn.blocks.values():
                pc = b.start
                for insn in b.insns:
                    assert insn.address == pc
                    pc += insn.length
                assert pc == b.end

    def test_every_function_entry_block_exists(self):
        co = parse_c(switch_source())
        for fn in co.functions.values():
            assert fn.entry in fn.blocks
