"""DataflowAPI tests: liveness (dead-register discovery), slicing,
constant resolution, stack height."""

import pytest

from repro.dataflow import (
    At, analyze_liveness, analyze_stack_height, backward_slice,
    build_slice_graph, forward_slice, resolve_register,
)
from repro.minicc import compile_source, fib_source, matmul_source
from repro.parse import parse_binary
from repro.riscv import assemble, lookup
from repro.symtab import Symtab


def parse_asm(src):
    return parse_binary(Symtab.from_program(assemble(src)))


def fn_of(co, name):
    fn = co.function_by_name(name)
    assert fn is not None, name
    return fn


def at_last(fn):
    """The CFG point just before *fn*'s last instruction."""
    block = max(fn.blocks.values(), key=lambda b: b.start)
    return At(fn.intraproc_preds(), block, len(block.insns) - 1)


class TestLiveness:
    def test_straightline_dead_register(self):
        co = parse_asm("""
.type f, @function
f:
  addi t0, zero, 1     # t0 defined here
  add a0, a0, t0       # last use of t0
  ret
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        entry = f.entry
        # Before the first instruction t0 holds no useful value... but it
        # is *used* by the add after being defined, so at the add t0 is
        # live; after the add nothing reads it.
        assert lookup("t0") in lv.live_before(entry + 4)
        # t1 is never touched: dead everywhere.
        assert lookup("t1") in lv.dead_before(entry)
        assert lookup("t1") in lv.dead_before(entry + 4)

    def test_a0_live_at_return(self):
        co = parse_asm("""
.type f, @function
f:
  addi a0, zero, 42
  ret
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        # a0 is the return value: live after its definition.
        assert lookup("a0") in lv.live_before(f.entry + 4)
        # ...and its incoming value is dead at entry (overwritten).
        assert lookup("a0") in lv.dead_before(f.entry)

    def test_branch_join_keeps_both_paths_live(self):
        co = parse_asm("""
.type f, @function
f:
  beqz a0, other
  add a1, a1, a2       # uses a2
  ret
other:
  add a1, a1, a3       # uses a3
  ret
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        live = lv.live_before(f.entry)
        assert lookup("a2") in live and lookup("a3") in live

    def test_call_clobbers_make_caller_saved_dead_after(self):
        co = parse_asm("""
.type f, @function
f:
  addi sp, sp, -16
  sd ra, 0(sp)
  call g
  addi a0, a0, 1       # post-call: t-regs dead (clobbered by call)
  ld ra, 0(sp)
  addi sp, sp, 16
  ret
.type g, @function
g:
  ret
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        post_call = f.entry + 12  # the addi a0 after the call
        dead = lv.dead_before(post_call)
        assert lookup("t0") in dead and lookup("t3") in dead

    def test_arg_regs_live_at_call(self):
        co = parse_asm("""
.type f, @function
f:
  call g
  ret
.type g, @function
g:
  ret
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        live = lv.live_before(f.entry)
        for name in ("a0", "a7"):
            assert lookup(name) in live

    def test_unresolved_indirect_makes_all_live(self):
        co = parse_asm("""
.type f, @function
f:
  jr a5
""")
        f = fn_of(co, "f")
        lv = analyze_liveness(f)
        assert lv.dead_before(f.entry) == []

    def test_matmul_inner_loop_has_dead_registers(self):
        """The paper's §4.3 claim depends on dead registers existing at
        typical instrumentation points in compiled code."""
        co = parse_binary(Symtab.from_program(
            compile_source(matmul_source(4, 1))))
        mult = fn_of(co, "multiply")
        lv = analyze_liveness(mult)
        for block in mult.blocks.values():
            dead = lv.dead_before(block.start)
            assert dead, f"no dead registers at {block.start:#x}"

    def test_query_outside_function_raises(self):
        co = parse_asm(".type f, @function\nf:\nret\n")
        lv = analyze_liveness(fn_of(co, "f"))
        with pytest.raises(KeyError):
            lv.live_before(0xDEAD)


class TestSlicing:
    SRC = """
.type f, @function
f:
  addi t0, zero, 5      # A: t0 = 5
  addi t1, zero, 7      # B: t1 = 7
  add t2, t0, t1        # C: t2 = t0 + t1
  addi t3, zero, 1      # D: independent
  add a0, t2, t3        # E: a0 = t2 + t3
  ret
"""

    def test_backward_slice_follows_dataflow(self):
        co = parse_asm(self.SRC)
        f = fn_of(co, "f")
        e = f.entry
        sl = backward_slice(f, e + 16)  # E
        assert sl == {e + 0, e + 4, e + 8, e + 12}

    def test_backward_slice_single_register(self):
        co = parse_asm(self.SRC)
        f = fn_of(co, "f")
        e = f.entry
        sl = backward_slice(f, e + 16, lookup("t3"))
        assert sl == {e + 12}

    def test_forward_slice(self):
        co = parse_asm(self.SRC)
        f = fn_of(co, "f")
        e = f.entry
        sl = forward_slice(f, e)  # from A: flows into C then E
        assert sl == {e + 8, e + 16}

    def test_slice_across_branches(self):
        co = parse_asm("""
.type f, @function
f:
  addi t0, zero, 1      # A
  beqz a0, other
  addi t0, zero, 2      # B: redefinition on one path
other:
  add a0, a0, t0        # C: both A and B reach here
  ret
""")
        f = fn_of(co, "f")
        e = f.entry
        g = build_slice_graph(f)
        use_addr = e + 12
        defs = {d for _, d in g.reaching[use_addr] }
        assert e + 0 in defs and e + 8 in defs

    def test_memory_coarse_slicing(self):
        co = parse_asm("""
.type f, @function
f:
  sd a1, 0(a0)          # store
  ld a2, 8(a0)          # load: coarsely depends on the store
  add a0, a2, zero
  ret
""")
        f = fn_of(co, "f")
        e = f.entry
        sl = backward_slice(f, e + 8, include_memory=True)
        assert e + 0 in sl and e + 4 in sl
        sl_nomem = backward_slice(f, e + 8, include_memory=False)
        assert e + 0 not in sl_nomem


class TestConstProp:
    def _at_last(self, src, fname="f"):
        """The point just before *fname*'s last instruction."""
        return at_last(fn_of(parse_asm(src), fname))

    def test_lui_addi_chain(self):
        at = self._at_last("""
.type f, @function
f:
  lui t0, 0x12345
  addi t0, t0, -273
  jr t0
""")
        v = resolve_register(at, lookup("t0"))
        assert v == ((0x12345 << 12) - 273) & 0xFFFFFFFFFFFFFFFF

    def test_auipc_based(self):
        at = self._at_last("""
.type f, @function
f:
  auipc t1, 1
  addi t1, t1, 8
  jr t1
""")
        v = resolve_register(at, lookup("t1"))
        assert v == 0x10000 + 0x1000 + 8

    def test_unknown_register_unresolved(self):
        at = self._at_last(".type f, @function\nf:\njr a0\n")
        assert resolve_register(at, lookup("a0")) is None

    def test_load_without_oracle_unresolved(self):
        at = self._at_last("""
.type f, @function
f:
  ld t0, 0(sp)
  jr t0
""")
        assert resolve_register(at, lookup("t0")) is None

    def test_x0_is_zero(self):
        at = self._at_last(".type f, @function\nf:\nret\n")
        assert resolve_register(at, lookup("zero")) == 0

    def test_shifted_materialization(self):
        at = self._at_last("""
.type f, @function
f:
  li t0, 0x123456789
  jr t0
""")
        v = resolve_register(at, lookup("t0"))
        assert v == 0x123456789


class TestBackwardWalk:
    """The rules of the backward walk along the CFG that constant
    resolution, the jalr classifier, jump tables and slicing share."""

    def test_merging_paths_resolve_only_when_they_agree(self):
        co = parse_asm("""
.type agree, @function
agree:
  beqz a0, a_else
  li t0, 64
  j a_join
a_else:
  li t0, 64
a_join:
  jr t0
.type disagree, @function
disagree:
  beqz a0, d_else
  li t0, 64
  j d_join
d_else:
  li t0, 128
d_join:
  jr t0
.type sibling, @function
sibling:
  li t1, 3
  bltu a0, t1, s_ok
  li a0, 0
  ret
s_ok:
  jr a0
""")
        t0, a0 = lookup("t0"), lookup("a0")
        assert resolve_register(at_last(fn_of(co, "agree")), t0) == 64
        assert resolve_register(at_last(fn_of(co, "disagree")), t0) is None
        # the li on the fall-through path does not reach s_ok
        assert resolve_register(at_last(fn_of(co, "sibling")), a0) is None

    def test_call_defines_the_caller_saved_registers(self):
        co = parse_asm("""
.type f, @function
f:
  li sp, 0x4000
  li s0, 0x100
  li ra, 0x10
  li t0, 0x20
  li a0, 0x30
  call g
  jr a0
.type g, @function
g:
  ret
""")
        at = at_last(fn_of(co, "f"))
        for name in ("ra", "t0", "a0"):
            assert resolve_register(at, lookup(name)) is None, name
        assert resolve_register(at, lookup("sp")) == 0x4000
        assert resolve_register(at, lookup("s0")) == 0x100

    def test_loop_back_edge_terminates(self):
        """Each block is entered once per walk: a definition before the
        loop still resolves, and one the loop carries does not."""
        import signal

        def hang(signum, frame):
            raise TimeoutError("the walk did not terminate")

        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            # the parser's own walk from the jr crosses the loop too
            f = fn_of(parse_asm("""
.type f, @function
f:
  li t0, 8
  li t1, 0
loop:
  addi t1, t1, 1
  addi t2, t2, -1
  bnez t2, loop
  jr t0
"""), "f")
            at = at_last(f)
            assert resolve_register(at, lookup("t0")) == 8
            assert resolve_register(at, lookup("t1")) is None
            sl = backward_slice(f, at.insn.address)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert sl == {f.entry}  # li t0, 8


class TestStackHeight:
    def test_standard_frame(self):
        co = parse_asm("""
.type f, @function
f:
  addi sp, sp, -32
  sd ra, 24(sp)
  sd s0, 16(sp)
  call g
  ld ra, 24(sp)
  ld s0, 16(sp)
  addi sp, sp, 32
  ret
.type g, @function
g:
  ret
""")
        f = fn_of(co, "f")
        sh = analyze_stack_height(f)
        e = f.entry
        assert sh.height_before(e) == 0
        assert sh.height_before(e + 4) == -32
        assert sh.frame_size == 32
        # ra saved at sp+24 when height = -32: entry-relative -8
        assert sh.ra_slot == -8
        assert sh.fp_saved_slot == -16
        # after frame teardown, the final ret sees height 0
        ret_addr = max(i.address for i in f.instructions())
        assert sh.height_before(ret_addr) == 0

    def test_leaf_function_no_ra_slot(self):
        co = parse_asm(".type f, @function\nf:\naddi a0, a0, 1\nret\n")
        sh = analyze_stack_height(fn_of(co, "f"))
        assert sh.ra_slot is None
        assert sh.frame_size == 0

    def test_dynamic_allocation_poisons(self):
        co = parse_asm("""
.type f, @function
f:
  sub sp, sp, a0       # VLA-style: unknown displacement
  addi a0, a0, 1
  ret
""")
        f = fn_of(co, "f")
        sh = analyze_stack_height(f)
        assert sh.height_before(f.entry + 4) is None

    def test_minicc_function_heights_consistent(self):
        co = parse_binary(Symtab.from_program(compile_source(fib_source())))
        fib = fn_of(co, "fib")
        sh = analyze_stack_height(fib)
        assert sh.ra_slot is not None
        assert sh.frame_size > 0
        for insn in fib.instructions():
            # fib has no dynamic allocation: every height is known
            assert sh.height_before(insn.address) is not None
