"""Simulator tests: memory, execution, syscalls, timing, debug port."""

import pytest

from repro.riscv import assemble
from repro.sim import (
    Machine, MemoryFault, P550, StopReason, UCYCLE, X86PROXY, run_program,
)
from repro.sim.memory import Memory


class TestMemory:
    def test_roundtrip_int(self):
        m = Memory()
        m.map_region(0x1000, 0x100)
        m.write_int(0x1008, 8, 0x1122334455667788)
        assert m.read_int(0x1008, 8) == 0x1122334455667788
        assert m.read_int(0x1008, 4) == 0x55667788  # little-endian

    def test_cross_page_access(self):
        m = Memory()
        m.map_region(0x0, 0x3000)
        m.write_int(0xFFE, 8, 0xAABBCCDDEEFF0011)
        assert m.read_int(0xFFE, 8) == 0xAABBCCDDEEFF0011

    def test_unmapped_faults(self):
        m = Memory()
        with pytest.raises(MemoryFault):
            m.read_int(0xDEAD000, 4)

    def test_write_wraps_value(self):
        m = Memory()
        m.map_region(0, 16)
        m.write_int(0, 1, 0x1FF)
        assert m.read_int(0, 1) == 0xFF

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("addr", [0x1100, 0x1FFE])
    def test_every_width(self, size, addr):
        """Any width round-trips, inside a page and across a page
        boundary, and touches only its own bytes."""
        m = Memory()
        m.map_region(0x1000, 0x2000)
        value = int.from_bytes(bytes(range(0x81, 0x81 + size)), "little")
        m.write_int(addr, size, value | 1 << 8 * size)
        assert m.read_int(addr, size) == value
        assert m.read_bytes(addr - 1, size + 2) == \
            bytes([0]) + value.to_bytes(size, "little") + bytes([0])

    def test_bytes_roundtrip_cross_page(self):
        m = Memory()
        m.map_region(0, 0x3000)
        blob = bytes(range(256)) * 20
        m.write_bytes(0xF80, blob)
        assert m.read_bytes(0xF80, len(blob)) == blob


class TestLazyPages:
    """``map_region`` reserves pages; the first access creates them."""

    @staticmethod
    def _mapped(mem):
        """Every mapped page index with its content; reserved pages
        read as zeros."""
        return {idx: mem.page_content(idx)
                for idx in mem._pages.keys() | mem._reserved}

    def test_untouched_stack_page_reads_zero_and_is_mapped(self):
        from repro.sim.machine import STACK_SIZE, STACK_TOP

        m = Machine()
        m.load_program(assemble("_start:\nnop\n"))
        low = STACK_TOP - STACK_SIZE  # the stack's deepest page
        assert m.mem.is_mapped(low)
        assert (low >> 12) not in m.mem._pages  # reserved, not allocated
        mapped = m.mem.mapped_pages()
        assert mapped > STACK_SIZE // 4096
        assert m.mem.page_content(low >> 12) == bytes(4096)
        assert m.mem.read_bytes(low, 4096) == bytes(4096)
        m.mem.write_int(low + 8, 8, 0x1234)
        assert m.mem.read_int(low + 8, 8) == 0x1234
        assert m.mem.mapped_pages() == mapped

    def test_address_outside_every_region_faults(self):
        m = Memory()
        m.map_region(0x10000, 0x2000)
        for addr in (0xFFFC, 0x12000):
            assert not m.is_mapped(addr)
            with pytest.raises(MemoryFault):
                m.read_int(addr, 4)
            with pytest.raises(MemoryFault):
                m.write_int(addr, 4, 1)
        assert m.mapped_pages() == 2

    def test_remapping_keeps_content(self):
        m = Memory()
        m.map_region(0, 16)
        m.write_int(0, 4, 7)
        m.map_region(0, 0x2000)
        assert m.read_int(0, 4) == 7
        assert m.mapped_pages() == 2

    @pytest.mark.parametrize("premap", [True, False],
                             ids=["reserved", "unmapped"])
    def test_rollback_of_commit_restores_mapped_pages(self, premap):
        """A commit rolled back by a fault after its trampoline write
        and data-area mapping: every mapped page, reserved ones
        included, reads as before.  A reserved patch area makes the
        trampoline write the first access to its pages; an unmapped
        one makes the rollback drop the reservations the commit made."""
        from repro import faults
        from repro.api import open_binary
        from repro.codegen import IncrementVar
        from repro.faults import FaultPlan, InjectedFault
        from repro.minicc import compile_source, fib_source
        from repro.patch import PointType

        edit = open_binary(compile_source(fib_source(5)))
        calls = edit.allocate_variable("calls")
        edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                    IncrementVar(calls))
        result = edit.commit()
        m = Machine()
        edit.symtab.load_into(m)
        if premap:
            end = result.trampoline_base + len(result.trampoline_code)
            m.mem.map_region(result.data_base, end - result.data_base)
        assert (result.trampoline_base >> 12) not in m.mem._pages
        before = self._mapped(m.mem)
        with faults.active(FaultPlan(site="patch.txn.traps")):
            with pytest.raises(InjectedFault):
                result.apply_to_machine(m)
        assert self._mapped(m.mem) == before


def _run(src, timing=P550, max_steps=1_000_000):
    p = assemble(src)
    m, ev = run_program(p, timing=timing, max_steps=max_steps)
    return m, ev


def _traced_machine(prog):
    """A trace-compiling machine that compiles on first dispatch, so
    these few-instruction programs still run as compiled traces."""
    m = Machine(P550, trace_compile=True)
    m.traces.hot_threshold = 1
    m.load_program(prog)
    return m


class TestExecution:
    def test_exit_code(self):
        _, ev = _run("_start:\nli a0, 42\nli a7, 93\necall\n")
        assert ev.reason is StopReason.EXITED
        assert ev.exit_code == 42

    def test_arithmetic_loop(self):
        m, ev = _run("""
_start:
  li a0, 100
  li a1, 0
loop:
  add a1, a1, a0
  addi a0, a0, -1
  bnez a0, loop
  mv a0, a1
  li a7, 93
  ecall
""")
        assert ev.exit_code == 5050 & 0xFF

    def test_memory_ops(self):
        m, ev = _run("""
_start:
  la a0, buf
  li a1, -7
  sd a1, 0(a0)
  lw a2, 0(a0)      # sign-extended low word
  lbu a3, 7(a0)     # top byte unsigned
  sub a0, a2, a1    # 0 if lw sign-extended correctly
  add a0, a0, a3
  addi a0, a0, -255
  li a7, 93
  ecall
.data
buf: .zero 8
""")
        assert ev.exit_code == 0

    def test_mul_div(self):
        _, ev = _run("""
_start:
  li a0, -100
  li a1, 7
  div a2, a0, a1     # -14
  rem a3, a0, a1     # -2
  mul a4, a2, a1     # -98
  add a0, a4, a3     # -100
  sub a0, a0, a0
  li a7, 93
  ecall
""")
        assert ev.exit_code == 0

    def test_div_by_zero_architectural(self):
        _, ev = _run("""
_start:
  li a0, 5
  li a1, 0
  divu a2, a0, a1    # all-ones
  addi a2, a2, 1     # 0
  rem a3, a0, a1     # 5 (dividend)
  add a0, a2, a3
  li a7, 93
  ecall
""")
        assert ev.exit_code == 5

    def test_compressed_instructions_execute(self):
        _, ev = _run("""
_start:
  c.li a0, 5
  c.addi a0, 3
  c.mv a1, a0
  c.nop
  add a0, a0, a1
  li a7, 93
  ecall
""")
        assert ev.exit_code == 16

    def test_double_precision(self):
        _, ev = _run("""
_start:
  la a0, vals
  fld fa0, 0(a0)
  fld fa1, 8(a0)
  fmul.d fa2, fa0, fa1   # 2.5 * 4.0 = 10.0
  fcvt.l.d a0, fa2
  li a7, 93
  ecall
.data
vals: .double 2.5, 4.0
""")
        assert ev.exit_code == 10

    def test_single_precision_nanboxed(self):
        _, ev = _run("""
_start:
  li a0, 3
  fcvt.s.w fa0, a0
  fcvt.s.w fa1, a0
  fadd.s fa2, fa0, fa1
  fcvt.w.s a0, fa2
  li a7, 93
  ecall
""")
        assert ev.exit_code == 6

    def test_fp_compare_and_sqrt(self):
        _, ev = _run("""
_start:
  li a0, 16
  fcvt.d.w fa0, a0
  fsqrt.d fa1, fa0
  fcvt.w.d a0, fa1
  li a1, 2
  fcvt.d.w fa2, a1
  flt.d a2, fa2, fa1    # 2.0 < 4.0 -> 1
  add a0, a0, a2
  li a7, 93
  ecall
""")
        assert ev.exit_code == 5

    def test_amo_and_lrsc(self):
        _, ev = _run("""
_start:
  la a0, cell
  li a1, 5
  amoadd.w a2, a1, (a0)   # old=10, cell=15
  lr.w a3, (a0)           # 15
  li a4, 99
  sc.w a5, a4, (a0)       # success -> 0, cell=99
  lw a6, 0(a0)
  add a0, a2, a3          # 25
  add a0, a0, a5          # 25
  add a0, a0, a6          # 124
  li a7, 93
  ecall
.data
cell: .word 10
""")
        assert ev.exit_code == 124

    def test_jump_and_link(self):
        _, ev = _run("""
_start:
  li a0, 1
  call bump
  call bump
  li a7, 93
  ecall
bump:
  addi a0, a0, 10
  ret
""")
        assert ev.exit_code == 21

    def test_stack_usable(self):
        _, ev = _run("""
_start:
  addi sp, sp, -16
  li a0, 7
  sd a0, 8(sp)
  li a0, 0
  ld a0, 8(sp)
  addi sp, sp, 16
  li a7, 93
  ecall
""")
        assert ev.exit_code == 7

    def test_fault_on_wild_store(self):
        _, ev = _run("""
_start:
  li a0, 0x40000000
  sd zero, 0(a0)
""")
        assert ev.reason is StopReason.FAULT
        assert "fault" in ev.fault

    def test_steps_exhausted(self):
        _, ev = _run("_start:\nj _start\n", max_steps=100)
        assert ev.reason is StopReason.STEPS_EXHAUSTED

    def test_ebreak_stops_with_pc_at_breakpoint(self):
        p = assemble("_start:\nnop\nebreak\nnop\n")
        m = _traced_machine(p)
        ev = m.run()
        assert ev.reason is StopReason.BREAKPOINT
        assert ev.pc == p.entry + 4
        assert m.pc == p.entry + 4  # pc stays at the ebreak
        assert m.traces.mega_compiles > 0

    def test_zicond_executes(self):
        from repro.riscv.extensions import RVA23_SUBSET
        p = assemble("""
_start:
  li a1, 5
  li a2, 0
  czero.eqz a0, a1, a2   # rs2==0 -> 0
  li a2, 1
  czero.eqz a3, a1, a2   # rs2!=0 -> a1
  add a0, a0, a3
  li a7, 93
  ecall
""", arch=RVA23_SUBSET)
        m = _traced_machine(p)
        ev = m.run()
        assert ev.exit_code == 5
        assert m.traces.mega_compiles > 0


class TestSyscalls:
    def test_write_captured(self):
        m, ev = _run("""
_start:
  li a7, 64
  li a0, 1
  la a1, msg
  li a2, 5
  ecall
  li a7, 93
  li a0, 0
  ecall
.data
msg: .asciz "hello"
""")
        assert bytes(m.stdout) == b"hello"

    def test_clock_gettime_succeeds(self):
        m, ev = _run("""
_start:
  li a7, 113
  li a0, 1
  la a1, ts
  ecall
  mv s0, a0      # return value (0 on success)
  li a7, 93
  mv a0, s0
  ecall
.data
ts: .zero 16
""", max_steps=100)
        assert ev.reason is StopReason.EXITED
        assert ev.exit_code == 0

    def test_clock_gettime_value_matches_timing_model(self):
        src = """
_start:
  li a7, 113
  li a0, 1
  la a1, ts
  ecall
  ld a0, 8(a1)        # tv_nsec
  li a7, 93
  ecall
.data
ts: .zero 16
"""
        p = assemble(src)
        m = _traced_machine(p)
        ev = m.run()
        # exit code is tv_nsec & 0xff; just confirm the full value in memory
        ns = m.mem.read_int(p.symbols["ts"].address + 8, 8)
        assert ns == pytest.approx(m.timing.nanoseconds(m.ucycles), abs=100)
        assert m.traces.mega_compiles > 0

    def test_unknown_syscall_faults(self):
        _, ev = _run("_start:\nli a7, 999\necall\n")
        assert ev.reason is StopReason.FAULT


class TestTimingModels:
    def test_cycle_csr_advances(self):
        m, _ = _run("""
_start:
  csrr s0, cycle
  nop
  nop
  csrr s1, cycle
  sub a0, s1, s0
  li a7, 93
  ecall
""")
        assert m.exit_code >= 2

    def test_x86proxy_faster_wallclock(self):
        src = """
_start:
  li a0, 10000
loop:
  addi a0, a0, -1
  bnez a0, loop
  li a7, 93
  ecall
"""
        m1, _ = _run(src, timing=P550)
        m2, _ = _run(src, timing=X86PROXY)
        assert m1.instret == m2.instret  # same dynamic path
        assert m2.simulated_seconds() < m1.simulated_seconds() / 4

    def test_determinism(self):
        src = "_start:\nli a0, 3\nli a7, 93\necall\n"
        m1, _ = _run(src)
        m2, _ = _run(src)
        assert m1.ucycles == m2.ucycles
        assert m1.instret == m2.instret


class TestDebugPort:
    def test_reg_access(self):
        m = Machine()
        m.load_program(assemble("_start:\nnop\n"))
        m.set_reg(10, 0x1234)
        assert m.get_reg(10) == 0x1234
        m.set_reg(0, 5)
        assert m.get_reg(0) == 0

    def test_code_patching_invalidates_closures(self):
        # Execute an addi, patch it to a different addi, re-execute:
        # the machine must honour the new bytes (icache invalidation).
        from repro.riscv import encode
        p = assemble("_start:\nli a0, 1\nli a7, 93\necall\n")
        m = _traced_machine(p)
        assert m.step() is None  # executes li a0, 1
        m.pc = p.entry           # rewind
        new = encode("addi", rd=10, rs1=0, imm=77).to_bytes(4, "little")
        m.write_mem(p.entry, new)
        ev = m.run()
        assert ev.exit_code == 77
        assert m.traces.mega_compiles > 0

    def test_breakpoint_insert_resume_cycle(self):
        from repro.riscv import encode
        p = assemble("_start:\nli a0, 5\naddi a0, a0, 1\nli a7, 93\necall\n")
        m = _traced_machine(p)
        bp_addr = p.entry + 4
        orig = m.read_mem(bp_addr, 4)
        m.write_mem(bp_addr, encode("ebreak").to_bytes(4, "little"))
        ev = m.run()
        assert ev.reason is StopReason.BREAKPOINT and ev.pc == bp_addr
        m.write_mem(bp_addr, orig)  # restore and resume
        ev = m.run()
        assert ev.reason is StopReason.EXITED and ev.exit_code == 6
        assert m.traces.mega_compiles > 0
