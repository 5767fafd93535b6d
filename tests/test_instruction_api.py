"""InstructionAPI tests: categories, operands, read/write sets, raw
control-flow facts."""

from repro import semantics
from repro.instruction import Insn, InsnCategory, decode_insn
from repro.riscv import lookup, make
from repro.riscv.compressed import IllegalCompressed, decode_compressed
from repro.riscv.encoder import instruction_bytes
from repro.riscv.opcodes import all_specs


def mk(mnemonic, addr=0x1000, **fields):
    return Insn(make(mnemonic, **fields), addr)


class TestCategories:
    def test_arithmetic(self):
        assert mk("add", rd=1, rs1=2, rs2=3).category is InsnCategory.ARITHMETIC

    def test_load_store(self):
        assert mk("ld", rd=1, rs1=2, imm=0).category is InsnCategory.LOAD
        assert mk("sd", rs2=1, rs1=2, imm=0).category is InsnCategory.STORE
        assert mk("fld", rd=1, rs1=2, imm=0).category is InsnCategory.LOAD

    def test_control_flow(self):
        assert mk("beq", rs1=1, rs2=2, imm=8).category is InsnCategory.BRANCH
        assert mk("jal", rd=1, imm=8).category is InsnCategory.JUMP
        assert mk("jalr", rd=0, rs1=1, imm=0).category is InsnCategory.JUMP

    def test_system(self):
        assert mk("ecall").category is InsnCategory.SYSCALL
        assert mk("ebreak").category is InsnCategory.TRAP
        assert mk("csrrw", rd=0, csr=1, rs1=2).category is InsnCategory.CSR

    def test_atomic_and_float(self):
        assert mk("amoadd.d", rd=1, rs1=2, rs2=3).category is InsnCategory.ATOMIC
        assert mk("fadd.d", rd=1, rs1=2, rs2=3).category is InsnCategory.FLOAT

    def test_nop(self):
        assert mk("addi", rd=0, rs1=0, imm=0).is_nop
        assert mk("addi", rd=0, rs1=0, imm=0).category is InsnCategory.NOP
        assert not mk("addi", rd=1, rs1=0, imm=0).is_nop


class TestControlFlowFacts:
    def test_direct_target_jal(self):
        i = mk("jal", addr=0x2000, rd=0, imm=-16)
        assert i.direct_target() == 0x2000 - 16

    def test_direct_target_branch(self):
        i = mk("bne", addr=0x2000, rs1=1, rs2=2, imm=32)
        assert i.direct_target() == 0x2020
        assert i.is_conditional_branch

    def test_jalr_has_no_direct_target(self):
        i = mk("jalr", rd=0, rs1=1, imm=0)
        assert i.direct_target() is None
        assert i.indirect_base == lookup("ra")

    def test_link_register_detection(self):
        assert mk("jal", rd=1, imm=0).links            # ra
        assert mk("jalr", rd=5, rs1=10, imm=0).links   # t0 alternate
        assert not mk("jal", rd=0, imm=0).links
        assert not mk("jal", rd=10, imm=0).links       # a0 is not a link reg

    def test_writes_pc(self):
        assert mk("jal", rd=0, imm=0).writes_pc
        assert mk("beq", rs1=0, rs2=0, imm=0).writes_pc
        assert not mk("add", rd=1, rs1=2, rs2=3).writes_pc


class TestOperandsAndSets:
    def test_rtype_operands(self):
        ops = mk("add", rd=1, rs1=2, rs2=3).operands()
        assert [(o.value.abi_name, o.is_written) for o in ops if o.is_register] \
            == [("ra", True), ("sp", False), ("gp", False)]

    def test_read_write_sets_semantic(self):
        i = mk("add", rd=1, rs1=2, rs2=3)
        assert i.read_set() == {lookup("sp"), lookup("gp")}
        assert i.write_set() == {lookup("ra")}

    def test_x0_excluded(self):
        i = mk("addi", rd=5, rs1=0, imm=1)
        assert i.read_set() == set()

    def test_store_reads_both(self):
        i = mk("sd", rs2=10, rs1=2, imm=8)
        assert i.read_set() == {lookup("a0"), lookup("sp")}
        assert i.write_set() == set()

    def test_fp_sets(self):
        i = mk("fmadd.d", rd=1, rs1=2, rs2=3, rs3=4)
        assert i.write_set() == {lookup("ft1")}
        assert i.read_set() == {lookup("ft2"), lookup("ft3"), lookup("ft4")}


class TestMemoryAccess:
    def test_load_access(self):
        acc = mk("lw", rd=1, rs1=2, imm=-4).memory_access()
        assert acc.base == lookup("sp")
        assert acc.displacement == -4
        assert acc.size == 4
        assert acc.is_read and not acc.is_write

    def test_store_access(self):
        acc = mk("sb", rs2=1, rs1=3, imm=7).memory_access()
        assert acc.size == 1 and acc.is_write

    def test_amo_access(self):
        acc = mk("amoswap.w", rd=1, rs1=2, rs2=3).memory_access()
        assert acc.is_read and acc.is_write and acc.size == 4
        lr = mk("lr.d", rd=1, rs1=2).memory_access()
        assert lr.is_read and not lr.is_write

    def test_non_memory(self):
        assert mk("add", rd=1, rs1=2, rs2=3).memory_access() is None

    def test_flags(self):
        assert mk("ld", rd=1, rs1=2, imm=0).reads_memory
        assert mk("sd", rs2=1, rs1=2, imm=0).writes_memory


class _Traffic:
    """An evaluation state whose x<n> holds 0x1000 * n and which records
    the memory reads."""

    pc = 0x1000

    def __init__(self):
        self.reads = set()

    def read_xreg(self, n):
        return 0x1000 * n

    def read_freg(self, n):
        return 0x3FF0_0000_0000_0000 | n

    def read_mem(self, addr, size):
        self.reads.add((addr, size))
        return 0


def _memory_traffic(instr):
    """(reads, writes) of *instr* as sets of (address, size): what its
    SAIL semantics do to memory when evaluated, or, for lr/sc, what the
    architecture says (the reservation is not memory)."""
    sem = semantics.semantics_for(instr)
    if sem is None:
        if instr.mnemonic[:3] not in ("lr.", "sc."):
            return set(), set()
        access = {(0x1000 * instr.fields["rs1"],
                   4 if instr.mnemonic.endswith(".w") else 8)}
        return (access, set()) if instr.mnemonic[:2] == "lr" \
            else (set(), access)
    state = _Traffic()
    writes = semantics.evaluate(sem, instr, state)
    return state.reads, {(w[1], w[2]) for w in writes if w[0] == "mem"}


def _check_memory_facts(instr):
    insn = Insn(instr, 0x1000)
    reads, writes = _memory_traffic(instr)
    what = instr.compressed_mnemonic or instr.mnemonic
    assert insn.reads_memory == semantics.reads_memory(instr) == bool(reads), what
    assert insn.writes_memory == semantics.writes_memory(instr) \
        == bool(writes), what
    acc = insn.memory_access()
    if not reads | writes:
        assert acc is None, what
        return
    ((addr, size),) = reads | writes
    assert 0x1000 * acc.base.number + acc.displacement == addr, what
    assert acc.size == size, what
    assert (acc.is_read, acc.is_write) == (bool(reads), bool(writes)), what


class TestMemoryFacts:
    """The registry and InstructionAPI report one set of memory facts,
    and they are what the semantics do."""

    def test_every_spec(self):
        regs = {"rd": 5, "rs1": 6, "rs2": 7, "rs3": 8, "imm": -24,
                "shamt": 3, "csr": 0x340, "zimm": 9}
        for spec in all_specs():
            fields = {}
            for op in spec.operands:
                key = op[1:] if op in ("frd", "frs1", "frs2", "frs3") else op
                fields[key] = regs.get(key, 0)
            _check_memory_facts(make(spec.mnemonic, **fields))

    def test_every_compressed_expansion(self):
        for hw in range(1 << 16):
            try:
                instr = decode_compressed(hw)
            except IllegalCompressed:
                continue
            _check_memory_facts(instr)


class TestDecodeInsn:
    def test_decode_with_address(self):
        blob = instruction_bytes(make("addi", rd=1, rs1=0, imm=5))
        i = decode_insn(blob, 0, 0x4000)
        assert i.address == 0x4000
        assert i.next_address == 0x4004
        assert not i.is_compressed

    def test_compressed_length(self):
        from repro.riscv.compressed import encode_compressed
        i = decode_insn(encode_compressed("c.nop").to_bytes(2, "little"), 0,
                        0x4000)
        assert i.is_compressed and i.next_address == 0x4002
