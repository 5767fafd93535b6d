"""InstructionAPI totality: for any decodable word, every query on the
Insn wrapper must succeed (no instruction may crash operand/category/
memory-access introspection — tools call these on arbitrary binaries)."""

from hypothesis import given, settings, strategies as st

from repro.dataflow.liveness import mask_of
from repro.instruction import Insn, InsnCategory
from repro.riscv import DecodeError, decode
from repro.semantics import register_masks


@settings(max_examples=500, deadline=None)
@given(raw=st.binary(min_size=4, max_size=4))
def test_insn_queries_total_over_random_words(raw):
    try:
        insn = Insn(decode(raw, 0, 0x1_0000), 0x1_0000)
    except DecodeError:
        return
    # every introspection path must run without raising
    assert isinstance(insn.category, InsnCategory)
    ops = insn.operands()
    for op in ops:
        assert isinstance(op.is_read, bool)
    rs, ws = insn.read_set(), insn.write_set()
    assert all(r.number < 32 for r in rs | ws)
    # liveness's masks name the same registers
    assert register_masks(insn.raw) == (mask_of(rs), mask_of(ws))
    acc = insn.memory_access()
    if acc is not None:
        assert acc.size in (1, 2, 4, 8)
    _ = insn.writes_pc
    _ = insn.direct_target()
    _ = insn.link_register
    _ = insn.disasm()
    assert insn.next_address == 0x1_0000 + insn.length


@settings(max_examples=500, deadline=None)
@given(hw=st.integers(0, 0xFFFF))
def test_insn_queries_total_over_compressed(hw):
    raw = hw.to_bytes(2, "little") + b"\x00\x00"
    try:
        insn = Insn(decode(raw, 0, 0x1_0000), 0x1_0000)
    except DecodeError:
        return
    _ = insn.category
    _ = insn.operands()
    assert register_masks(insn.raw) == (mask_of(insn.read_set()),
                                        mask_of(insn.write_set()))
    _ = insn.memory_access()
    _ = insn.disasm()
